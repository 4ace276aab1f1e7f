/**
 * @file
 * Snapshot serialization core.
 *
 * Versioned binary serialization of full simulator state. A snapshot
 * is a flat byte buffer: an integrity header (magic, format version,
 * payload length, checksum) followed by named sections written by
 * each subsystem in a fixed order. Every primitive is written
 * little-endian and fixed-width, so a snapshot taken on one host
 * restores bit-identically on any other.
 *
 * A pending event is a Tag: its schedule site plus the integers the
 * site's body needs. The event queue dispatches the tag to its
 * target's fire(), so a saved event is the event itself: the
 * snapshot writes the target's name and the tag, and restore maps
 * the name back to the target (see EventQueue::restoreState). Tags
 * support one level of nesting: `arg` carries a further token the
 * site hands on (e.g. the GPU's translate-completion token inside an
 * IOMMU walk event).
 *
 * Failure model: any structural problem — bad magic, version or
 * fingerprint mismatch, truncation, checksum failure, an inconsistent
 * event table, or an unknown event target or site — throws
 * SnapshotError; restore never silently produces a diverging
 * simulation.
 */

#ifndef HISS_SNAP_SNAP_H_
#define HISS_SNAP_SNAP_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hiss {
namespace snap {

/** Thrown on any malformed, mismatched, or unsupported snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Snapshot format version; bump on any layout change (v2: the IOMMU
 *  section carries the IOTLB FIFO ring only, not its probe table;
 *  v3: each pending event names its target; v4: the IOMMU section
 *  carries no translate-batch ledger; v5: the work queue carries its
 *  cancelled-item count). */
inline constexpr std::uint32_t kFormatVersion = 5;

/** File magic ("HISSNAP" + format epoch). */
inline constexpr char kMagic[8] = {'H', 'I', 'S', 'S', 'N', 'A', 'P', '1'};

/**
 * Names one schedule site or callback producer: a kind (a string
 * literal with static storage on the save side; interned snapshot
 * storage on the restore side) plus up to three integers.
 */
struct Token
{
    const char *kind = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;

    bool empty() const { return kind == nullptr; }

    /** True if this token's kind equals @p k (string compare). */
    bool
    is(const char *k) const
    {
        return kind != nullptr && std::strcmp(kind, k) == 0;
    }
};

/**
 * A pending event: the site itself plus an optional token the site
 * hands on. `site` is the index of self.kind in the target's
 * siteKinds() table, so fire() dispatches with a switch instead of a
 * string compare; it is derived from the kind and never serialized.
 */
struct Tag
{
    Token self;
    Token arg;
    std::uint32_t site = 0;

    bool empty() const { return self.empty(); }
};

/**
 * Intern @p kind into a process-lifetime pool and return a stable
 * pointer. Restored tags must outlive the Reader that produced them
 * (they sit in event-queue slots until the event fires or the state
 * is saved again), so reader-side kinds all come from this pool. The
 * kind vocabulary is a small fixed set of schedule sites, so the pool
 * stays tiny. Thread-safe (sweep cells restore concurrently).
 */
const char *internKind(const std::string &kind);

/** FNV-1a 64-bit running hash: HeteroSystem::stateHash (over the
 *  saved payload), the snapshot config fingerprint, cell keys, frame
 *  checksums (snap::checksum) and Rng stream names. */
struct Hash64
{
    std::uint64_t h = 14695981039346656037ULL;

    /** The FNV-1a step over every byte of @p bytes, in order. */
    void
    mixBytes(std::string_view bytes)
    {
        for (const char c : bytes) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }

    /** The eight bytes of @p v, least significant first. */
    void
    mix(std::uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>((v >> (i * 8)) & 0xffU);
        mixBytes(std::string_view(bytes, sizeof bytes));
    }

    /** @p s with its length in front, so concatenations differ. */
    void
    mixString(const std::string &s)
    {
        mix(s.size());
        mixBytes(s);
    }

    std::uint64_t value() const { return h; }
};

/** Serializes simulator state into a growable byte buffer. */
class Writer
{
  public:
    Writer() = default;

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xffU));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xffU));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Write a token, interning its kind string. */
    void token(const Token &t);

    /** Write a full event tag (site token + arg token; the site id is
     *  derived from the kind and not written). */
    void
    tag(const Tag &t)
    {
        token(t.self);
        token(t.arg);
    }

    /** Begin a named section (structural landmark for the reader). */
    void section(const char *name);

    /** The accumulated payload. */
    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
    std::unordered_map<std::string, std::uint32_t> interned_;
};

/** Deserializes a snapshot payload; throws SnapshotError on damage. */
class Reader
{
  public:
    /** @param payload full section payload (no integrity header). */
    explicit Reader(std::string payload);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    std::string str();

    /** Read a token; its kind points into interned storage that
     *  lives as long as this Reader. */
    Token token();

    Tag
    tag()
    {
        Tag t;
        t.self = token();
        t.arg = token();
        return t;
    }

    /** Consume a section marker; throws if the name differs. */
    void section(const char *name);

    /** True when the whole payload has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(std::size_t n) const;

    std::string buf_;
    std::size_t pos_ = 0;
    /** Kind id -> pooled string (see internKind). */
    std::vector<const char *> kinds_;
};

/** Checksum used by the integrity header (FNV-1a over the payload). */
std::uint64_t checksum(const std::string &payload);

/**
 * Frame @p payload with the integrity header:
 * magic, version, payload size, checksum, payload bytes.
 */
std::string frame(const std::string &payload);

/**
 * Validate and strip the integrity header of @p blob.
 * @throws SnapshotError on bad magic, unsupported version,
 *         truncation, or checksum mismatch.
 */
std::string unframe(const std::string &blob);

/** Write @p blob to @p path; throws SnapshotError on I/O failure. */
void writeFile(const std::string &path, const std::string &blob);

/**
 * Write @p blob to @p path atomically: the bytes land in a
 * same-directory temporary first and are renamed into place, so a
 * reader (or a process killed mid-write) sees either the complete
 * old file or the complete new file, never a torn prefix. The
 * campaign result cache and snapshot saves both depend on this.
 * @throws SnapshotError on I/O failure.
 */
void writeFileAtomic(const std::string &path, const std::string &blob);

/** Read @p path fully; throws SnapshotError on I/O failure. */
std::string readFile(const std::string &path);

} // namespace snap
} // namespace hiss

#endif // HISS_SNAP_SNAP_H_
