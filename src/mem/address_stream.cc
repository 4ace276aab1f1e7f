#include "mem/address_stream.h"

#include "sim/logging.h"

namespace hiss {
namespace {

constexpr Addr kLine = 64;

/** withProbability(0.5): the outcome of a noisy branch. */
const Chance kCoinFlip(0.5);

/** Uniform line pick over @p lines lines. Regions of at most one
 *  line never draw (fill picks line 0), so their range is unused. */
IntRange
linePick(std::uint64_t lines)
{
    return IntRange(0, lines > 1 ? lines - 1 : 0);
}

/** Rejects NaN, infinities and anything outside [0, 1]. */
void
requireProbability(const char *owner, const char *field, double value)
{
    if (!(value >= 0.0 && value <= 1.0))
        fatal("%s: %s must be a finite value in [0,1], got %f", owner,
              field, value);
}

} // namespace

AddressStream::AddressStream(const MemoryProfile &profile, Addr base,
                             std::uint64_t seed)
    : profile_(profile),
      base_(base),
      hot_(linePick(profile.hot_set_bytes / kLine)),
      cold_(linePick(profile.working_set_bytes / kLine)),
      hot_chance_(profile.hot_set_bytes > 0 ? profile.hot_fraction : 0.0),
      stride_chance_(profile.stride_fraction),
      rng_(seed),
      cursor_(base)
{
    if (profile.working_set_bytes == 0)
        fatal("AddressStream: empty working set");
    if (profile.hot_set_bytes > profile.working_set_bytes)
        fatal("AddressStream: hot set larger than working set");
    requireProbability("AddressStream", "hot_fraction",
                       profile.hot_fraction);
    requireProbability("AddressStream", "stride_fraction",
                       profile.stride_fraction);
}

void
AddressStream::fill(Addr *buf, std::size_t n)
{
    const Addr base = base_;
    const bool hot_draws = profile_.hot_set_bytes / kLine > 1;
    const bool cold_draws = profile_.working_set_bytes / kLine > 1;
    const Addr wrap = base + profile_.working_set_bytes;
    Addr cursor = cursor_;
    // HISS_LINT_ALLOW(rng-discipline): a working copy the loop keeps
    // in registers (stores to buf could alias rng_), written back below
    Rng rng = rng_;

    for (std::size_t i = 0; i < n; ++i) {
        // An empty hot set never draws: hot_chance_ is "never".
        if (rng.withProbability(hot_chance_)) {
            // Hot access: uniform within the hot subset.
            const std::uint64_t pick = hot_draws ? rng.uniformInt(hot_) : 0;
            buf[i] = base + pick * kLine;
            continue;
        }
        // Cold access: sequential walk with probability
        // stride_fraction, else uniform within the full working set.
        if (rng.withProbability(stride_chance_)) {
            cursor += kLine;
            if (cursor >= wrap)
                cursor = base;
            buf[i] = cursor;
            continue;
        }
        const std::uint64_t pick = cold_draws ? rng.uniformInt(cold_) : 0;
        buf[i] = base + pick * kLine;
    }

    cursor_ = cursor;
    rng_ = rng;
}

BranchStream::BranchStream(const BranchProfile &profile, Addr pc_base,
                           std::uint64_t seed)
    : profile_(profile),
      pc_base_(pc_base),
      site_(0, profile.static_branches > 0 ? profile.static_branches - 1
                                           : 0),
      noise_(profile.pattern_noise),
      rng_(seed)
{
    if (profile.static_branches == 0)
        fatal("BranchStream: need at least one branch site");
    requireProbability("BranchStream", "bias_min", profile.bias_min);
    requireProbability("BranchStream", "bias_max", profile.bias_max);
    requireProbability("BranchStream", "pattern_noise",
                       profile.pattern_noise);
    if (profile.bias_min > profile.bias_max)
        fatal("BranchStream: invalid bias range [%f, %f]",
              profile.bias_min, profile.bias_max);
    taken_.reserve(profile.static_branches);
    for (std::uint32_t i = 0; i < profile.static_branches; ++i)
        taken_.emplace_back(
            rng_.uniformReal(profile.bias_min, profile.bias_max));
}

void
BranchStream::fill(Outcome *buf, std::size_t n)
{
    const Addr pc_base = pc_base_;
    const Chance *const taken = taken_.data();
    // HISS_LINT_ALLOW(rng-discipline): as in AddressStream::fill
    Rng rng = rng_;

    for (std::size_t i = 0; i < n; ++i) {
        const auto site =
            static_cast<std::uint32_t>(rng.uniformInt(site_));
        const Addr pc = pc_base + static_cast<Addr>(site) * 16;
        const bool noisy = rng.withProbability(noise_);
        const bool outcome =
            rng.withProbability(noisy ? kCoinFlip : taken[site]);
        buf[i] = Outcome{pc, outcome};
    }
    rng_ = rng;
}

} // namespace hiss
