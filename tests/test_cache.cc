/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "mem/cache.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "snap/access.h"

namespace hiss {
namespace {

TEST(Cache, GeometryValidation)
{
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 4, 0}), FatalError);
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 4, 48}), FatalError);
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 0, 64}), FatalError);
    EXPECT_THROW(Cache(CacheParams{1000, 4, 64}), FatalError);
    // 3-set cache: not a power of two.
    EXPECT_THROW(Cache(CacheParams{3 * 64 * 2, 2, 64}), FatalError);
}

TEST(Cache, SetCountMatchesGeometry)
{
    Cache cache(CacheParams{16 * 1024, 4, 64});
    EXPECT_EQ(cache.numSets(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1008)); // Same line.
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_FALSE(cache.contains(0x40));
    cache.access(0x40);
    const std::uint64_t accesses = cache.accesses();
    EXPECT_TRUE(cache.contains(0x40));
    EXPECT_EQ(cache.accesses(), accesses);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // One set, 2 ways: 1024 B / (64 B * 2 ways) = 8 sets; use
    // addresses mapping to set 0: multiples of 8*64 = 512.
    Cache cache(CacheParams{1024, 2, 64});
    const Addr a = 0 * 512;
    const Addr b = 1 * 512;
    const Addr c = 2 * 512;
    cache.access(a);
    cache.access(b);
    cache.access(a);       // a is now MRU.
    cache.access(c);       // Evicts b (LRU).
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(CacheParams{1024, 2, 64});
    for (Addr a = 0; a < 1024; a += 64)
        cache.access(a);
    cache.flush();
    EXPECT_EQ(cache.flushes(), 1u);
    for (Addr a = 0; a < 1024; a += 64)
        EXPECT_FALSE(cache.contains(a));
}

TEST(Cache, ResetCountersKeepsContents)
{
    Cache cache(CacheParams{1024, 2, 64});
    cache.access(0x80);
    cache.resetCounters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_TRUE(cache.contains(0x80));
}

TEST(Cache, ResetCountersAlsoClearsFlushCount)
{
    Cache cache(CacheParams{1024, 2, 64});
    cache.access(0x80);
    cache.flush();
    cache.flush();
    EXPECT_EQ(cache.flushes(), 2u);
    cache.resetCounters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.flushes(), 0u);
}

TEST(Cache, BatchReturnsMissCountAndPerAccessHits)
{
    Cache cache(CacheParams{1024, 2, 64});
    // Two distinct lines, each touched twice: 2 misses, 2 hits.
    const Addr addrs[] = {0x0, 0x40, 0x0, 0x48};
    std::uint8_t hits[4] = {9, 9, 9, 9};
    EXPECT_EQ(cache.accessBatch(addrs, 4, hits), 2u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 0u);
    EXPECT_EQ(hits[2], 1u);
    EXPECT_EQ(hits[3], 1u); // Same line as 0x40.
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, BatchWithoutHitsOutMatchesCounters)
{
    Cache cache(CacheParams{1024, 2, 64});
    const Addr addrs[] = {0x0, 0x0, 0x200, 0x0};
    EXPECT_EQ(cache.accessBatch(addrs, 4), 2u);
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.accessBatch(addrs, 0), 0u); // Empty batch is a no-op.
    EXPECT_EQ(cache.accesses(), 4u);
}

/** The bytes a snapshot writes for @p cache: its whole state. */
std::string
savedBytes(const Cache &cache)
{
    snap::Writer w;
    snap::Access::save(w, cache);
    return w.buffer();
}

TEST(Cache, BatchMatchesScalarStateHash)
{
    Cache batched(CacheParams{4 * 1024, 4, 64});
    Cache scalar(CacheParams{4 * 1024, 4, 64});
    Rng rng(7);
    std::vector<Addr> addrs(512);
    for (Addr &a : addrs)
        a = rng.uniformInt(0, 255) * 64;
    std::uint64_t hits = 0;
    for (const Addr a : addrs)
        hits += static_cast<std::uint64_t>(scalar.access(a));
    EXPECT_EQ(batched.accessBatch(addrs.data(), addrs.size()),
              addrs.size() - hits);
    EXPECT_EQ(savedBytes(batched), savedBytes(scalar));
    EXPECT_EQ(batched.misses(), scalar.misses());
}

/**
 * A literal true-LRU model, independent of Cache's tag-code arrays
 * and of the shared run loop every probe kernel executes: per set, a
 * vector of {valid, tag, stamp} ways; a miss fills the last invalid
 * way if any, else the first way holding the minimum stamp.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint32_t num_sets, std::uint32_t assoc,
                 std::uint32_t line_bytes)
        : line_bytes_(line_bytes), sets_(num_sets, std::vector<Way>(assoc))
    {
    }

    bool
    access(Addr addr)
    {
        const Addr tag = addr / line_bytes_;
        std::vector<Way> &ways = sets_[tag % sets_.size()];
        for (Way &way : ways) {
            if (way.valid && way.tag == tag) {
                way.stamp = ++clock_;
                return true;
            }
        }
        std::size_t victim = ways.size();
        for (std::size_t w = 0; w < ways.size(); ++w)
            if (!ways[w].valid)
                victim = w;
        if (victim == ways.size()) {
            victim = 0;
            for (std::size_t w = 1; w < ways.size(); ++w)
                if (ways[w].stamp < ways[victim].stamp)
                    victim = w;
        }
        ways[victim] = Way{true, tag, ++clock_};
        return false;
    }

    void
    flush()
    {
        for (std::vector<Way> &ways : sets_)
            for (Way &way : ways)
                way.valid = false;
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    std::uint32_t line_bytes_;
    std::uint64_t clock_ = 0;
    std::vector<std::vector<Way>> sets_;
};

TEST(Cache, MatchesReferenceLruModel)
{
    std::vector<CacheKernel> kernels = {CacheKernel::Portable};
    if (Cache::kernelSupported(CacheKernel::Avx2))
        kernels.push_back(CacheKernel::Avx2);
    Rng rng(0x1A0);
    for (const CacheKernel kernel : kernels) {
        ASSERT_TRUE(Cache::setKernel(kernel));
        for (int trial = 0; trial < 40; ++trial) {
            // 1, 2, 4, 8, 16 ways: the 4- and 8-way probe special
            // cases and the generic loop, over 1..64 sets.
            const auto assoc = static_cast<std::uint32_t>(
                1u << rng.uniformInt(0, 4));
            const auto sets = static_cast<std::uint32_t>(
                1u << rng.uniformInt(0, 6));
            const auto line = static_cast<std::uint32_t>(
                32u << rng.uniformInt(0, 2));
            Cache cache(CacheParams{sets * assoc * line, assoc, line});
            ReferenceLru ref(sets, assoc, line);

            // Half the draws from a hot pool half the capacity, half
            // from a pool 4x the capacity: steady hits and evictions.
            const std::uint64_t lines = std::uint64_t{sets} * assoc;
            const Addr high = rng.uniformInt(0, 1) << 40;
            std::vector<Addr> addrs(rng.uniformInt(200, 3000));
            for (Addr &a : addrs) {
                const std::uint64_t pool = rng.withProbability(0.5)
                    ? std::max<std::uint64_t>(lines / 2, 1)
                    : 4 * lines;
                a = high + rng.uniformInt(0, pool - 1) * line
                    + rng.uniformInt(0, line - 1);
            }

            std::vector<std::uint8_t> expect(addrs.size());
            std::vector<std::uint8_t> got(addrs.size());
            std::uint64_t flushes = 0;
            std::size_t i = 0;
            while (i < addrs.size()) {
                if (rng.withProbability(0.05)) {
                    cache.flush();
                    ref.flush();
                    ++flushes;
                }
                const std::size_t n = std::min<std::size_t>(
                    rng.uniformInt(1, 200), addrs.size() - i);
                for (std::size_t k = i; k < i + n; ++k)
                    expect[k] = static_cast<std::uint8_t>(
                        ref.access(addrs[k]));
                cache.accessBatch(addrs.data() + i, n, got.data() + i);
                i += n;
            }

            const std::string where = std::string(Cache::kernelName(kernel))
                + " sets " + std::to_string(sets) + " ways "
                + std::to_string(assoc);
            ASSERT_EQ(got, expect) << where;
            std::uint64_t misses = 0;
            for (const std::uint8_t hit : expect)
                misses += hit == 0 ? 1 : 0;
            EXPECT_EQ(cache.accesses(), addrs.size()) << where;
            EXPECT_EQ(cache.misses(), misses) << where;
            EXPECT_EQ(cache.flushes(), flushes) << where;
            EXPECT_GT(misses, 0u) << where;
            EXPECT_LT(misses, addrs.size()) << where;
        }
    }
    Cache::setKernel(Cache::bestKernel());
}

TEST(Cache, MissRateComputation)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.0);
    cache.access(0x0);  // miss
    cache.access(0x0);  // hit
    cache.access(0x40); // miss
    cache.access(0x40); // hit
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(Cache, WorkingSetFittingInCacheEventuallyAllHits)
{
    Cache cache(CacheParams{16 * 1024, 4, 64});
    // Touch 8 KiB twice; second pass must be all hits.
    for (Addr a = 0; a < 8 * 1024; a += 64)
        cache.access(a);
    cache.resetCounters();
    for (Addr a = 0; a < 8 * 1024; a += 64)
        EXPECT_TRUE(cache.access(a));
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, WorkingSetLargerThanCacheKeepsMissing)
{
    Cache cache(CacheParams{4 * 1024, 4, 64});
    // Stream 64 KiB repeatedly: with LRU and a cyclic pattern every
    // access misses after warmup.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    EXPECT_GT(cache.missRate(), 0.9);
}

/** Property sweep across geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, InvariantsHoldUnderRandomAccess)
{
    const auto [size_kib, assoc, line] = GetParam();
    Cache cache(CacheParams{static_cast<std::uint32_t>(size_kib * 1024),
                            static_cast<std::uint32_t>(assoc),
                            static_cast<std::uint32_t>(line)});
    Rng rng(static_cast<std::uint64_t>(size_kib * 1000 + assoc));
    const std::uint64_t lines_in_cache =
        static_cast<std::uint64_t>(size_kib) * 1024 / line;

    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            rng.uniformInt(0, 4 * lines_in_cache - 1) * line;
        if (cache.access(addr))
            ++hits;
        // An address just accessed must be resident.
        ASSERT_TRUE(cache.contains(addr));
    }
    // Counters are consistent.
    EXPECT_EQ(cache.accesses(), 20000u);
    EXPECT_EQ(cache.misses() + hits, 20000u);
    // A uniform working set 4x the cache must both hit and miss.
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4, 1, 64),
                      std::make_tuple(16, 4, 64),
                      std::make_tuple(16, 8, 64),
                      std::make_tuple(32, 2, 128),
                      std::make_tuple(8, 16, 32)));

} // namespace
} // namespace hiss
