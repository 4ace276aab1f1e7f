/** @file Unit tests for the deterministic RNG streams. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/random.h"
#include "snap/snap.h"

namespace hiss {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsAreIndependent)
{
    Rng a(42, "core0.workload");
    Rng b(42, "core1.workload");
    Rng a2(42, "core0.workload");
    EXPECT_NE(a.next(), b.next());
    Rng a3(42, "core0.workload");
    EXPECT_EQ(a2.next(), a3.next());
}

/**
 * One FNV-1a loop serves stream names, frame checksums and
 * snap::Hash64: the standard 64-bit test vectors pin all three.
 */
TEST(Rng, StreamNamesHashWithStandardFnv1a)
{
    const std::pair<const char *, std::uint64_t> vectors[] = {
        {"", 0xcbf29ce484222325ULL},
        {"a", 0xaf63dc4c8601ec8cULL},
        {"foobar", 0x85944171f73967e8ULL},
    };
    for (const auto &[text, fnv] : vectors) {
        SCOPED_TRACE(text);
        snap::Hash64 h;
        h.mixBytes(text);
        EXPECT_EQ(h.value(), fnv);
        EXPECT_EQ(snap::checksum(text), fnv);
    }

    // A named stream seeds from experiment_seed ^ FNV-1a(name).
    Rng named(0, "foobar");
    Rng direct(0x85944171f73967e8ULL);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(named.next(), direct.next());

    // mixString is the same loop behind an 8-byte length prefix.
    snap::Hash64 prefixed;
    prefixed.mixString("foobar");
    snap::Hash64 by_hand;
    by_hand.mix(6);
    by_hand.mixBytes("foobar");
    EXPECT_EQ(prefixed.value(), by_hand.value());
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealCustomRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(-2.0, 3.0);
        ASSERT_GE(v, -2.0);
        ASSERT_LT(v, 3.0);
    }
}

TEST(Rng, WithProbabilityExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.withProbability(0.0));
        EXPECT_TRUE(rng.withProbability(1.0));
        EXPECT_FALSE(rng.withProbability(-0.5));
        EXPECT_TRUE(rng.withProbability(1.5));
    }
}

TEST(Rng, WithProbabilityStatistics)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.withProbability(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.exponential(5.0);
        ASSERT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, NormalMoments)
{
    Rng rng(29);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

/**
 * Rng::uniformInt(IntRange) against the reference uniformInt(lo, hi):
 * same values and same number of draws (the streams stay in step),
 * over the mask path, the reciprocal path and the full range. The
 * remainder is also checked directly on draws next to multiples of
 * the span and at the rejection limit, which random draws rarely hit.
 */
TEST(Rng, IntRangeMatchesUniformInt)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, 0},            // span 1: still draws (rejects 2^64 - 1)
        {7, 7},            // span 1 at an offset
        {0, kMax - 1},     // hi = 2^64 - 2: span 2^64 - 1
        {0, kMax},         // full range: next() unfiltered
        {1, kMax},         // span 2^64 - 1 at an offset
        {0, (std::uint64_t{1} << 63) - 1}, // span 2^63
        {0, std::uint64_t{1} << 63},       // span 2^63 + 1
        {0, (std::uint64_t{1} << 32) - 2}, // span 2^32 - 1
        {0, std::uint64_t{1} << 32},       // span 2^32 + 1
        {5, 100},          // small non-power-of-two span, lo != 0
    };
    for (int k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        ranges.push_back({0, p - 1}); // 2^k
        ranges.push_back({0, p - 2}); // 2^k - 1
        ranges.push_back({0, p});     // 2^k + 1
    }
    Rng meta(0x5EED);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = meta.next() >> meta.uniformInt(0, 63);
        const std::uint64_t b = meta.next() >> meta.uniformInt(0, 63);
        ranges.push_back({std::min(a, b), std::max(a, b)});
    }

    for (const auto &[lo, hi] : ranges) {
        const IntRange range(lo, hi);
        Rng reference(lo ^ (hi * 31));
        Rng prepared(lo ^ (hi * 31));
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(prepared.uniformInt(range),
                      reference.uniformInt(lo, hi))
                << "[" << lo << ", " << hi << "] draw " << i;
        ASSERT_EQ(prepared.next(), reference.next())
            << "draw count diverged for [" << lo << ", " << hi << "]";

        const std::uint64_t span = hi - lo + 1;
        if (span == 0)
            continue; // Full range: no remainder to take.
        const std::uint64_t limit = kMax - kMax % span;
        EXPECT_TRUE(range.rejects(limit));
        EXPECT_FALSE(range.rejects(limit - 1));
        std::vector<std::uint64_t> draws = {0, 1, limit - 1, kMax,
                                            kMax - 1, span - 1, span};
        for (std::uint64_t m = span; m > 0 && draws.size() < 64;
             m = m > kMax / 3 ? 0 : m * 3) {
            draws.push_back(m - 1);
            draws.push_back(m);
            draws.push_back(m + 1);
        }
        for (int i = 0; i < 32; ++i)
            draws.push_back(meta.next());
        for (const std::uint64_t d : draws)
            ASSERT_EQ(range.offset(d), d % span)
                << "span " << span << " draw " << d;
    }
}

/**
 * Rng::withProbability(Chance) against withProbability(double): same
 * results and same number of draws, across the boundaries of the
 * exact integer threshold, the no-draw cases and NaN.
 */
TEST(Rng, ChanceMatchesWithProbability)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> ps = {
        0.0,
        -0.0,
        -1.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        0x1.0p-53,
        0x1.8p-53,
        std::nextafter(0.5, 0.0),
        0.5,
        std::nextafter(0.5, 1.0),
        std::nextafter(1.0, 0.0),
        1.0,
        2.0,
        kInf,
        -kInf,
        std::numeric_limits<double>::quiet_NaN(),
    };
    Rng meta(0xC4A1);
    for (int i = 0; i < 200; ++i)
        ps.push_back(meta.uniformReal());

    for (const double p : ps) {
        const Chance chance(p);
        Rng reference(0xF00D);
        Rng prepared(0xF00D);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(prepared.withProbability(chance),
                      reference.withProbability(p))
                << "p " << p << " draw " << i;
        ASSERT_EQ(prepared.next(), reference.next())
            << "draw count diverged for p " << p;
    }

    // A draw lands exactly on the threshold: u = 2^52 is u * 2^-53 =
    // 0.5, which is not below 0.5 but is below nextafter(0.5, 1).
    EXPECT_EQ(Chance(0.5).threshold(), std::uint64_t{1} << 52);
    EXPECT_EQ(Chance(std::nextafter(0.5, 1.0)).threshold(),
              (std::uint64_t{1} << 52) + 1);
    EXPECT_EQ(Chance(0x1.0p-53).threshold(), 1u);
    EXPECT_EQ(Chance(std::numeric_limits<double>::denorm_min()).threshold(),
              1u);
    EXPECT_EQ(Chance(std::nextafter(1.0, 0.0)).threshold(),
              (std::uint64_t{1} << 53) - 1);
    const Chance nan(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(nan.draws());
    EXPECT_EQ(nan.threshold(), 0u);
}

TEST(RngDeath, ExponentialRejectsNonPositiveMean)
{
    Rng rng(31);
    EXPECT_DEATH(rng.exponential(0.0), "mean");
}

} // namespace
} // namespace hiss
