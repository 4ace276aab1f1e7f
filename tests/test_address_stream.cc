/** @file Unit tests for synthetic address and branch streams. */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "mem/address_stream.h"
#include "sim/logging.h"

namespace hiss {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** @p construct must throw a FatalError whose message names @p field. */
template <class Fn>
void
expectFatalNaming(Fn construct, const std::string &field)
{
    try {
        construct();
        ADD_FAILURE() << "no FatalError for a bad " << field;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

MemoryProfile
basicProfile()
{
    MemoryProfile p;
    p.working_set_bytes = 64 * 1024;
    p.hot_set_bytes = 4 * 1024;
    p.hot_fraction = 0.5;
    p.stride_fraction = 0.5;
    return p;
}

TEST(AddressStream, ValidationErrors)
{
    MemoryProfile p = basicProfile();
    p.working_set_bytes = 0;
    EXPECT_THROW(AddressStream(p, 0, 1), FatalError);

    p = basicProfile();
    p.hot_set_bytes = p.working_set_bytes * 2;
    EXPECT_THROW(AddressStream(p, 0, 1), FatalError);

    p = basicProfile();
    p.hot_fraction = 1.5;
    EXPECT_THROW(AddressStream(p, 0, 1), FatalError);

    // Every probability is range-checked, NaN and infinities
    // included, and the error names the field.
    for (const double bad : {-0.1, 1.5, kNaN, kInf, -kInf}) {
        p = basicProfile();
        p.hot_fraction = bad;
        expectFatalNaming([&] { AddressStream(p, 0, 1); },
                          "hot_fraction");
        p = basicProfile();
        p.stride_fraction = bad;
        expectFatalNaming([&] { AddressStream(p, 0, 1); },
                          "stride_fraction");
    }
}

TEST(AddressStream, AddressesStayInWorkingSet)
{
    const MemoryProfile p = basicProfile();
    const Addr base = 0x10000000;
    AddressStream stream(p, base, 42);
    for (int i = 0; i < 10000; ++i) {
        const Addr a = stream.next();
        ASSERT_GE(a, base);
        ASSERT_LT(a, base + p.working_set_bytes);
    }
}

TEST(AddressStream, HotFractionIsRespected)
{
    MemoryProfile p = basicProfile();
    p.hot_fraction = 0.8;
    p.stride_fraction = 0.0;
    const Addr base = 0;
    AddressStream stream(p, base, 43);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (stream.next() < base + p.hot_set_bytes)
            ++hot;
    // All hot accesses land in the hot set plus the cold draws that
    // randomly fall there (4/64 of 20 %).
    const double expected = 0.8 + 0.2 * (4.0 / 64.0);
    EXPECT_NEAR(static_cast<double>(hot) / n, expected, 0.03);
}

TEST(AddressStream, AllHotDegenerateProfile)
{
    MemoryProfile p = basicProfile();
    p.hot_fraction = 1.0;
    AddressStream stream(p, 0, 44);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(stream.next(), p.hot_set_bytes);
}

TEST(AddressStream, SequentialColdWalkWrapsAround)
{
    MemoryProfile p = basicProfile();
    p.hot_fraction = 0.0;
    p.stride_fraction = 1.0; // Pure sequential walk.
    const Addr base = 0x1000;
    AddressStream stream(p, base, 45);
    Addr prev = stream.next();
    bool wrapped = false;
    for (int i = 0; i < 2000; ++i) {
        const Addr cur = stream.next();
        if (cur < prev)
            wrapped = true;
        else
            EXPECT_EQ(cur, prev + 64);
        prev = cur;
    }
    EXPECT_TRUE(wrapped); // 64 KiB / 64 B = 1024 < 2000 accesses.
}

TEST(AddressStream, DeterministicPerSeed)
{
    const MemoryProfile p = basicProfile();
    AddressStream a(p, 0, 7);
    AddressStream b(p, 0, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

BranchProfile
basicBranchProfile()
{
    BranchProfile p;
    p.static_branches = 16;
    p.bias_min = 0.8;
    p.bias_max = 1.0;
    p.pattern_noise = 0.0;
    return p;
}

TEST(BranchStream, ValidationErrors)
{
    BranchProfile p = basicBranchProfile();
    p.static_branches = 0;
    EXPECT_THROW(BranchStream(p, 0, 1), FatalError);

    p = basicBranchProfile();
    p.bias_min = 0.9;
    p.bias_max = 0.5;
    EXPECT_THROW(BranchStream(p, 0, 1), FatalError);

    for (const double bad : {-0.1, 1.5, kNaN, kInf, -kInf}) {
        p = basicBranchProfile();
        p.bias_min = bad;
        expectFatalNaming([&] { BranchStream(p, 0, 1); }, "bias_min");
        p = basicBranchProfile();
        p.bias_max = bad;
        expectFatalNaming([&] { BranchStream(p, 0, 1); }, "bias_max");
        p = basicBranchProfile();
        p.pattern_noise = bad;
        expectFatalNaming([&] { BranchStream(p, 0, 1); },
                          "pattern_noise");
    }
}

TEST(BranchStream, PcsComeFromDeclaredSites)
{
    const BranchProfile p = basicBranchProfile();
    const Addr pc_base = 0x40000;
    BranchStream stream(p, pc_base, 46);
    std::map<Addr, int> sites;
    for (int i = 0; i < 5000; ++i)
        ++sites[stream.next().pc];
    EXPECT_LE(sites.size(), 16u);
    EXPECT_GE(sites.size(), 12u); // Nearly all sites exercised.
    for (const auto &[pc, count] : sites) {
        EXPECT_GE(pc, pc_base);
        EXPECT_LT(pc, pc_base + 16 * 16);
    }
}

TEST(BranchStream, OutcomesFollowBias)
{
    BranchProfile p = basicBranchProfile();
    p.bias_min = 0.95;
    p.bias_max = 1.0;
    BranchStream stream(p, 0, 47);
    int taken = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (stream.next().taken)
            ++taken;
    EXPECT_GT(static_cast<double>(taken) / n, 0.9);
}

TEST(BranchStream, NoiseMakesOutcomesLessBiased)
{
    BranchProfile p = basicBranchProfile();
    p.bias_min = 1.0;
    p.bias_max = 1.0;
    p.pattern_noise = 0.5; // Half the outcomes are coin flips.
    BranchStream stream(p, 0, 48);
    int taken = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (stream.next().taken)
            ++taken;
    EXPECT_NEAR(static_cast<double>(taken) / n, 0.75, 0.03);
}

} // namespace
} // namespace hiss
