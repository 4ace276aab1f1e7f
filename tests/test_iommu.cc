/** @file Unit tests for the IOMMU: IOTLB, walks, PPRs, MSI policies. */

#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "iommu/iommu.h"
#include "sim/logging.h"
#include "sim/random.h"

namespace hiss {
namespace {

/**
 * A fake translate client: each token names (in b) the handler its
 * completion runs, so tests keep per-request callbacks.
 */
struct FakeClient : TranslateClient
{
    void
    translated(const snap::Token &token, TranslateResult result) override
    {
        const auto &handler = handlers.at(token.b);
        if (handler)
            handler(result);
    }

    /** A device-0 token whose completion runs @p handler. */
    snap::Token
    token(std::function<void(TranslateResult)> handler = nullptr)
    {
        handlers.push_back(std::move(handler));
        return {"test.xlate", 0, handlers.size() - 1};
    }

    std::vector<std::function<void(TranslateResult)>> handlers;
};

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest() : ctx{events, stats, 41} {}

    void
    build(IommuParams params = {}, int cores = 4,
          std::uint64_t dram_frames = KernelParams{}.dram_frames)
    {
        KernelParams kparams;
        kparams.housekeeping_period = 0;
        kparams.dram_frames = dram_frames;
        kernel = std::make_unique<Kernel>(ctx, cores, CpuCoreParams{},
                                          kparams);
        iommu = std::make_unique<Iommu>(ctx, *kernel, params);
        iommu->attachClient(0, client);
        driver = &kernel->attachSsrSource("iommu_drv", *iommu,
                                          SsrDriverParams{});
        iommu->setDriver(driver);
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    FakeClient client;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<Iommu> iommu;
    SsrDriver *driver = nullptr;
};

TEST_F(IommuTest, MappedPageResolvesViaWalkThenIotlb)
{
    build();
    kernel->gpuPageTable().map(50, 7);
    int done = 0;
    Tick first_done = 0;
    iommu->translate(50, client.token([&](TranslateResult) {
        ++done;
        first_done = events.now();
    }));
    events.runUntil(usToTicks(10));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(first_done, iommu->params().walk_latency);
    EXPECT_EQ(iommu->iotlbMisses(), 1u);

    // Second access: IOTLB hit, much faster.
    const Tick start = events.now();
    Tick second_done = 0;
    iommu->translate(50, client.token([&](TranslateResult) {
        second_done = events.now();
    }));
    events.runUntil(start + usToTicks(10));
    EXPECT_EQ(second_done - start, iommu->params().iotlb_hit_latency);
    EXPECT_EQ(iommu->iotlbHits(), 1u);
    EXPECT_EQ(iommu->pprsIssued(), 0u);
}

TEST_F(IommuTest, UnmappedPageFaultsThroughFullChain)
{
    build();
    int done = 0;
    iommu->translate(99, client.token([&](TranslateResult) { ++done; }));
    events.runUntil(msToTicks(2));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(iommu->pprsIssued(), 1u);
    EXPECT_EQ(iommu->msisRaised(), 1u);
    EXPECT_EQ(iommu->faultsResolved(), 1u);
    EXPECT_TRUE(kernel->gpuPageTable().isMapped(99));
    // The resolved translation is cached.
    EXPECT_GE(iommu->iotlbMisses(), 1u);
}

TEST_F(IommuTest, PinnedWalksNeedNoHostAndNoFrames)
{
    // Far more distinct pinned pages than simulated DRAM holds: every
    // walk completes with no host work, and none allocates a frame or
    // writes a page-table entry.
    build({}, 4, /*dram_frames=*/8);
    constexpr int kPages = 64;
    int ok = 0;
    for (Vpn v = 0; v < kPages; ++v)
        iommu->translate(1000 + v, client.token([&](TranslateResult r) {
            ok += r == TranslateResult::Ok;
        }), /*allow_fault=*/false);
    events.runUntil(usToTicks(10));
    EXPECT_EQ(ok, kPages);
    EXPECT_EQ(iommu->pprsIssued(), 0u);
    EXPECT_EQ(iommu->msisRaised(), 0u);
    EXPECT_EQ(kernel->frames().allocatedFrames(), 0u);
    EXPECT_EQ(kernel->gpuPageTable().numMapped(), 0u);
}

TEST_F(IommuTest, IotlbEvictsFifoWhenFull)
{
    IommuParams params;
    params.iotlb_entries = 4;
    build(params);
    for (Vpn v = 0; v < 6; ++v) {
        kernel->gpuPageTable().map(v, v + 100);
        iommu->translate(v, client.token());
        events.runUntil(events.now() + usToTicks(2));
    }
    // vpns 0 and 1 were evicted; re-access misses the IOTLB.
    const std::uint64_t misses_before = iommu->iotlbMisses();
    iommu->translate(0, client.token());
    events.runUntil(events.now() + usToTicks(2));
    EXPECT_EQ(iommu->iotlbMisses(), misses_before + 1);
}

TEST_F(IommuTest, SingleCoreSteeringTargetsOnlyThatCore)
{
    IommuParams params;
    params.steering = MsiSteering::SingleCore;
    params.steer_core = 2;
    build(params);
    for (Vpn v = 500; v < 510; ++v) {
        iommu->translate(v, client.token());
        events.runUntil(events.now() + usToTicks(60));
    }
    events.runUntil(events.now() + msToTicks(1));
    const ProcStats &proc = kernel->procInterrupts();
    EXPECT_GT(proc.irqCount("iommu_drv", 2), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 0), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 1), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 3), 0u);
}

TEST_F(IommuTest, SteerCoreOutOfRangeRejected)
{
    IommuParams params;
    params.steering = MsiSteering::SingleCore;
    params.steer_core = 9;
    EXPECT_THROW(build(params), FatalError);
}

TEST_F(IommuTest, CoalescingBatchesPprsIntoOneMsi)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = usToTicks(13);
    build(params);
    // Three faults well inside one window.
    iommu->translate(700, client.token());
    events.runUntil(usToTicks(1));
    iommu->translate(701, client.token());
    iommu->translate(702, client.token());
    events.runUntil(usToTicks(5));
    // No MSI yet: the window is still open.
    EXPECT_EQ(iommu->msisRaised(), 0u);
    events.runUntil(msToTicks(2));
    EXPECT_EQ(iommu->msisRaised(), 1u);
    EXPECT_EQ(iommu->faultsResolved(), 3u);
}

TEST_F(IommuTest, CoalescingBurstThresholdRaisesEarly)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = msToTicks(5); // Long window...
    params.coalesce_burst = 4;             // ...but a small burst cap.
    build(params);
    for (Vpn v = 800; v < 804; ++v)
        iommu->translate(v, client.token());
    events.runUntil(usToTicks(50));
    EXPECT_GE(iommu->msisRaised(), 1u); // Raised well before 5 ms.
}

TEST_F(IommuTest, CoalescingValidation)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = 0;
    EXPECT_THROW(build(params), FatalError);
}

TEST_F(IommuTest, FaultLatencyDistributionSampled)
{
    build();
    iommu->translate(900, client.token());
    events.runUntil(msToTicks(2));
    const auto *latency = dynamic_cast<const Distribution *>(
        stats.find("iommu.fault_latency"));
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 1u);
    EXPECT_GT(latency->mean(), 0.0);
}

TEST_F(IommuTest, DuplicateFaultsBothResolve)
{
    build();
    int done = 0;
    iommu->translate(950, client.token([&](TranslateResult) { ++done; }));
    iommu->translate(950, client.token([&](TranslateResult) { ++done; }));
    events.runUntil(msToTicks(2));
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(kernel->gpuPageTable().isMapped(950));
}

TEST_F(IommuTest, PasidsFaultIntoSeparateAddressSpaces)
{
    build();
    int done = 0;
    iommu->translate(0x111, client.token([&](TranslateResult) { ++done; }),
                     true, /*pasid=*/0);
    events.runUntil(msToTicks(2));
    iommu->translate(0x222, client.token([&](TranslateResult) { ++done; }),
                     true, /*pasid=*/7);
    events.runUntil(msToTicks(4));
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(kernel->gpuPageTable(0).isMapped(0x111));
    EXPECT_FALSE(kernel->gpuPageTable(0).isMapped(0x222));
    EXPECT_TRUE(kernel->gpuPageTable(7).isMapped(0x222));
    EXPECT_EQ(kernel->addressSpaces().size(), 2u);
}

TEST_F(IommuTest, AdaptiveCoalescingShortensSparseStreamWait)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = usToTicks(13);
    params.adaptive_coalescing = true;
    build(params);
    // A lone PPR after a long quiet period: the adaptive window
    // should not make it wait anywhere near the 13 us maximum...
    events.runUntil(msToTicks(2));
    int done = 0;
    Tick done_at = 0;
    const Tick start = events.now();
    iommu->translate(0x800, client.token([&](TranslateResult) {
        ++done;
        done_at = events.now();
    }));
    events.runUntil(start + msToTicks(2));
    ASSERT_EQ(done, 1);
    const Tick fixed_window_floor = start + usToTicks(13);
    // ...so it resolves sooner than issue + full window + pipeline.
    EXPECT_LT(done_at, fixed_window_floor + usToTicks(8));
}

/** A second, self-contained IOMMU stack for side-by-side runs. */
struct IommuStack
{
    explicit IommuStack(IommuParams params = {})
        : ctx{events, stats, 41}
    {
        KernelParams kparams;
        kparams.housekeeping_period = 0;
        kernel = std::make_unique<Kernel>(ctx, 4, CpuCoreParams{},
                                          kparams);
        iommu = std::make_unique<Iommu>(ctx, *kernel, params);
        iommu->attachClient(0, client);
        SsrDriver &driver = kernel->attachSsrSource(
            "iommu_drv", *iommu, SsrDriverParams{});
        iommu->setDriver(&driver);
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    FakeClient client;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<Iommu> iommu;
};

/** The bytes a snapshot writes for @p iommu: its whole state. */
std::string
savedBytes(const Iommu &iommu)
{
    snap::Writer w;
    iommu.snapSave(w);
    return w.buffer();
}

/**
 * The flat open-addressed IOTLB (probe table + ring cursor) must
 * implement exactly the list+map FIFO it replaced: same hit/miss
 * outcome for every access of a random workload that churns through
 * eviction continuously.
 */
TEST_F(IommuTest, FlatIotlbMatchesReferenceFifoModel)
{
    IommuParams params;
    params.iotlb_entries = 8;
    build(params);
    constexpr Vpn kPool = 32; // 4x capacity: constant eviction churn
    for (Vpn v = 0; v < kPool; ++v)
        kernel->gpuPageTable().map(v, v + 100);

    // Reference model: the seed's std::list + hash-set FIFO.
    std::list<Vpn> ref_fifo;
    std::unordered_set<Vpn> ref_set;
    const auto ref_access = [&](Vpn vpn) {
        if (ref_set.count(vpn) > 0)
            return true;
        if (ref_fifo.size() >= params.iotlb_entries) {
            ref_set.erase(ref_fifo.front());
            ref_fifo.pop_front();
        }
        ref_fifo.push_back(vpn);
        ref_set.insert(vpn);
        return false;
    };

    Rng rng(0xF1F0);
    std::uint64_t expect_hits = 0;
    std::uint64_t expect_misses = 0;
    for (int i = 0; i < 500; ++i) {
        const Vpn vpn = rng.uniformInt(0, kPool - 1);
        if (ref_access(vpn))
            ++expect_hits;
        else
            ++expect_misses;
        iommu->translate(vpn, client.token());
        // Quiesce so the miss's insert lands before the next probe,
        // matching the reference model's synchronous insert.
        events.runUntil(events.now() + usToTicks(2));
        ASSERT_EQ(iommu->iotlbHits(), expect_hits) << "access " << i;
        ASSERT_EQ(iommu->iotlbMisses(), expect_misses) << "access " << i;
    }
    EXPECT_GT(expect_hits, 0u);
    EXPECT_GT(expect_misses, params.iotlb_entries);
}

/**
 * The same contract on the access pattern the GPU actually issues:
 * pinned translates of sequential VPNs from GPU-shaped bases (a
 * 1 << 20 base plus 1 << 26 generation jumps), two device streams
 * 1 << 40 apart interleaved, short-distance re-touches that hit, and
 * duplicate translates in flight (the dedupe path of the insert).
 * Midway, with the IOTLB full and its ring wrapped, the IOMMU is
 * snapshotted into a twin; from then on both must produce the
 * reference hit/miss sequence and save the same bytes.
 */
TEST_F(IommuTest, StreamingIotlbMatchesReferenceFifoModel)
{
    struct Op
    {
        Vpn vpn = 0;
        bool duplicate = false; // a second translate in flight
    };
    for (const std::uint32_t capacity : {1u, 3u, 8u, 64u, 100u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        std::vector<Op> ops;
        for (Vpn gen = 0; gen < 3; ++gen) {
            const Vpn base = (Vpn{1} << 20) + gen * (Vpn{1} << 26);
            for (Vpn i = 0; i < capacity + 40; ++i) {
                for (const Vpn stream : {Vpn{0}, Vpn{1} << 40})
                    ops.push_back({stream + base + i, i % 7 == 3});
                if (i % 3 == 1) // the newest entry: a hit at any size
                    ops.push_back({(Vpn{1} << 40) + base + i, false});
                if (i >= 1)
                    ops.push_back({base + i - 1, false});
                if (i % 5 == 0 && i >= capacity)
                    ops.push_back({(Vpn{1} << 40) + base + i - capacity,
                                   false});
            }
        }
        const std::size_t snap_at = ops.size() / 2;

        // Reference model: the seed's std::list + hash-set FIFO, with
        // the probe and the insert split as in the device (the insert
        // lands after the walk, and a resident VPN is not re-added).
        std::list<Vpn> ref_fifo;
        std::unordered_set<Vpn> ref_set;
        const auto ref_insert = [&](Vpn vpn) {
            if (ref_set.count(vpn) > 0)
                return;
            if (ref_fifo.size() >= capacity) {
                ref_set.erase(ref_fifo.front());
                ref_fifo.pop_front();
            }
            ref_fifo.push_back(vpn);
            ref_set.insert(vpn);
        };

        IommuParams params;
        params.iotlb_entries = capacity;
        IommuStack live(params);
        std::unique_ptr<IommuStack> twin;
        std::uint64_t expect_hits = 0;
        std::uint64_t expect_misses = 0;
        std::uint64_t inserts = 0;
        const auto issue = [](IommuStack &h, const Op &op) {
            for (int k = 0; k < (op.duplicate ? 2 : 1); ++k)
                h.iommu->translate(op.vpn, h.client.token(),
                                   /*allow_fault=*/false);
            // Quiesce so the inserts land before the next probe.
            h.events.runUntil(h.events.now() + usToTicks(2));
        };
        for (std::size_t n = 0; n < ops.size(); ++n) {
            const Op &op = ops[n];
            if (n == snap_at) {
                ASSERT_EQ(ref_fifo.size(), capacity);
                ASSERT_GT(inserts, 2u * capacity); // ring has wrapped
                snap::Writer w;
                live.iommu->snapSave(w);
                twin = std::make_unique<IommuStack>(params);
                snap::Reader r(w.buffer());
                twin->iommu->snapRestore(r);
                ASSERT_TRUE(r.atEnd());
                ASSERT_EQ(savedBytes(*twin->iommu), w.buffer());
                // Every resident VPN hits in both; hits leave the FIFO
                // as it is, so the streams stay aligned.
                for (const Vpn vpn : ref_fifo) {
                    ++expect_hits;
                    issue(live, {vpn, false});
                    issue(*twin, {vpn, false});
                }
                ASSERT_EQ(live.iommu->iotlbHits(), expect_hits);
                ASSERT_EQ(twin->iommu->iotlbHits(), expect_hits);
            }
            const bool hit = ref_set.count(op.vpn) > 0;
            const std::uint64_t probes = op.duplicate ? 2 : 1;
            (hit ? expect_hits : expect_misses) += probes;
            if (!hit) {
                for (std::uint64_t k = 0; k < probes; ++k)
                    ref_insert(op.vpn);
                ++inserts;
            }
            issue(live, op);
            ASSERT_EQ(live.iommu->iotlbHits(), expect_hits) << "op " << n;
            ASSERT_EQ(live.iommu->iotlbMisses(), expect_misses)
                << "op " << n;
            if (twin != nullptr) {
                issue(*twin, op);
                ASSERT_EQ(twin->iommu->iotlbHits(), expect_hits)
                    << "twin op " << n;
                ASSERT_EQ(twin->iommu->iotlbMisses(), expect_misses)
                    << "twin op " << n;
            }
        }
        ASSERT_NE(twin, nullptr);
        EXPECT_EQ(savedBytes(*twin->iommu), savedBytes(*live.iommu));
        EXPECT_GT(expect_hits, 0u);
        EXPECT_GT(expect_misses, 4u * capacity);
    }
}

TEST_F(IommuTest, ZeroIotlbEntriesRejected)
{
    IommuParams params;
    params.iotlb_entries = 0;
    EXPECT_THROW(build(params), FatalError);
    // Oversized capacities are rejected before anything is allocated:
    // above 2^30 the probe table's 2x sizing would wrap a uint32_t.
    // A fresh stack per value, so no stat re-registration can throw.
    for (const std::uint32_t entries :
         {IommuParams::kMaxIotlbEntries + 1, 0x40000001u, 0x80000000u,
          0xFFFFFFFFu}) {
        params.iotlb_entries = entries;
        EXPECT_THROW(IommuStack{params}, FatalError) << entries;
    }
}

} // namespace
} // namespace hiss
