/**
 * @file
 * Snapshot/restore engine: fidelity and failure modes.
 *
 * The contract under test (docs/MODEL.md "Snapshot/restore"): a
 * system restored from a snapshot is indistinguishable from the
 * system that kept running — same HeteroSystem::stateHash() (the
 * hash of the bytes a snapshot saves) at the cut, the same hash
 * after running further, and byte-identical statistics dumps at the
 * end. Failure modes (version mismatch, truncation, corruption,
 * config mismatch, armed invariant monitor, state that cannot be
 * saved) must be loud, typed errors, never silent divergence; the
 * hash refuses wherever the save does.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/hiss.h"
#include "snap/snap.h"

namespace hiss {
namespace {

/** Workload mix exercising every snapshot surface: CPU app, demand-
 *  paging GPU, an extra accelerator, and (optionally) fault
 *  injection with its watchdog and loss ledger. */
struct Rig
{
    std::unique_ptr<HeteroSystem> sys;
    CpuApp *app = nullptr;
};

FaultPlan
armedPlan()
{
    FaultPlan plan;
    plan.irq_drop_prob = 0.2;
    plan.irq_dup_prob = 0.15;
    plan.irq_delay_prob = 0.2;
    plan.ipi_delay_prob = 0.1;
    plan.kworker_stall_prob = 0.1;
    plan.signal_loss_prob = 0.1;
    plan.request_timeout = usToTicks(150);
    plan.max_retries = 4;
    return plan;
}

Rig
buildRig(std::uint64_t seed, bool faults)
{
    SystemConfig config;
    config.seed = seed;
    // Snapshots refuse an armed invariant monitor; stand down the
    // HISS_CHECK=ON default so these tests run on every preset.
    config.check_invariants = false;
    if (faults)
        config.fault = armedPlan();
    Rig rig;
    rig.sys = std::make_unique<HeteroSystem>(config);
    CpuAppParams app_params = parsec::params("x264");
    app_params.iterations = 6;
    rig.app = &rig.sys->addCpuApp(app_params);
    rig.app->start();
    rig.sys->launchGpu(gpu_suite::params("sssp"), true, true);
    rig.sys->addAccelerator().launch(gpu_suite::params("bfs"), true,
                                     true);
    return rig;
}

std::string
statsDump(HeteroSystem &sys)
{
    std::ostringstream os;
    os << sys.now() << '\n';
    sys.stats().dumpCsv(os);
    return os.str();
}

/** Cut a run at @p cut, restore into a twin, and require the twin to
 *  shadow the original exactly until @p end. */
void
expectRoundTrip(std::uint64_t seed, bool faults, Tick cut, Tick end)
{
    Rig original = buildRig(seed, faults);
    original.sys->runUntil(cut);
    const std::string blob = original.sys->snapshotBytes();
    const std::uint64_t hash_at_cut = original.sys->stateHash();

    Rig twin = buildRig(seed, faults);
    twin.sys->restoreSnapshotBytes(blob);
    EXPECT_EQ(twin.sys->now(), cut);
    EXPECT_EQ(twin.sys->stateHash(), hash_at_cut)
        << "seed " << seed << ": restore is not state-identical";

    // A re-snapshot of the restored twin must be byte-identical: the
    // round trip loses nothing.
    EXPECT_EQ(twin.sys->snapshotBytes(), blob);

    original.sys->runUntil(end);
    twin.sys->runUntil(end);
    EXPECT_EQ(twin.sys->stateHash(), original.sys->stateHash())
        << "seed " << seed << ": restored run diverged after the cut";
    EXPECT_EQ(statsDump(*twin.sys), statsDump(*original.sys));
}

TEST(Snapshot, RoundTripIsExactAcrossSeeds)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL})
        expectRoundTrip(seed, false, msToTicks(5), msToTicks(12));
}

TEST(Snapshot, RoundTripIsExactWithFaultsArmed)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL})
        expectRoundTrip(seed, true, msToTicks(5), msToTicks(12));
}

TEST(Snapshot, StateHashDetectsDivergence)
{
    Rig a = buildRig(1, false);
    Rig b = buildRig(2, false);
    a.sys->runUntil(msToTicks(3));
    b.sys->runUntil(msToTicks(3));
    EXPECT_NE(a.sys->stateHash(), b.sys->stateHash());
}

TEST(Snapshot, VersionMismatchIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    std::string blob = rig.sys->snapshotBytes();
    // The format version is the u32 right after the magic.
    blob[sizeof snap::kMagic] ^= 0x7f;
    Rig twin = buildRig(1, false);
    try {
        twin.sys->restoreSnapshotBytes(blob);
        FAIL() << "version mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, TruncationIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    const std::string blob = rig.sys->snapshotBytes();
    Rig twin = buildRig(1, false);
    EXPECT_THROW(twin.sys->restoreSnapshotBytes(
                     blob.substr(0, blob.size() / 2)),
                 snap::SnapshotError);
    EXPECT_THROW(twin.sys->restoreSnapshotBytes(blob.substr(0, 4)),
                 snap::SnapshotError);
}

TEST(Snapshot, CorruptionIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    std::string blob = rig.sys->snapshotBytes();
    blob[blob.size() / 2] ^= 0x40;
    Rig twin = buildRig(1, false);
    try {
        twin.sys->restoreSnapshotBytes(blob);
        FAIL() << "payload corruption not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, ConfigMismatchIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    const std::string blob = rig.sys->snapshotBytes();
    // Different seed => different config fingerprint.
    Rig wrong_seed = buildRig(2, false);
    try {
        wrong_seed.sys->restoreSnapshotBytes(blob);
        FAIL() << "config fingerprint mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
    // Different workload shape as well.
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = false;
    HeteroSystem bare(config);
    EXPECT_THROW(bare.restoreSnapshotBytes(blob), snap::SnapshotError);
}

/** The SnapshotError message @p op throws ("" if it throws none). */
std::string
refusal(const std::function<void()> &op)
{
    try {
        op();
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

/** Require saveSnapshot and stateHash to refuse @p sys alike. */
void
expectSaveAndHashRefuse(HeteroSystem &sys)
{
    snap::Writer w;
    const std::string saved = refusal([&] { sys.saveSnapshot(w); });
    EXPECT_NE(saved, "") << "saveSnapshot did not refuse";
    EXPECT_EQ(refusal([&] { (void)sys.stateHash(); }), saved);
}

TEST(Snapshot, ArmedMonitorRefusesSnapshots)
{
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = true;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(1));
    expectSaveAndHashRefuse(sys);
}

TEST(Snapshot, PlainCallableEventRefusesSaveAndHash)
{
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = false;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(1));
    sys.events().scheduleAfter(usToTicks(5), [] {});
    expectSaveAndHashRefuse(sys);
}

TEST(Snapshot, CallableTranslateInFlightRefusesSaveAndHash)
{
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = false;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(1));
    sys.iommu().translate(Vpn{7}, [](TranslateResult) {}, false);
    expectSaveAndHashRefuse(sys);
}

TEST(Snapshot, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/hiss_snapshot_test.hsnap";
    Rig rig = buildRig(5, false);
    rig.sys->runUntil(msToTicks(2));
    rig.sys->saveSnapshotFile(path);
    Rig twin = buildRig(5, false);
    twin.sys->restoreSnapshotFile(path);
    EXPECT_EQ(twin.sys->stateHash(), rig.sys->stateHash());
    std::remove(path.c_str());
}

/**
 * A fault-armed rig on which every event site fires: canneal plus a
 * looping demand-paged ubench, and a second accelerator (device id 1) whose
 * short looping kernel hits the IOTLB and sends a signal at each
 * completion. Coalescing, a small PPR queue and aggressive fault
 * rates reach the coalesce, retry, watchdog and re-send sites.
 */
Rig
buildSiteRig()
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = false;
    config.iommu.coalescing = true;
    FaultPlan plan = armedPlan();
    plan.ppr_queue_capacity = 8;
    plan.signal_loss_prob = 0.3;
    plan.max_retries = 8;
    // Long enough that ubench's fault flood does not abort every
    // wavefront, short enough that some requests still time out.
    plan.request_timeout = msToTicks(1);
    config.fault = plan;
    Rig rig;
    rig.sys = std::make_unique<HeteroSystem>(config);
    // Short fork-join phases: threads waking at each join find busy
    // cores, which reaches the scheduler's deferred preempt check.
    CpuAppParams app_params = parsec::params("canneal");
    app_params.iterations = 200;
    app_params.parallel_insts = 100'000;
    app_params.serial_insts = 0;
    rig.app = &rig.sys->addCpuApp(app_params);
    rig.app->start();
    rig.sys->launchGpu(gpu_suite::params("ubench"), true, true);
    GpuWorkloadParams small;
    small.name = "small";
    small.wavefronts = 2;
    small.pages = 4;
    small.main_visits = 16;
    small.chunks_per_visit = 2;
    small.reuse_fraction = 0.7;
    SignalQueue *signals = &rig.sys->signalQueue();
    rig.sys->addAccelerator().launch(small, true, true, [signals] {
        for (int i = 0; i < 4; ++i)
            signals->sendSignal(nullptr);
    });
    return rig;
}

// Cuts the site rig wherever a site kind is pending that no earlier
// cut carried (plus a few regular cuts), restores a twin from each
// cut, and requires every twin to finish bit-identical to the run
// that never stopped. Every kind a target's fire() handles must have
// been pending at some cut, so a new site without snapshot coverage
// fails here by name.
TEST(Snapshot, EverySiteKindCrossesASnapshot)
{
    const Tick end = msToTicks(8);
    struct Cut
    {
        Tick at;
        std::string blob;
        std::uint64_t hash;
    };
    std::vector<Cut> cuts;
    std::set<std::string> seen;
    Rig original = buildSiteRig();
    Tick next_regular = 0;
    while (original.sys->now() < end) {
        original.sys->runUntil(original.sys->now() + 100);
        std::set<std::string> pending;
        original.sys->events().forEachPending(
            [&pending](const EventTarget &, const snap::Tag &tag) {
                pending.insert(tag.self.kind);
            });
        bool fresh = false;
        for (const std::string &kind : pending)
            fresh = fresh || seen.count(kind) == 0;
        if (!fresh && original.sys->now() < next_regular)
            continue;
        seen.insert(pending.begin(), pending.end());
        next_regular = original.sys->now() + end / 6;
        cuts.push_back({original.sys->now(),
                        original.sys->snapshotBytes(),
                        original.sys->stateHash()});
    }
    ASSERT_GE(cuts.size(), 6u);
    const std::uint64_t final_hash = original.sys->stateHash();
    const std::string final_stats = statsDump(*original.sys);

    for (const Cut &cut : cuts) {
        SCOPED_TRACE("cut at tick " + std::to_string(cut.at));
        Rig twin = buildSiteRig();
        twin.sys->restoreSnapshotBytes(cut.blob);
        ASSERT_EQ(twin.sys->stateHash(), cut.hash);
        twin.sys->runUntil(end);
        EXPECT_EQ(twin.sys->stateHash(), final_hash);
        EXPECT_EQ(statsDump(*twin.sys), final_stats);
    }

    for (EventTarget *target : original.sys->eventTargets()) {
        for (const char *kind : target->siteKinds())
            EXPECT_EQ(seen.count(kind), 1u)
                << "site '" << kind << "' of " << target->targetName()
                << " was never pending at a snapshot cut";
    }
}

} // namespace
} // namespace hiss
