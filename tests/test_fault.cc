/**
 * @file
 * Tests for the fault-injection subsystem (src/fault) and the
 * driver/GPU recovery paths it exercises.
 *
 * The contract under test, end to end:
 *  - a disabled FaultPlan constructs no injector and perturbs
 *    nothing (fault-free runs stay bit-identical to builds without
 *    the subsystem);
 *  - every injected fault is either recovered (retry, watchdog
 *    re-raise, resend) or accounted as an aborted wavefront — runs
 *    never hang and the invariant monitor stays green;
 *  - identical seed + identical FaultPlan reproduce bit-identical
 *    statistics, with or without the invariant layer armed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/invariants.h"
#include "core/hiss.h"
#include "fault/fault_injector.h"

namespace hiss {
namespace {

std::string
csvFingerprint(const SystemConfig &config, const char *gpu_app,
               double ms = 3.0)
{
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params(gpu_app), true, true);
    sys.runUntil(msToTicks(ms));
    sys.finalizeStats();
    std::ostringstream os;
    sys.stats().dumpCsv(os);
    return os.str();
}

TEST(FaultPlan, EnabledSemantics)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_EQ(plan.label(), "none");

    // Recovery knobs alone do not arm the injector: request_timeout
    // and max_retries only matter once some fault class is active.
    plan.request_timeout = usToTicks(100);
    plan.max_retries = 3;
    EXPECT_FALSE(plan.enabled());

    FaultPlan drops;
    drops.irq_drop_prob = 0.01;
    EXPECT_TRUE(drops.enabled());
    FaultPlan capacity;
    capacity.ppr_queue_capacity = 4;
    EXPECT_TRUE(capacity.enabled());
    FaultPlan bug;
    bug.unledgered_drops = 1;
    EXPECT_TRUE(bug.enabled());
    EXPECT_NE(drops.label(), "none");
}

TEST(FaultInjector, DisabledPlanConstructsNoInjector)
{
    SystemConfig config;
    config.seed = 5;
    HeteroSystem sys(config);
    EXPECT_EQ(sys.faultInjector(), nullptr);

    SystemConfig faulty = config;
    faulty.fault.irq_drop_prob = 0.05;
    HeteroSystem armed(faulty);
    ASSERT_NE(armed.faultInjector(), nullptr);
    EXPECT_EQ(armed.faultInjector()->plan().irq_drop_prob, 0.05);
}

TEST(FaultInjector, DroppedMsisAreReRaisedByTheDeviceWatchdog)
{
    SystemConfig config;
    config.seed = 11;
    config.check_invariants = true;
    config.fault.irq_drop_prob = 0.2;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->irqsDropped(), 0u);
    // Every drop is eventually recovered: the re-raise counter keeps
    // pace and the GPU still makes progress.
    EXPECT_EQ(sys.iommu().msiRecoveries(),
              sys.faultInjector()->irqsDropped());
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultInjector, PprOverflowRejectsAndGpuRetries)
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = true;
    config.fault.ppr_queue_capacity = 2;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    EXPECT_GT(sys.iommu().pprsRejected(), 0u);
    EXPECT_GT(sys.gpu().translateRetries(), 0u);
    // The retry path recovers: requests still complete.
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultInjector, ExhaustedRetriesAbortTheWavefront)
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = true;
    config.fault.ppr_queue_capacity = 1;
    config.fault.max_retries = 0; // First INVALID answer aborts.
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    EXPECT_GT(sys.gpu().abortedWavefronts(), 0u);
    EXPECT_EQ(sys.gpu().translateRetries(), 0u);
}

TEST(FaultInjector, StalledKworkersLoseRacesWithTheRequestWatchdog)
{
    SystemConfig config;
    config.seed = 7;
    config.check_invariants = true;
    config.fault.kworker_stall_prob = 0.5;
    config.fault.kworker_stall = usToTicks(200);
    config.fault.request_timeout = usToTicks(120);
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    // Run until the GPU has aborted as many assignments as it has
    // wavefronts: where a device whose wavefronts all abort used to
    // fall silent for the rest of the run.
    const Gpu &gpu = sys.gpu();
    const auto wavefronts = static_cast<std::uint64_t>(
        gpu_suite::params("ubench").wavefronts);
    ASSERT_TRUE(sys.runUntilCondition(
        [&gpu, wavefronts] {
            return gpu.abortedWavefronts() >= wavefronts;
        },
        msToTicks(5)));
    const std::uint64_t issued_at_cut = gpu.faultsIssued();
    const std::uint64_t resolved_at_cut = gpu.faultsResolved();
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->kworkerStalls(), 0u);
    // The watchdog aborted work-queued requests and every abort
    // reached the device. An aborted request whose item was still
    // queued was cancelled off the work queue, as Linux's cancel_work
    // does; only the few a kworker had already taken ran on, as
    // suppressed zombie completions. So nothing aborted is left
    // queued behind a stalled kworker, and newer requests get served.
    const SsrDriver &driver = sys.ssrDriver();
    const WorkQueue &wq = sys.kernel().workQueue();
    EXPECT_EQ(sys.iommu().faultsAborted(), driver.requestsAborted());
    EXPECT_EQ(driver.requestsAborted(), 627u);
    EXPECT_EQ(wq.cancelled(), 624u);
    EXPECT_EQ(driver.completionsSuppressed(), 3u);
    EXPECT_EQ(driver.abortedInFlight(), 0u);
    EXPECT_EQ(wq.cancelled() + driver.completionsSuppressed()
                  + driver.abortedInFlight(),
              driver.requestsAborted());
    // An aborted wavefront drops its assignment and fetches the next,
    // so the device keeps faulting, and faults keep resolving.
    EXPECT_EQ(gpu.faultsIssued(), 690u);
    EXPECT_EQ(gpu.faultsResolved(), 47u);
    EXPECT_GT(gpu.faultsIssued(), issued_at_cut + wavefronts);
    EXPECT_GT(gpu.faultsResolved(), resolved_at_cut);
}

/**
 * A launch whose every wavefront aborts must still drain: the aborted
 * assignments are lost work, and the wavefronts fetch on. Rig: seed
 * 3, coalescing, canneal plus a looping demand-paged ubench and a
 * 4-wavefront looping accelerator, under the snapshot tests' armed
 * fault plan (every class of fault, 150 us request timeout, 4
 * retries), where every wavefront of both devices aborts within the
 * first millisecond.
 */
TEST(FaultInjector, LaunchesWhoseWavefrontsAllAbortStillDrain)
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = true;
    config.iommu.coalescing = true;
    config.fault.irq_drop_prob = 0.2;
    config.fault.irq_dup_prob = 0.15;
    config.fault.irq_delay_prob = 0.2;
    config.fault.ipi_delay_prob = 0.1;
    config.fault.kworker_stall_prob = 0.1;
    config.fault.signal_loss_prob = 0.1;
    config.fault.request_timeout = usToTicks(150);
    config.fault.max_retries = 4;
    HeteroSystem sys(config);
    CpuAppParams app = parsec::params("canneal");
    app.iterations = 6;
    sys.addCpuApp(app).start();
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    GpuWorkloadParams small;
    small.name = "small";
    small.wavefronts = 4;
    small.pages = 64;
    small.main_visits = 256;
    Gpu &accel = sys.addAccelerator();
    accel.launch(small, true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(6)));
    sys.finalizeStats();

    // Both devices abort more assignments than they have wavefronts
    // and keep issuing past them; the accelerator completes work.
    for (const Gpu *gpu : {&sys.gpu(), &accel}) {
        const auto wavefronts = static_cast<std::uint64_t>(
            gpu == &accel ? small.wavefronts
                          : gpu_suite::params("ubench").wavefronts);
        EXPECT_GE(gpu->abortedWavefronts(), wavefronts);
        EXPECT_GT(gpu->faultsIssued(), 2 * wavefronts);
    }
    EXPECT_GT(accel.chunksCompleted(), 0u);
}

TEST(FaultInjector, LostSignalsAreResent)
{
    SystemConfig config;
    config.seed = 13;
    config.check_invariants = true;
    config.fault.signal_loss_prob = 0.3;
    config.fault.signal_resend = usToTicks(50);
    HeteroSystem sys(config);
    int delivered = 0;
    for (int i = 0; i < 200; ++i)
        sys.signalQueue().sendSignal([&](CpuCore &) { ++delivered; });

    // Every signal is eventually delivered: a lost one is re-sent
    // (and redrawn) until a copy survives, so loss never starves the
    // waiter — it only delays it.
    EXPECT_TRUE(sys.runUntilCondition([&] { return delivered == 200; },
                                      msToTicks(100)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->signalsLost(), 0u);
    EXPECT_EQ(sys.signalQueue().signalsResent(),
              sys.faultInjector()->signalsLost());
}

TEST(FaultInjector, DuplicatedIrqsAreHarmless)
{
    SystemConfig config;
    config.seed = 17;
    config.check_invariants = true;
    config.fault.irq_dup_prob = 0.3;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->irqsDuplicated(), 0u);
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultDeterminism, SameSeedAndPlanBitIdentical)
{
    SystemConfig config;
    config.seed = 29;
    config.fault.irq_drop_prob = 0.05;
    config.fault.irq_dup_prob = 0.02;
    config.fault.ppr_queue_capacity = 8;
    config.fault.kworker_stall_prob = 0.05;
    config.fault.signal_loss_prob = 0.05;
    EXPECT_EQ(csvFingerprint(config, "ubench"),
              csvFingerprint(config, "ubench"));
}

TEST(FaultDeterminism, ArmedChecksDoNotPerturbFaultyRuns)
{
    SystemConfig config;
    config.seed = 31;
    config.check_period = usToTicks(20);
    config.fault.irq_drop_prob = 0.1;
    config.fault.ppr_queue_capacity = 4;
    config.fault.kworker_stall_prob = 0.05;
    SystemConfig checked = config;
    checked.check_invariants = true;
    EXPECT_EQ(csvFingerprint(config, "spmv"),
              csvFingerprint(checked, "spmv"));
}

TEST(FaultDeterminism, DifferentSeedsDivergeUnderFaults)
{
    SystemConfig a;
    a.fault.irq_drop_prob = 0.1;
    a.seed = 41;
    SystemConfig b = a;
    b.seed = 42;
    EXPECT_NE(csvFingerprint(a, "ubench"), csvFingerprint(b, "ubench"));
}

} // namespace
} // namespace hiss
