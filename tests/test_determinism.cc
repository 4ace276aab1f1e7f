/**
 * @file
 * Whole-system determinism and conservation properties.
 *
 * The simulator must be bit-reproducible per seed (the paper's
 * methodology averages repeated runs; ours re-runs with derived
 * seeds), and its accounting must conserve time: a core's busy,
 * sleeping, and idle intervals partition the run.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/hiss.h"

namespace hiss {
namespace {

/** Run a loaded system and fingerprint every statistic. */
std::string
fingerprint(std::uint64_t seed)
{
    SystemConfig config;
    config.seed = seed;
    HeteroSystem sys(config);
    CpuAppParams app_params = parsec::params("bodytrack");
    app_params.iterations = 4;
    CpuApp &app = sys.addCpuApp(app_params);
    app.start();
    sys.launchGpu(gpu_suite::params("spmv"), true, true);
    sys.runUntilCondition([&app] { return app.done(); },
                          msToTicks(300));
    sys.finalizeStats();
    std::ostringstream os;
    os << sys.now() << '\n';
    sys.stats().dumpCsv(os);
    return os.str();
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns)
{
    EXPECT_EQ(fingerprint(17), fingerprint(17));
}

TEST(Determinism, DifferentSeedsDiverge)
{
    EXPECT_NE(fingerprint(17), fingerprint(18));
}

/** Fingerprint a cancel-heavy run: adaptive coalescing + QoS + an
 *  extra accelerator, invariant checks armed. */
std::string
cancelHeavyFingerprint(std::uint64_t seed)
{
    SystemConfig config;
    config.seed = seed;
    MitigationConfig mitigation;
    mitigation.interrupt_coalescing = true;
    mitigation.coalesce_window = usToTicks(9);
    config.applyMitigations(mitigation);
    config.iommu.adaptive_coalescing = true;
    config.enableQos(0.05);
    config.check_invariants = true;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.addAccelerator().launch(gpu_suite::params("spmv"), true, true);
    sys.runUntil(msToTicks(6));
    sys.finalizeStats();
    std::ostringstream os;
    os << sys.now() << '\n';
    sys.stats().dumpCsv(os);
    return os.str();
}

TEST(Determinism, CancelHeavyQosRunsAreReproducible)
{
    // Adaptive coalescing cancels and re-arms the coalesce timer on
    // every burst, and QoS backoff churns governor events — the
    // event queue's slot-recycling hot path. Two runs must agree on
    // every statistic, with invariant sweeps armed throughout.
    EXPECT_EQ(cancelHeavyFingerprint(23), cancelHeavyFingerprint(23));
    EXPECT_NE(cancelHeavyFingerprint(23), cancelHeavyFingerprint(24));
}

TEST(Conservation, CoreTimePartitionsTheRun)
{
    SystemConfig config;
    config.seed = 31;
    HeteroSystem sys(config);
    CpuApp &app = sys.addCpuApp(parsec::params("swaptions"));
    app.start();
    sys.launchGpu(gpu_suite::params("sssp"), true, true);
    sys.runUntilCondition([&app] { return app.done(); },
                          msToTicks(300));
    sys.finalizeStats();

    const auto elapsed = static_cast<double>(sys.now());
    for (int c = 0; c < sys.kernel().numCores(); ++c) {
        CpuCore &core = sys.kernel().core(c);
        const double busy =
            static_cast<double>(core.userTicks() + core.kernelTicks());
        const double asleep = static_cast<double>(core.cc6Ticks());
        // Busy + sleep never exceed wall time; SSR time is a subset
        // of kernel time.
        EXPECT_LE(busy + asleep, elapsed * 1.0001) << "core " << c;
        EXPECT_LE(core.ssrTicks(), core.kernelTicks()) << "core " << c;
        // A loaded core is actually used.
        EXPECT_GT(busy, elapsed * 0.1) << "core " << c;
    }
}

TEST(Conservation, FaultAccountingBalances)
{
    SystemConfig config;
    config.seed = 33;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("xsbench"), true, false);
    sys.runUntilCondition(
        [&sys] { return sys.gpu().kernelsCompleted() > 0; },
        msToTicks(300));
    sys.runUntil(sys.now() + msToTicks(2));

    // GPU-side and host-side views of the fault stream agree.
    EXPECT_EQ(sys.gpu().faultsIssued(), sys.gpu().faultsResolved());
    EXPECT_EQ(sys.iommu().pprsIssued(),
              sys.kernel().services().totalServiced());
    EXPECT_GE(sys.iommu().pprsIssued(), sys.gpu().faultsIssued());
    // Every mapped page is backed by exactly one allocated frame.
    EXPECT_EQ(sys.kernel().addressSpaces().totalMapped(),
              sys.kernel().frames().allocatedFrames());
    // Work queue drained; interrupts matched to MSIs.
    EXPECT_EQ(sys.kernel().workQueue().totalDepth(), 0u);
    EXPECT_EQ(sys.ssrDriver().interrupts(), sys.iommu().msisRaised());
}

TEST(Conservation, ExperimentRunnerBaseSystemOverride)
{
    // base_system overrides must reach the devices: shrink the
    // outstanding limit and observe a slower ubench.
    SystemConfig tight;
    tight.gpu.max_outstanding = 2;
    ExperimentConfig config;
    config.rate_window = msToTicks(8);
    config.base_system = &tight;
    const RunResult limited = ExperimentRunner::run(
        "", "ubench", config, MeasureMode::GpuOnly);

    ExperimentConfig plain;
    plain.rate_window = msToTicks(8);
    const RunResult free_run = ExperimentRunner::run(
        "", "ubench", plain, MeasureMode::GpuOnly);
    EXPECT_LT(limited.gpu_ssr_rate, free_run.gpu_ssr_rate * 0.8);
}

} // namespace
} // namespace hiss
