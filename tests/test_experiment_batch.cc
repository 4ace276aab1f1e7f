/**
 * @file
 * Tests for the parallel experiment engine.
 *
 * The load-bearing property is the determinism contract: a parallel
 * batch must be bit-identical to running the same cells serially
 * through ExperimentRunner, at any job count, with a multi-rep cell
 * folding its seeds exactly as ExperimentRunner::average does.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/cell_key.h"
#include "core/experiment_batch.h"
#include "sim/logging.h"

namespace hiss {
namespace {

ExperimentConfig
fastConfig(std::uint64_t seed)
{
    ExperimentConfig config;
    config.seed = seed;
    config.rate_window = msToTicks(8);
    config.max_sim_time = msToTicks(400);
    return config;
}

/** Exact (bitwise for doubles) RunResult comparison. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.hit_time_cap, b.hit_time_cap);
    EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
    EXPECT_EQ(a.cpu_runtime_ms, b.cpu_runtime_ms);
    EXPECT_EQ(a.gpu_runtime_ms, b.gpu_runtime_ms);
    EXPECT_EQ(a.gpu_ssr_rate, b.gpu_ssr_rate);
    EXPECT_EQ(a.cc6_fraction, b.cc6_fraction);
    EXPECT_EQ(a.user_l1d_miss_rate, b.user_l1d_miss_rate);
    EXPECT_EQ(a.user_branch_miss_rate, b.user_branch_miss_rate);
    EXPECT_EQ(a.ssr_cpu_fraction, b.ssr_cpu_fraction);
    EXPECT_EQ(a.total_irqs, b.total_irqs);
    EXPECT_EQ(a.total_ipis, b.total_ipis);
    EXPECT_EQ(a.ssr_interrupts, b.ssr_interrupts);
    EXPECT_EQ(a.faults_resolved, b.faults_resolved);
    EXPECT_EQ(a.msis_raised, b.msis_raised);
    EXPECT_EQ(a.ssr_irqs_per_core, b.ssr_irqs_per_core);
}

/** The 2 CPU apps x 2 GPU apps x 2 seeds determinism grid. */
std::vector<ExperimentCell>
testGrid()
{
    std::vector<ExperimentCell> cells;
    for (const char *cpu : {"swaptions", "x264"})
        for (const char *gpu : {"ubench", "spmv"})
            for (std::uint64_t seed : {81u, 82u})
                cells.push_back({cpu, gpu, fastConfig(seed),
                                 MeasureMode::CpuPrimary, 1});
    return cells;
}

TEST(ExperimentBatch, ParallelMatchesSerialBitIdentically)
{
    const std::vector<ExperimentCell> cells = testGrid();
    const std::vector<RunResult> parallel =
        ExperimentBatch(4).run(cells);
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunResult serial = ExperimentRunner::run(
            cells[i].cpu_app, cells[i].gpu_app, cells[i].config,
            cells[i].mode);
        expectIdentical(parallel[i], serial);
    }
}

TEST(ExperimentBatch, JobCountDoesNotChangeResults)
{
    // A smaller slice of the grid, re-run at several job counts.
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(4);
    const std::vector<RunResult> one = ExperimentBatch(1).run(cells);
    const std::vector<RunResult> three =
        ExperimentBatch(3).run(cells);
    const std::vector<RunResult> many =
        ExperimentBatch(16).run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdentical(one[i], three[i]);
        expectIdentical(one[i], many[i]);
    }
}

/**
 * The reference for a cell: ExperimentRunner::run per seed, folded by
 * ExperimentRunner::average when the cell has more than one rep.
 */
RunResult
serialReference(const ExperimentCell &cell)
{
    std::vector<RunResult> runs;
    for (int r = 0; r < cell.reps; ++r) {
        ExperimentConfig config = cell.config;
        config.seed += static_cast<std::uint64_t>(r);
        runs.push_back(ExperimentRunner::run(cell.cpu_app, cell.gpu_app,
                                             config, cell.mode));
    }
    return cell.reps == 1 ? runs.front() : ExperimentRunner::average(runs);
}

TEST(ExperimentBatch, MixedRepsGridMatchesSerialAverage)
{
    // Distinct cells, so a result served at the wrong index shows.
    const std::vector<ExperimentCell> cells = {
        {"", "spmv", fastConfig(81), MeasureMode::GpuOnly, 3},
        {"swaptions", "ubench", fastConfig(81), MeasureMode::CpuPrimary,
         1},
        {"", "ubench", fastConfig(83), MeasureMode::GpuOnly, 3},
        {"", "spmv", fastConfig(84), MeasureMode::GpuOnly, 1},
    };
    std::vector<RunResult> reference;
    for (const ExperimentCell &cell : cells)
        reference.push_back(serialReference(cell));
    for (const int jobs : {1, 3, 16}) {
        SCOPED_TRACE(jobs);
        const std::vector<RunResult> results =
            ExperimentBatch(jobs).run(cells);
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            expectIdentical(results[i], reference[i]);
    }
}

/**
 * A 3-rep ubench cell whose second rep (seed 86) runs out of
 * simulated DRAM: of ubench's 2 ms windows at seeds 85, 86 and 87,
 * only seed 86 faults in more pages than @p small holds.
 */
ExperimentCell
secondRepFailingCell(SystemConfig &small)
{
    small.kernel.dram_frames = 780;
    ExperimentConfig config = fastConfig(85);
    config.rate_window = msToTicks(2);
    config.base_system = &small;
    return {"", "ubench", config, MeasureMode::GpuOnly, 3};
}

TEST(ExperimentBatch, FailingRepReportsItsErrorAndCellRepro)
{
    SystemConfig small;
    const ExperimentCell failing = secondRepFailingCell(small);
    const ExperimentConfig &config = failing.config;

    std::string rep1_error;
    for (int r = 0; r < 3; ++r) {
        ExperimentConfig c = config;
        c.seed += static_cast<std::uint64_t>(r);
        if (r == 1) {
            try {
                ExperimentRunner::run("", "ubench", c,
                                      MeasureMode::GpuOnly);
            } catch (const FatalError &e) {
                rep1_error = e.what();
            }
        } else {
            ASSERT_NO_THROW(ExperimentRunner::run(
                "", "ubench", c, MeasureMode::GpuOnly))
                << "rep " << r;
        }
    }
    ASSERT_NE(rep1_error.find("out of simulated physical memory"),
              std::string::npos)
        << rep1_error;

    const std::vector<ExperimentCell> cells = {
        {"", "spmv", fastConfig(81), MeasureMode::GpuOnly, 1}, failing};
    for (const int jobs : {1, 3, 16}) {
        SCOPED_TRACE(jobs);
        const std::vector<CellOutcome> outcomes =
            ExperimentBatch(jobs).runCatching(cells);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_TRUE(outcomes[0].ok);
        expectIdentical(outcomes[0].result, serialReference(cells[0]));
        EXPECT_FALSE(outcomes[1].ok);
        EXPECT_EQ(outcomes[1].error, rep1_error);
        EXPECT_EQ(outcomes[1].repro, cellRepro(failing));
        EXPECT_GT(outcomes[1].wall_ms, 0.0);
    }
    EXPECT_THROW(ExperimentBatch(3).run(cells), FatalError);
}

TEST(ExperimentBatch, NonPositiveRepsFailTheCell)
{
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(3);
    cells[1].reps = 0;
    cells[2].reps = -2;
    EXPECT_THROW(ExperimentBatch(1).run(cells), FatalError);
    EXPECT_THROW(ExperimentBatch(4).run(cells), FatalError);

    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching(cells);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_NE(outcomes[i].error.find("reps must be positive"),
                  std::string::npos)
            << outcomes[i].error;
        EXPECT_EQ(outcomes[i].repro, cellRepro(cells[i]));
    }
}

TEST(ExperimentBatch, DefaultJobsUsesHardwareConcurrency)
{
    EXPECT_GE(ExperimentBatch(0).jobs(), 1);
    EXPECT_GE(ExperimentBatch(-3).jobs(), 1);
    EXPECT_EQ(ExperimentBatch(7).jobs(), 7);
}

TEST(ExperimentBatch, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(ExperimentBatch(4).run({}).empty());
}

TEST(ExperimentBatch, WorkerExceptionsPropagate)
{
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(2);
    cells[1].cpu_app = "not-a-benchmark";
    EXPECT_THROW(ExperimentBatch(2).run(cells), FatalError);
    EXPECT_THROW(ExperimentBatch(1).run(cells), FatalError);
}

TEST(ExperimentBatch, RunCatchingCapturesPerCellOutcomes)
{
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(3);
    cells[1].cpu_app = "not-a-benchmark";
    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching(cells);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("not-a-benchmark"),
              std::string::npos)
        << outcomes[1].error;
    // Every failure carries a seed + config repro line, and every
    // outcome a host wall-clock duration (campaign containment).
    EXPECT_NE(outcomes[1].repro.find("seed=82"), std::string::npos)
        << outcomes[1].repro;
    EXPECT_NE(outcomes[1].repro.find("not-a-benchmark"),
              std::string::npos)
        << outcomes[1].repro;
    EXPECT_TRUE(outcomes[0].repro.empty());
    EXPECT_GT(outcomes[0].wall_ms, 0.0);
    EXPECT_TRUE(outcomes[2].ok);
    // Successful outcomes match the serial runner bit-identically.
    expectIdentical(outcomes[0].result,
                    ExperimentRunner::run(cells[0].cpu_app,
                                          cells[0].gpu_app,
                                          cells[0].config,
                                          cells[0].mode));
}

TEST(ExperimentBatch, CancelHeavyQosGridIsBitIdenticalAcrossJobs)
{
    // The event-queue cancel storm: adaptive coalescing re-arms the
    // coalesce timer on every PPR burst, QoS backoff churns governor
    // events, and extra accelerators multiply the streams. Results
    // must stay bit-identical at any job count, with the invariant
    // layer armed throughout.
    SystemConfig base;
    base.iommu.adaptive_coalescing = true;
    std::vector<ExperimentCell> cells;
    for (const std::uint64_t seed : {91u, 92u, 93u}) {
        ExperimentConfig config = fastConfig(seed);
        config.mitigation.interrupt_coalescing = true;
        config.mitigation.coalesce_window = usToTicks(9);
        config.qos_threshold = 0.05;
        config.extra_accelerators = 2;
        config.check_invariants = true;
        config.base_system = &base;
        cells.push_back({"swaptions", "ubench", config,
                         MeasureMode::CpuPrimary, 1});
    }
    const std::vector<RunResult> one = ExperimentBatch(1).run(cells);
    const std::vector<RunResult> four = ExperimentBatch(4).run(cells);
    const std::vector<RunResult> sixteen =
        ExperimentBatch(16).run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdentical(one[i], four[i]);
        expectIdentical(one[i], sixteen[i]);
    }
}

/**
 * The streaming engine settles every cell exactly once, serialized,
 * with the outcome runCatching collects (every field but the host
 * wall time), whatever the job count: mixed reps, a failing rep and
 * non-positive reps.
 */
TEST(ExperimentBatch, StreamSettlesEachCellOnceWithRunCatchingsOutcome)
{
    SystemConfig small;
    std::vector<ExperimentCell> cells = {
        {"", "spmv", fastConfig(81), MeasureMode::GpuOnly, 3},
        secondRepFailingCell(small),
        {"swaptions", "ubench", fastConfig(81), MeasureMode::CpuPrimary,
         1},
        {"", "ubench", fastConfig(83), MeasureMode::GpuOnly, 0},
        {"", "spmv", fastConfig(84), MeasureMode::GpuOnly, 2},
    };
    const std::vector<CellOutcome> reference =
        ExperimentBatch(1).runCatching(cells);
    ASSERT_EQ(reference.size(), cells.size());
    EXPECT_TRUE(reference[0].ok);
    EXPECT_FALSE(reference[1].ok);
    EXPECT_FALSE(reference[3].ok);
    expectIdentical(reference[0].result, serialReference(cells[0]));
    expectIdentical(reference[4].result, serialReference(cells[4]));

    for (const int jobs : {1, 2, 4}) {
        SCOPED_TRACE(jobs);
        std::vector<int> settles(cells.size(), 0);
        std::vector<CellOutcome> streamed(cells.size());
        int inside = 0; // Unguarded on purpose: settles are serialized.
        ExperimentBatch(jobs).stream(
            cells, [&](std::size_t i, CellOutcome &outcome) {
                EXPECT_EQ(inside++, 0);
                ASSERT_LT(i, cells.size());
                ++settles[i];
                streamed[i] = std::move(outcome);
                --inside;
            });
        const std::vector<CellOutcome> collected =
            ExperimentBatch(jobs).runCatching(cells);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(settles[i], 1);
            const CellOutcome *both[] = {&streamed[i], &collected[i]};
            for (const CellOutcome *o : both) {
                EXPECT_EQ(o->ok, reference[i].ok);
                EXPECT_EQ(o->error, reference[i].error);
                EXPECT_EQ(o->repro, reference[i].repro);
                expectIdentical(o->result, reference[i].result);
                // A cell that ran took host time; one that never ran
                // took none.
                EXPECT_EQ(o->wall_ms > 0.0, cells[i].reps > 0);
            }
        }
    }
}

/** A throwing settle callback reaches the caller, not std::terminate. */
TEST(ExperimentBatch, ThrowingSettleIsRethrownOnTheCaller)
{
    std::vector<ExperimentCell> cells;
    for (const std::uint64_t seed : {81u, 82u, 83u, 84u, 85u, 86u})
        cells.push_back({"", "ubench", fastConfig(seed),
                         MeasureMode::GpuOnly, 1});
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        int settles = 0;
        EXPECT_THROW(ExperimentBatch(jobs).stream(
                         cells,
                         [&](std::size_t, CellOutcome &) {
                             ++settles;
                             throw std::runtime_error("settle failed");
                         }),
                     std::runtime_error);
        // No cell settles after the first settle threw.
        EXPECT_EQ(settles, 1);
    }
}

} // namespace
} // namespace hiss
