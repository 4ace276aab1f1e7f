/**
 * @file
 * Parallel experiment engine.
 *
 * Every figure in the paper is a CPU-app x GPU-app x mitigation x
 * seed grid of independent single-threaded simulations — an
 * embarrassingly parallel shape the serial ExperimentRunner loops
 * leave on the table. ExperimentBatch runs a vector of experiment
 * cells on a work-stealing thread pool and returns results in
 * submission order.
 *
 * Determinism contract: each cell's simulation state (event queue,
 * stats, RNG streams) lives inside its own HeteroSystem, and every
 * RNG stream is derived from the cell's seed, so a parallel batch is
 * bit-identical to running the same cells serially in submission
 * order — regardless of the job count or which worker picks up which
 * cell. The only process-global state the simulator touches is the
 * logging configuration, which is thread-safe and read-only during a
 * run (see sim/logging.cc).
 */

#ifndef HISS_CORE_EXPERIMENT_BATCH_H_
#define HISS_CORE_EXPERIMENT_BATCH_H_

#include <exception>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace hiss {

/** One grid cell: the arguments of an ExperimentRunner call. */
struct ExperimentCell
{
    std::string cpu_app;
    std::string gpu_app;
    ExperimentConfig config;
    MeasureMode mode = MeasureMode::CpuPrimary;

    /** > 1 averages over seeds like ExperimentRunner::runAveraged. */
    int reps = 1;
};

/** What became of one cell in ExperimentBatch::runCatching. */
struct CellOutcome
{
    /** True when the cell completed; result is then valid. */
    bool ok = false;
    RunResult result;
    /**
     * The failure reason when !ok: the exception's what(), or a
     * typed placeholder for non-std::exception throws. Never empty
     * on failure — every failure path records a reason.
     */
    std::string error;
    /**
     * Seed + config repro line for the failing cell (cellRepro),
     * filled on every failure path so a campaign ledger or fuzz
     * report can name the exact rerun without the cell vector.
     */
    std::string repro;
    /**
     * Host wall-clock time this cell's run took, successful or not.
     * Diagnostic only (per-cell containment budgets in src/campaign);
     * never folded into simulation results.
     */
    double wall_ms = 0.0;
};

/** Runs experiment cells across worker threads. */
class ExperimentBatch
{
  public:
    /**
     * @param jobs worker threads; <= 0 selects the hardware
     *             concurrency. 1 runs cells inline on the caller.
     */
    explicit ExperimentBatch(int jobs = 0);

    /** Effective worker count. */
    int jobs() const { return jobs_; }

    /**
     * Run every cell and return results in submission order. Cells
     * execute on min(jobs, cells.size()) workers with work stealing,
     * so stragglers (long CPU apps) do not serialize the tail. If any
     * cell throws, the first failure in submission order is rethrown
     * after all workers finish.
     */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells) const;

    /**
     * Like run(), but failures never propagate: every cell runs to
     * an outcome, and failing cells carry the error text instead of
     * a result. Built for hiss_fuzz, which must keep fuzzing after a
     * seed fails and attribute each failure to its cell.
     */
    std::vector<CellOutcome>
    runCatching(const std::vector<ExperimentCell> &cells) const;

    /**
     * Parallel ExperimentRunner::runAveraged: the @p reps repetitions
     * (seeds seed, seed+1, ...) run as independent cells across the
     * pool, then fold through ExperimentRunner::average in seed
     * order — bit-identical to the serial call.
     */
    RunResult runAveraged(const std::string &cpu_app,
                          const std::string &gpu_app,
                          const ExperimentConfig &config,
                          MeasureMode mode, int reps = 3) const;

  private:
    /**
     * The shared engine: run every cell, capturing each failure in
     * @p errors at the failing cell's index and each cell's host
     * wall-clock duration (ms) in @p wall_ms.
     */
    void execute(const std::vector<ExperimentCell> &cells,
                 std::vector<RunResult> &results,
                 std::vector<std::exception_ptr> &errors,
                 std::vector<double> &wall_ms) const;

    int jobs_;
};

} // namespace hiss

#endif // HISS_CORE_EXPERIMENT_BATCH_H_
