/**
 * @file
 * Parallel experiment engine.
 *
 * Every figure in the paper is a CPU-app x GPU-app x mitigation x
 * seed grid of independent single-threaded simulations — an
 * embarrassingly parallel shape a serial loop over ExperimentRunner
 * leaves on the table. ExperimentBatch streams a vector of experiment
 * cells through one work-stealing thread pool: the moment a cell's
 * last task finishes, its folded outcome is settled (handed to the
 * caller), while the other workers keep running the rest of the
 * grid. run() and runCatching() collect the settled cells back into
 * submission order. It is the one place repetitions fan out: a cell
 * with reps = N becomes N independent tasks (seeds seed .. seed+N-1)
 * that fold back through ExperimentRunner::average in seed order.
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

#include <cstddef>
#include <exception>
#include <functional>
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

    /**
     * Repetitions with seeds seed, seed+1, ...; > 1 averages them
     * through ExperimentRunner::average. Must be positive.
     */
    int reps = 1;
};

/** What became of one cell in ExperimentBatch::stream/runCatching. */
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
     * Host wall-clock time this cell's runs took, successful or not,
     * summed over its reps. Diagnostic only (per-cell containment
     * budgets in src/campaign); never folded into simulation results.
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
     * Receives one settled cell: its index in the submitted vector
     * and its folded outcome, which the callee may move from.
     */
    using Settle =
        std::function<void(std::size_t cell, CellOutcome &outcome)>;

    /**
     * Run every cell, handing each to @p settle the moment its last
     * rep finishes. Each (cell, rep) pair is one task; tasks execute
     * on min(jobs, tasks) workers with work stealing, and no worker
     * waits for another cell to finish before taking the next task.
     * Each cell is settled exactly once, in completion order (a cell
     * with reps <= 0 fails with a FatalError reason and is settled
     * before any task runs). Settle calls are serialized, so the
     * callback needs no locking of its own, but they run on worker
     * threads. If @p settle throws, no further task starts and no
     * further cell is settled, and the first such exception is
     * rethrown on the caller once every worker has stopped.
     */
    void stream(const std::vector<ExperimentCell> &cells,
                const Settle &settle) const;

    /**
     * Run every cell and return results in submission order. If any
     * cell fails — a rep throws, or reps <= 0 (FatalError) — the
     * original exception of the first failure in submission order,
     * and within a cell in seed order, is rethrown after all workers
     * finish.
     */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells) const;

    /**
     * Like run(), but failures never propagate: every cell runs to
     * an outcome, and failing cells carry the error text instead of
     * a result. Built for hiss_fuzz, which must keep fuzzing after a
     * seed fails and attribute each failure to its cell. A cell's
     * error is its first failing rep's, and its repro is the cell's.
     */
    std::vector<CellOutcome>
    runCatching(const std::vector<ExperimentCell> &cells) const;

  private:
    /** What the engine settles: the outcome plus, on failure, the
     *  live exception run() rethrows. */
    using SettleError = std::function<void(
        std::size_t cell, CellOutcome &outcome,
        const std::exception_ptr &error)>;

    /** The one streaming engine behind stream, run and runCatching. */
    void execute(const std::vector<ExperimentCell> &cells,
                 const SettleError &settle) const;

    int jobs_;
};

} // namespace hiss

#endif // HISS_CORE_EXPERIMENT_BATCH_H_
