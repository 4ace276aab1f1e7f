#include "core/experiment_batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/cell_key.h"
#include "sim/logging.h"

namespace hiss {
namespace {

/**
 * Per-worker task-index deque. The owner pops from the back; thieves
 * steal from the front, so a victim loses the tasks it would have
 * reached last. Tasks are coarse (whole simulations), so a mutex per
 * deque costs nothing measurable.
 */
class StealQueue
{
  public:
    void
    push(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        deque_.push_back(index);
    }

    bool
    popBack(std::size_t &index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (deque_.empty())
            return false;
        index = deque_.back();
        deque_.pop_back();
        return true;
    }

    bool
    stealFront(std::size_t &index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (deque_.empty())
            return false;
        index = deque_.front();
        deque_.pop_front();
        return true;
    }

  private:
    std::mutex mutex_;
    std::deque<std::size_t> deque_;
};

/** One simulation: repetition @c rep (seed + rep) of cell @c cell. */
struct Task
{
    std::size_t cell;
    int rep;
};

/**
 * Run one task, recording its result or failure. Every failure is
 * captured as the live exception_ptr (the cell's fold converts it to
 * a typed reason + repro line; run() rethrows it), and every
 * attempt — failed or not — records its host wall-clock cost.
 */
void
runTask(const ExperimentCell &cell, int rep, RunResult &result,
        std::exception_ptr &error, double &wall_ms)
{
    const auto start = std::chrono::steady_clock::now();
    try {
        ExperimentConfig config = cell.config;
        config.seed += static_cast<std::uint64_t>(rep);
        result = ExperimentRunner::run(cell.cpu_app, cell.gpu_app,
                                       config, cell.mode);
    } catch (...) {
        // Captured, not swallowed: the pointer carries the typed
        // failure to the cell's settle.
        error = std::current_exception();
    }
    wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
}

/**
 * Call @p body(t) for every t in [0, count) on min(jobs, count)
 * workers and return once every call has finished, or, once @p stop
 * is set, once the calls in progress have. Tasks are dealt
 * round-robin so every worker starts with a local run of the grid;
 * stealing rebalances when task runtimes diverge.
 */
template <typename Body>
void
forEachTask(std::size_t count, int jobs, const std::atomic<bool> &stop,
            const Body &body)
{
    const int workers = static_cast<int>(
        std::min<std::size_t>(count, static_cast<std::size_t>(jobs)));
    if (workers <= 1) {
        for (std::size_t t = 0; t < count && !stop; ++t)
            body(t);
        return;
    }

    std::vector<StealQueue> queues(workers);
    for (std::size_t t = 0; t < count; ++t)
        queues[t % workers].push(t);

    auto work = [&](int self) {
        std::size_t t = 0;
        while (!stop) {
            bool found = queues[self].popBack(t);
            for (int v = 1; !found && v < workers; ++v)
                found = queues[(self + v) % workers].stealFront(t);
            if (!found)
                return;
            body(t);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (std::thread &th : threads)
        th.join();
}

/**
 * The outcome of a failed cell: a reason that is never empty (a
 * non-std::exception throw gets a typed placeholder) and the cell's
 * seed + config repro line.
 */
CellOutcome
failedOutcome(const ExperimentCell &cell, const std::exception_ptr &error)
{
    CellOutcome outcome;
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        outcome.error = e.what();
    } catch (...) {
        outcome.error = "unknown error (non-std::exception throw)";
    }
    outcome.repro = cellRepro(cell);
    return outcome;
}

} // namespace

ExperimentBatch::ExperimentBatch(int jobs) : jobs_(jobs)
{
    if (jobs_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

void
ExperimentBatch::execute(const std::vector<ExperimentCell> &cells,
                         const SettleError &settle) const
{
    // Settle calls hold this lock. The first exception a fold or a
    // settle throws stops the pool, no cell settles after it, and the
    // caller gets it back once every worker has stopped.
    std::mutex settle_mutex;
    std::exception_ptr settle_error;
    std::atomic<bool> stop{false};
    auto settleCell = [&](std::size_t i, CellOutcome &outcome,
                          const std::exception_ptr &error) {
        const std::lock_guard<std::mutex> lock(settle_mutex);
        if (!settle_error)
            settle(i, outcome, error);
    };
    auto capture = [&](const std::exception_ptr &error) {
        const std::lock_guard<std::mutex> lock(settle_mutex);
        if (!settle_error)
            settle_error = error;
        stop = true;
    };

    // One task per (cell, rep), in submission then seed order. A cell
    // without a positive rep count fails here and runs nothing.
    std::vector<Task> tasks;
    std::vector<std::size_t> first_task(cells.size());
    for (std::size_t i = 0; i < cells.size() && !stop; ++i) {
        first_task[i] = tasks.size();
        if (cells[i].reps > 0) {
            for (int r = 0; r < cells[i].reps; ++r)
                tasks.push_back({i, r});
            continue;
        }
        try {
            const std::exception_ptr error =
                std::make_exception_ptr(FatalError(
                    "ExperimentBatch: reps must be positive, got "
                    + std::to_string(cells[i].reps)));
            CellOutcome outcome = failedOutcome(cells[i], error);
            settleCell(i, outcome, error);
        } catch (...) {
            capture(std::current_exception());
        }
    }
    std::vector<RunResult> runs(tasks.size());
    std::vector<std::exception_ptr> run_errors(tasks.size());
    std::vector<double> run_ms(tasks.size());
    // Reps still running per cell; whoever finishes the last one
    // folds the cell and settles it.
    std::vector<std::atomic<int>> reps_left(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        reps_left[i] = cells[i].reps;

    forEachTask(tasks.size(), jobs_, stop, [&](std::size_t t) {
        const std::size_t i = tasks[t].cell;
        runTask(cells[i], tasks[t].rep, runs[t], run_errors[t],
                run_ms[t]);
        if (reps_left[i].fetch_sub(1) != 1)
            return;

        // Fold the cell's reps in seed order: wall time adds up, the
        // first failing rep supplies the error, and a multi-rep cell
        // averages exactly as a serial seed loop would.
        const std::size_t first = first_task[i];
        const std::size_t end =
            first + static_cast<std::size_t>(cells[i].reps);
        double wall_ms = 0.0;
        std::exception_ptr error;
        for (std::size_t k = first; k < end; ++k) {
            wall_ms += run_ms[k];
            if (!error)
                error = run_errors[k];
        }
        try {
            CellOutcome outcome;
            if (error) {
                outcome = failedOutcome(cells[i], error);
            } else {
                outcome.ok = true;
                outcome.result = cells[i].reps == 1
                    ? std::move(runs[first])
                    : ExperimentRunner::average(std::vector<RunResult>(
                          std::make_move_iterator(runs.begin() + first),
                          std::make_move_iterator(runs.begin() + end)));
            }
            outcome.wall_ms = wall_ms;
            settleCell(i, outcome, error);
        } catch (...) {
            capture(std::current_exception());
        }
    });
    if (settle_error)
        std::rethrow_exception(settle_error);
}

void
ExperimentBatch::stream(const std::vector<ExperimentCell> &cells,
                        const Settle &settle) const
{
    execute(cells, [&](std::size_t i, CellOutcome &outcome,
                       const std::exception_ptr &) {
        settle(i, outcome);
    });
}

std::vector<RunResult>
ExperimentBatch::run(const std::vector<ExperimentCell> &cells) const
{
    std::vector<RunResult> results(cells.size());
    std::vector<std::exception_ptr> errors(cells.size());
    execute(cells, [&](std::size_t i, CellOutcome &outcome,
                       const std::exception_ptr &error) {
        errors[i] = error;
        results[i] = std::move(outcome.result);
    });
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

std::vector<CellOutcome>
ExperimentBatch::runCatching(const std::vector<ExperimentCell> &cells) const
{
    std::vector<CellOutcome> outcomes(cells.size());
    stream(cells, [&](std::size_t i, CellOutcome &outcome) {
        outcomes[i] = std::move(outcome);
    });
    return outcomes;
}

} // namespace hiss
