#include "core/experiment_batch.h"

#include <algorithm>
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
 * captured as the live exception_ptr (runCatching later converts it
 * to a typed reason + repro line; run() rethrows it), and every
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
        // failure to run()/runCatching.
        error = std::current_exception();
    }
    wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
}

/**
 * Call @p body(t) for every t in [0, count) on min(jobs, count)
 * workers and return once every call has finished. Tasks are dealt
 * round-robin so every worker starts with a local run of the grid;
 * stealing rebalances when task runtimes diverge.
 */
template <typename Body>
void
forEachTask(std::size_t count, int jobs, const Body &body)
{
    const int workers = static_cast<int>(
        std::min<std::size_t>(count, static_cast<std::size_t>(jobs)));
    if (workers <= 1) {
        for (std::size_t t = 0; t < count; ++t)
            body(t);
        return;
    }

    std::vector<StealQueue> queues(workers);
    for (std::size_t t = 0; t < count; ++t)
        queues[t % workers].push(t);

    auto work = [&](int self) {
        std::size_t t = 0;
        for (;;) {
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
                         std::vector<RunResult> &results,
                         std::vector<std::exception_ptr> &errors,
                         std::vector<double> &wall_ms) const
{
    // One task per (cell, rep), in submission then seed order. A cell
    // without a positive rep count fails here and runs nothing.
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].reps <= 0) {
            errors[i] = std::make_exception_ptr(FatalError(
                "ExperimentBatch: reps must be positive, got "
                + std::to_string(cells[i].reps)));
            continue;
        }
        for (int r = 0; r < cells[i].reps; ++r)
            tasks.push_back({i, r});
    }
    std::vector<RunResult> runs(tasks.size());
    std::vector<std::exception_ptr> run_errors(tasks.size());
    std::vector<double> run_ms(tasks.size());
    forEachTask(tasks.size(), jobs_, [&](std::size_t t) {
        runTask(cells[tasks[t].cell], tasks[t].rep, runs[t],
                run_errors[t], run_ms[t]);
    });

    // Fold each cell's reps in seed order: wall time adds up, the
    // first failing rep supplies the error, and a multi-rep cell
    // averages exactly as a serial seed loop would.
    std::size_t first = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].reps <= 0)
            continue;
        const std::size_t end =
            first + static_cast<std::size_t>(cells[i].reps);
        for (std::size_t t = first; t < end; ++t) {
            wall_ms[i] += run_ms[t];
            if (!errors[i])
                errors[i] = run_errors[t];
        }
        if (!errors[i])
            results[i] = cells[i].reps == 1
                ? std::move(runs[first])
                : ExperimentRunner::average(std::vector<RunResult>(
                      std::make_move_iterator(runs.begin() + first),
                      std::make_move_iterator(runs.begin() + end)));
        first = end;
    }
}

std::vector<RunResult>
ExperimentBatch::run(const std::vector<ExperimentCell> &cells) const
{
    std::vector<RunResult> results(cells.size());
    if (cells.empty())
        return results;
    std::vector<std::exception_ptr> errors(cells.size());
    std::vector<double> wall_ms(cells.size());
    execute(cells, results, errors, wall_ms);
    for (std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
    return results;
}

std::vector<CellOutcome>
ExperimentBatch::runCatching(const std::vector<ExperimentCell> &cells) const
{
    std::vector<CellOutcome> outcomes(cells.size());
    if (cells.empty())
        return outcomes;
    std::vector<RunResult> results(cells.size());
    std::vector<std::exception_ptr> errors(cells.size());
    std::vector<double> wall_ms(cells.size());
    execute(cells, results, errors, wall_ms);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        outcomes[i].wall_ms = wall_ms[i];
        if (errors[i]) {
            // Both arms record a reason and the seed+config repro
            // line; a non-std::exception throw gets a typed
            // placeholder instead of an empty string.
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::exception &e) {
                outcomes[i].error = e.what();
            } catch (...) {
                outcomes[i].error =
                    "unknown error (non-std::exception throw)";
            }
            outcomes[i].repro = cellRepro(cells[i]);
        } else {
            outcomes[i].ok = true;
            outcomes[i].result = std::move(results[i]);
        }
    }
    return outcomes;
}

} // namespace hiss
