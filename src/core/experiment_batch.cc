#include "core/experiment_batch.h"

#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/cell_key.h"
#include "sim/logging.h"

namespace hiss {
namespace {

RunResult
runCell(const ExperimentCell &cell)
{
    if (cell.reps <= 1)
        return ExperimentRunner::run(cell.cpu_app, cell.gpu_app,
                                     cell.config, cell.mode);
    return ExperimentRunner::runAveraged(cell.cpu_app, cell.gpu_app,
                                         cell.config, cell.mode,
                                         cell.reps);
}

/**
 * Per-worker cell-index deque. The owner pops from the back; thieves
 * steal from the front, so a victim loses the cells it would have
 * reached last. Cells are coarse (whole simulations), so a mutex per
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

/**
 * Run one cell, recording its result or failure at @p index. Every
 * failure is captured as the live exception_ptr (runCatching later
 * converts it to a typed reason + repro line; run() rethrows it), and
 * every attempt — failed or not — records its host wall-clock cost.
 */
void
runOne(const std::vector<ExperimentCell> &cells, std::size_t index,
       std::vector<RunResult> &results,
       std::vector<std::exception_ptr> &errors,
       std::vector<double> &wall_ms)
{
    const auto start = std::chrono::steady_clock::now();
    try {
        results[index] = runCell(cells[index]);
    } catch (...) {
        // Captured, not swallowed: the pointer carries the typed
        // failure to run()/runCatching.
        errors[index] = std::current_exception();
    }
    wall_ms[index] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
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
    const int workers = static_cast<int>(
        std::min<std::size_t>(cells.size(),
                              static_cast<std::size_t>(jobs_)));
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            runOne(cells, i, results, errors, wall_ms);
        return;
    }

    // Deal cells round-robin so every worker starts with a local run
    // of the grid; stealing rebalances when cell runtimes diverge.
    std::vector<StealQueue> queues(workers);
    for (std::size_t i = 0; i < cells.size(); ++i)
        queues[i % workers].push(i);

    auto work = [&](int self) {
        std::size_t index;
        for (;;) {
            bool found = queues[self].popBack(index);
            for (int v = 1; !found && v < workers; ++v)
                found = queues[(self + v) % workers].stealFront(index);
            if (!found)
                return;
            runOne(cells, index, results, errors, wall_ms);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (std::thread &t : threads)
        t.join();
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

RunResult
ExperimentBatch::runAveraged(const std::string &cpu_app,
                             const std::string &gpu_app,
                             const ExperimentConfig &config,
                             MeasureMode mode, int reps) const
{
    if (reps <= 0)
        fatal("ExperimentBatch: reps must be positive");
    std::vector<ExperimentCell> cells(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        cells[i] = {cpu_app, gpu_app, config, mode, 1};
        cells[i].config.seed =
            config.seed + static_cast<std::uint64_t>(i);
    }
    return ExperimentRunner::average(run(cells));
}

} // namespace hiss
