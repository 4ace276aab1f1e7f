/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.
 *
 * Each bench binary regenerates one table or figure from the paper:
 * it declares the relevant workload pairs as one CellBatch grid, runs
 * it on --jobs workers, and prints the same rows/series the paper
 * reports, normalized the same way. Absolute numbers differ from the paper's hardware testbed;
 * the shapes are the reproduction target (see EXPERIMENTS.md).
 */

#ifndef HISS_BENCH_HARNESS_H_
#define HISS_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/hiss.h"

namespace hiss {
namespace bench {

/** Parse "--reps N" / a bare integer from argv (default @p fallback). */
inline int
repsFromArgs(int argc, char **argv, int fallback)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--reps" && i + 1 < argc)
            return std::atoi(argv[i + 1]);
        if (!arg.empty() && arg[0] != '-')
            return std::atoi(arg.c_str());
    }
    return fallback;
}

/** True if "--full" was passed (complete sweeps instead of subsets). */
inline bool
fullSweep(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--full")
            return true;
    return false;
}

/** Print the standard figure banner. */
inline void
banner(const char *figure, const char *claim)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s\n", figure);
    std::printf("Paper reference: %s\n", claim);
    std::printf("================================================="
                "=============\n\n");
}

/** Progress note on stderr (kept off stdout so tables stay clean). */
inline void
progress(const std::string &what)
{
    std::fprintf(stderr, "  [bench] %s\n", what.c_str());
}

/**
 * Parse "--jobs N" from argv. Defaults to all hardware threads
 * (0 = let ExperimentBatch pick); results are bit-identical at any
 * job count, so parallel execution is always safe.
 */
inline int
jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--jobs" && i + 1 < argc)
            return std::atoi(argv[i + 1]);
    return 0;
}

/** Default experiment config shared by the harnesses. */
inline ExperimentConfig
defaultConfig(std::uint64_t seed = 1)
{
    ExperimentConfig config;
    config.seed = seed;
    return config;
}

/**
 * Collects experiment cells, runs them as one parallel batch, and
 * serves the results by the index add() returned. The whole grid is
 * submitted before anything runs, so the work-stealing pool sees the
 * full width of the figure's grid at once.
 */
class CellBatch
{
  public:
    explicit CellBatch(int jobs = 0) : jobs_(jobs) {}

    /** Queue one cell; @return its result index. */
    std::size_t
    add(const std::string &cpu_app, const std::string &gpu_app,
        const ExperimentConfig &config, MeasureMode mode, int reps = 1)
    {
        cells_.push_back({cpu_app, gpu_app, config, mode, reps});
        return cells_.size() - 1;
    }

    /** Run all queued cells (noting progress on stderr). */
    void
    run()
    {
        const ExperimentBatch batch(jobs_);
        progress("running " + std::to_string(cells_.size())
                 + " experiment cells on "
                 + std::to_string(batch.jobs()) + " jobs");
        results_ = batch.run(cells_);
    }

    /** Result of the cell whose add() returned @p index. */
    const RunResult &
    operator[](std::size_t index) const
    {
        return results_.at(index);
    }

  private:
    int jobs_;
    std::vector<ExperimentCell> cells_;
    std::vector<RunResult> results_;
};

} // namespace bench
} // namespace hiss

#endif // HISS_BENCH_HARNESS_H_
