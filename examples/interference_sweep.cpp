/**
 * @file
 * Interference sweep: every CPU application against every GPU
 * workload, printing normalized CPU performance (the paper's
 * Fig. 3a view) plus the SSR CPU-time fraction — a quick map of
 * which pairings suffer most.
 *
 * Usage: interference_sweep [reps]   (default 1 repetition)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/hiss.h"

int
main(int argc, char **argv)
{
    using namespace hiss;

    const int reps = argc > 1 ? std::atoi(argv[1]) : 1;
    const auto &cpu_apps = parsec::benchmarkNames();
    const auto &gpu_apps = gpu_suite::workloadNames();

    std::vector<std::string> headers = {"cpu_app"};
    for (const std::string &gpu : gpu_apps)
        headers.push_back(gpu);
    TablePrinter perf_table(headers);
    TablePrinter ssr_table(headers);

    // Per CPU app: the baseline (same pairing, GPU uses pinned memory,
    // no SSRs), then every GPU app. One batch runs the whole grid.
    ExperimentConfig config;
    ExperimentConfig base_config = config;
    base_config.gpu_demand_paging = false;
    std::vector<ExperimentCell> cells;
    for (const std::string &cpu : cpu_apps) {
        cells.push_back(
            {cpu, "ubench", base_config, MeasureMode::CpuPrimary, reps});
        for (const std::string &gpu : gpu_apps)
            cells.push_back(
                {cpu, gpu, config, MeasureMode::CpuPrimary, reps});
    }
    const std::vector<RunResult> results = ExperimentBatch().run(cells);

    const std::size_t stride = 1 + gpu_apps.size();
    for (std::size_t c = 0; c < cpu_apps.size(); ++c) {
        const RunResult &base = results[c * stride];
        std::vector<double> perf_row;
        std::vector<double> ssr_row;
        for (std::size_t g = 0; g < gpu_apps.size(); ++g) {
            const RunResult &r = results[c * stride + 1 + g];
            perf_row.push_back(
                normalizedPerf(base.cpu_runtime_ms, r.cpu_runtime_ms));
            ssr_row.push_back(r.ssr_cpu_fraction);
        }
        perf_table.addRow(cpu_apps[c], perf_row);
        ssr_table.addRow(cpu_apps[c], ssr_row);
    }

    std::printf("Normalized CPU performance under GPU SSRs "
                "(1.0 = no interference):\n\n");
    perf_table.print(std::cout);
    std::printf("\nFraction of CPU time consumed by SSR handling:\n\n");
    ssr_table.print(std::cout);
    return 0;
}
