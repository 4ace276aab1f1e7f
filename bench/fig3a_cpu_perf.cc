/**
 * @file
 * Fig. 3a: normalized performance of CPU-only applications (PARSEC)
 * under SSRs (page faults) from concurrently running GPU workloads.
 *
 * Each cell: CPU app runtime with the GPU app generating SSRs,
 * normalized to the same pair with the GPU using pinned memory (no
 * SSRs). Bars below 1 are SSR-induced slowdown. Paper headlines:
 * up to -31 % from a real GPU app (fluidanimate+sssp), -44 % from
 * the microbenchmark (x264+ubench); means -12 % / -28 %.
 */

#include <iostream>
#include <vector>

#include "bench/harness.h"

int
main(int argc, char **argv)
{
    using namespace hiss;
    const int reps = bench::repsFromArgs(argc, argv, 2);
    const int jobs = bench::jobsFromArgs(argc, argv);
    bench::banner(
        "Fig. 3a: CPU application performance under GPU SSRs",
        "Normalized perf (1/runtime) vs the same pair without SSRs; "
        "worst 0.56 (x264+ubench), sssp col min 0.69, means 0.88/0.72");

    const auto &cpu_apps = parsec::benchmarkNames();
    const auto &gpu_apps = gpu_suite::workloadNames();
    std::vector<std::string> headers = {"cpu_app"};
    for (const auto &gpu : gpu_apps)
        headers.push_back(gpu);
    TablePrinter table(headers);

    // Baseline: the GPU runs with pinned memory -> no SSRs. The GPU
    // app identity is irrelevant without SSRs; use ubench.
    ExperimentConfig base_config = bench::defaultConfig();
    base_config.gpu_demand_paging = false;

    bench::CellBatch batch(jobs);
    std::vector<std::size_t> baseline;         // [cpu]
    std::vector<std::vector<std::size_t>> ssr; // [cpu][gpu]
    for (const auto &cpu : cpu_apps) {
        baseline.push_back(batch.add(cpu, "ubench", base_config,
                                     MeasureMode::CpuPrimary, reps));
        ssr.emplace_back();
        for (const auto &gpu : gpu_apps)
            ssr.back().push_back(batch.add(cpu, gpu,
                                           bench::defaultConfig(),
                                           MeasureMode::CpuPrimary,
                                           reps));
    }
    batch.run();

    std::vector<std::vector<double>> columns(gpu_apps.size());
    for (std::size_t c = 0; c < cpu_apps.size(); ++c) {
        std::vector<double> row;
        for (std::size_t g = 0; g < gpu_apps.size(); ++g) {
            const double perf =
                normalizedPerf(batch[baseline[c]].cpu_runtime_ms,
                               batch[ssr[c][g]].cpu_runtime_ms);
            row.push_back(perf);
            columns[g].push_back(perf);
        }
        table.addRow(cpu_apps[c], row);
    }

    std::vector<double> gmeans;
    for (const auto &column : columns)
        gmeans.push_back(geomean(column));
    table.addRow("gmean", gmeans);

    table.print(std::cout);

    double worst = 1.0;
    for (const auto &column : columns)
        for (const double v : column)
            worst = std::min(worst, v);
    std::printf("\nWorst cell: %.3f (paper: 0.56). "
                "ubench column gmean: %.3f (paper ~0.72).\n",
                worst, gmeans.back());
    return 0;
}
