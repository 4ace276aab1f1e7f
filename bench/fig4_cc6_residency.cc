/**
 * @file
 * Fig. 4: CPU low-power (CC6) sleep-state residency with and without
 * GPU system service requests, while no CPU-only work runs.
 *
 * Paper headlines: SSRs always reduce sleep; bfs loses only ~14
 * points (clustered early faults), the other four applications lose
 * 23-30 points, and the microbenchmark collapses residency from
 * 86 % to 12 %.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

int
main(int argc, char **argv)
{
    using namespace hiss;
    const int reps = bench::repsFromArgs(argc, argv, 2);
    const int jobs = bench::jobsFromArgs(argc, argv);
    bench::banner(
        "Fig. 4: CC6 residency with and without GPU SSRs (idle CPUs)",
        "no_SSR ~86 %; bfs drops ~14 pts; bpt/spmv/sssp/xsbench drop "
        "23-30 pts; ubench 86 % -> 12 %");

    const auto &gpu_apps = gpu_suite::workloadNames();
    ExperimentConfig base = bench::defaultConfig();
    base.gpu_demand_paging = false;
    bench::CellBatch batch(jobs);
    std::vector<std::size_t> pinned; // [gpu]
    std::vector<std::size_t> paged;  // [gpu]
    for (const auto &gpu : gpu_apps) {
        pinned.push_back(
            batch.add("", gpu, base, MeasureMode::GpuOnly, reps));
        paged.push_back(batch.add("", gpu, bench::defaultConfig(),
                                  MeasureMode::GpuOnly, reps));
    }
    batch.run();

    std::printf("%-10s %12s %12s %10s\n", "gpu_app", "no_SSR(%)",
                "gpu_SSR(%)", "drop(pts)");
    for (std::size_t g = 0; g < gpu_apps.size(); ++g) {
        const RunResult &no_ssr = batch[pinned[g]];
        const RunResult &ssr = batch[paged[g]];
        std::printf("%-10s %12.1f %12.1f %10.1f\n", gpu_apps[g].c_str(),
                    no_ssr.cc6_fraction * 100.0,
                    ssr.cc6_fraction * 100.0,
                    (no_ssr.cc6_fraction - ssr.cc6_fraction) * 100.0);
    }
    return 0;
}
