/**
 * @file
 * Fig. 5: microarchitectural effects of GPU SSRs on user-level CPU
 * execution — the increase in (a) L1D miss rate and (b) branch
 * misprediction rate of each PARSEC application while the
 * microbenchmark generates SSRs.
 *
 * Paper: L1D miss-rate increases reach ~50 %; branch misprediction
 * increases reach ~25-30 %. Both are relative increases over the
 * same pair without SSRs, and arise from SSR handlers polluting the
 * shared structures (Fig. 2's indirect overhead 'b').
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
        "Fig. 5: user-level L1D miss and branch mispredict increases "
        "from ubench SSRs",
        "(a) L1D miss-rate increase up to ~50 %; (b) branch "
        "misprediction increase up to ~30 %");

    const auto &cpu_apps = parsec::benchmarkNames();
    ExperimentConfig base = bench::defaultConfig();
    base.gpu_demand_paging = false;
    bench::CellBatch batch(jobs);
    std::vector<std::size_t> pinned; // [cpu]
    std::vector<std::size_t> paged;  // [cpu]
    for (const auto &cpu : cpu_apps) {
        pinned.push_back(batch.add(cpu, "ubench", base,
                                   MeasureMode::CpuPrimary, reps));
        paged.push_back(batch.add(cpu, "ubench", bench::defaultConfig(),
                                  MeasureMode::CpuPrimary, reps));
    }
    batch.run();

    std::printf("%-14s %12s %12s %14s %12s %12s %14s\n", "cpu_app",
                "L1D_base", "L1D_ssr", "L1D_incr(%)", "bp_base",
                "bp_ssr", "bp_incr(%)");
    for (std::size_t c = 0; c < cpu_apps.size(); ++c) {
        const RunResult &clean = batch[pinned[c]];
        const RunResult &ssr = batch[paged[c]];
        const double l1d_incr = clean.user_l1d_miss_rate > 0
            ? (ssr.user_l1d_miss_rate / clean.user_l1d_miss_rate - 1.0)
                * 100.0
            : 0.0;
        const double bp_incr = clean.user_branch_miss_rate > 0
            ? (ssr.user_branch_miss_rate / clean.user_branch_miss_rate
               - 1.0) * 100.0
            : 0.0;
        std::printf("%-14s %12.4f %12.4f %14.1f %12.4f %12.4f %14.1f\n",
                    cpu_apps[c].c_str(), clean.user_l1d_miss_rate,
                    ssr.user_l1d_miss_rate, l1d_incr,
                    clean.user_branch_miss_rate,
                    ssr.user_branch_miss_rate, bp_incr);
    }
    return 0;
}
