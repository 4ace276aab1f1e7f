/**
 * @file
 * Fig. 12: the backpressure-based QoS governor (Section VI).
 *
 * (a) CPU application performance while ubench generates SSRs, under
 *     the default (no QoS) and throttling thresholds th_25 / th_5 /
 *     th_1 (cap SSR CPU time at 25 % / 5 % / 1 %). Each bar is
 *     normalized to the app running with ubench generating no SSRs.
 *     Paper: th_1 cuts the mean CPU loss from 28 % to under 4 %.
 * (b) ubench throughput (SSR rate vs idle CPUs, unthrottled) at the
 *     same settings. Paper: th_1 leaves the accelerator at ~5 % of
 *     its unhindered throughput.
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
        "Fig. 12: CPU QoS via SSR backpressure (default/th_25/th_5/"
        "th_1)",
        "th_1: mean CPU loss < 4 % (from 28 %); ubench throughput "
        "drops to ~5 % of unhindered");

    const std::vector<std::pair<std::string, double>> settings = {
        {"default", 0.0},
        {"th_25", 0.25},
        {"th_5", 0.05},
        {"th_1", 0.01},
    };

    const auto &cpu_apps = parsec::benchmarkNames();
    ExperimentConfig base = bench::defaultConfig();
    base.gpu_demand_paging = false;

    // The idle-CPU unthrottled ubench rate, then per CPU app its
    // no-SSR baseline and a CPU- and a GPU-measured cell per setting.
    bench::CellBatch batch(jobs);
    const std::size_t idle = batch.add("", "ubench",
                                       bench::defaultConfig(),
                                       MeasureMode::GpuOnly, reps);
    std::vector<std::size_t> baseline;                // [cpu]
    std::vector<std::vector<std::size_t>> cpu_cells;  // [cpu][setting]
    std::vector<std::vector<std::size_t>> gpu_cells;  // [cpu][setting]
    for (const auto &cpu : cpu_apps) {
        baseline.push_back(batch.add(cpu, "ubench", base,
                                     MeasureMode::CpuPrimary, reps));
        cpu_cells.emplace_back();
        gpu_cells.emplace_back();
        for (const auto &[label, threshold] : settings) {
            ExperimentConfig config = bench::defaultConfig();
            config.qos_threshold = threshold;
            cpu_cells.back().push_back(batch.add(
                cpu, "ubench", config, MeasureMode::CpuPrimary, reps));
            gpu_cells.back().push_back(batch.add(
                cpu, "ubench", config, MeasureMode::GpuPrimary, reps));
        }
    }
    batch.run();
    const double idle_rate = batch[idle].gpu_ssr_rate;

    std::vector<std::string> headers = {"cpu_app"};
    for (const auto &[label, threshold] : settings)
        headers.push_back(label);
    TablePrinter cpu_table(headers);
    TablePrinter gpu_table(headers);

    std::vector<std::vector<double>> cpu_cols(settings.size());
    std::vector<std::vector<double>> gpu_cols(settings.size());

    for (std::size_t c = 0; c < cpu_apps.size(); ++c) {
        const double baseline_ms = batch[baseline[c]].cpu_runtime_ms;
        std::vector<double> cpu_row;
        std::vector<double> gpu_row;
        for (std::size_t s = 0; s < settings.size(); ++s) {
            const double cpu_perf = normalizedPerf(
                baseline_ms, batch[cpu_cells[c][s]].cpu_runtime_ms);
            cpu_row.push_back(cpu_perf);
            cpu_cols[s].push_back(cpu_perf);

            const double gpu_perf =
                batch[gpu_cells[c][s]].gpu_ssr_rate / idle_rate;
            gpu_row.push_back(gpu_perf);
            gpu_cols[s].push_back(gpu_perf);
        }
        cpu_table.addRow(cpu_apps[c], cpu_row);
        gpu_table.addRow(cpu_apps[c], gpu_row);
    }

    std::vector<double> cpu_gmeans;
    std::vector<double> gpu_gmeans;
    for (std::size_t s = 0; s < settings.size(); ++s) {
        cpu_gmeans.push_back(geomean(cpu_cols[s]));
        gpu_gmeans.push_back(geomean(gpu_cols[s]));
    }
    cpu_table.addRow("gmean", cpu_gmeans);
    gpu_table.addRow("gmean", gpu_gmeans);

    std::printf("--- (a) CPU application performance "
                "(vs no-SSR baseline) ---\n");
    cpu_table.print(std::cout);
    std::printf("\n--- (b) ubench throughput "
                "(vs idle-CPU unthrottled) ---\n");
    gpu_table.print(std::cout);

    std::printf("\nMean CPU loss: default %.1f %%, th_1 %.1f %% "
                "(paper: 28 %% -> < 4 %%).\n",
                (1.0 - cpu_gmeans[0]) * 100.0,
                (1.0 - cpu_gmeans[3]) * 100.0);
    std::printf("ubench throughput at th_1: %.1f %% of unhindered "
                "(paper: ~5 %%).\n", gpu_gmeans[3] * 100.0);
    return 0;
}
