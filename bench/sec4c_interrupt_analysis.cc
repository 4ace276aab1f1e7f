/**
 * @file
 * Section IV-C: analysis of SSR overhead sources.
 *
 * Reproduces the two quantitative observations: (1) SSR interrupts
 * are distributed across all CPUs (/proc/interrupts), so every core
 * suffers direct overheads; and (2) inter-processor interrupts
 * explode when the microbenchmark creates SSRs (the paper measures a
 * 477x increase) because the top half wakes the bottom half on a
 * different core.
 */

#include <cstdio>

#include "bench/harness.h"

int
main(int argc, char **argv)
{
    using namespace hiss;
    const int reps = bench::repsFromArgs(argc, argv, 2);
    const int jobs = bench::jobsFromArgs(argc, argv);
    bench::banner(
        "Section IV-C: interrupt distribution and IPI amplification",
        "SSR interrupts evenly spread over all CPUs; 477x more IPIs "
        "when ubench creates SSRs");

    // ubench with SSRs (busy CPUs), then without (baseline IPIs).
    ExperimentConfig base = bench::defaultConfig();
    base.gpu_demand_paging = false;
    bench::CellBatch batch(jobs);
    const std::size_t paged =
        batch.add("streamcluster", "ubench", bench::defaultConfig(),
                  MeasureMode::CpuPrimary, reps);
    const std::size_t pinned = batch.add(
        "streamcluster", "ubench", base, MeasureMode::CpuPrimary, reps);
    batch.run();
    const RunResult &ssr = batch[paged];
    const RunResult &no_ssr = batch[pinned];

    std::printf("SSR interrupt distribution across cores "
                "(busy system):\n");
    std::printf("%-8s %12s %10s\n", "core", "ssr_irqs", "share(%)");
    for (std::size_t c = 0; c < ssr.ssr_irqs_per_core.size(); ++c) {
        const double share = ssr.ssr_interrupts > 0
            ? 100.0
                * static_cast<double>(ssr.ssr_irqs_per_core[c])
                / static_cast<double>(ssr.ssr_interrupts)
            : 0.0;
        std::printf("CPU%-5zu %12llu %10.1f\n", c,
                    static_cast<unsigned long long>(
                        ssr.ssr_irqs_per_core[c]),
                    share);
    }

    const double rate_per_ms = ssr.elapsed_ms > 0
        ? static_cast<double>(ssr.total_ipis) / ssr.elapsed_ms : 0.0;
    const double base_rate_per_ms = no_ssr.elapsed_ms > 0
        ? static_cast<double>(no_ssr.total_ipis) / no_ssr.elapsed_ms
        : 0.0;
    const double amplification = base_rate_per_ms > 0
        ? rate_per_ms / base_rate_per_ms : 0.0;

    std::printf("\nIPI rate without SSRs: %8.2f /ms\n",
                base_rate_per_ms);
    std::printf("IPI rate with SSRs   : %8.2f /ms\n", rate_per_ms);
    std::printf("Amplification        : %8.1fx  (paper: 477x)\n",
                amplification);
    return 0;
}
