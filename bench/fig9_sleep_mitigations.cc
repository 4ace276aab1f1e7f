/**
 * @file
 * Fig. 9: how the mitigation techniques affect CPU sleep states
 * while the microbenchmark generates SSRs (idle CPUs otherwise).
 *
 * Paper: no-SSR residency 86 %; default with SSRs 12 %; steering
 * raises it to ~50 % (only the irq/bottom-half cores stay awake);
 * the monolithic handler behaves similarly; coalescing alone barely
 * helps (all cores still interrupted); all three together reach
 * 57 %.
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
        "Fig. 9: CC6 residency under ubench SSRs per mitigation combo",
        "no_SSR 86 %, default 12 %, steer ~50 %, coalescing alone "
        "~no help, all three 57 %");

    const std::vector<MitigationConfig> combos =
        MitigationConfig::allCombinations();
    ExperimentConfig base = bench::defaultConfig();
    base.gpu_demand_paging = false;
    bench::CellBatch batch(jobs);
    const std::size_t no_ssr =
        batch.add("", "ubench", base, MeasureMode::GpuOnly, reps);
    std::vector<std::size_t> mitigated; // [combo]
    for (const MitigationConfig &combo : combos) {
        ExperimentConfig config = bench::defaultConfig();
        config.mitigation = combo;
        mitigated.push_back(
            batch.add("", "ubench", config, MeasureMode::GpuOnly, reps));
    }
    batch.run();

    std::printf("%-28s %12s\n", "configuration", "CC6(%)");
    std::printf("%-28s %12.1f\n", "ubench_no_SSR",
                batch[no_ssr].cc6_fraction * 100.0);
    for (std::size_t m = 0; m < combos.size(); ++m)
        std::printf("%-28s %12.1f\n", combos[m].label().c_str(),
                    batch[mitigated[m]].cc6_fraction * 100.0);
    return 0;
}
