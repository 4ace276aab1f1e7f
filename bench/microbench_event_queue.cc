/**
 * @file
 * Event-queue hot-path microbenchmarks: schedule, schedule+cancel,
 * and steady-state schedule/step churn, in events per second.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"

namespace {

/**
 * A callback capture of realistic size: the equivalent of `this`
 * plus a couple of words, like the simulator's device callbacks.
 */
struct Payload
{
    std::uint64_t *sum;
    std::uint64_t a = 1;
    std::uint64_t b = 2;
};

void
BM_Schedule(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        hiss::EventQueue q;
        std::uint64_t sum = 0;
        Payload p{&sum};
        for (std::size_t i = 0; i < n; ++i)
            q.schedule(static_cast<hiss::Tick>(i + 1),
                       [p] { *p.sum += p.a + p.b; });
        q.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}

void
BM_ScheduleCancel(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint64_t> ids(n);
    for (auto _ : state) {
        hiss::EventQueue q;
        std::uint64_t sum = 0;
        Payload p{&sum};
        for (std::size_t i = 0; i < n; ++i)
            ids[i] = q.schedule(static_cast<hiss::Tick>(i + 1),
                                [p] { *p.sum += p.a; });
        // Cancel every other event, the timeout-heavy device pattern.
        for (std::size_t i = 0; i < n; i += 2)
            benchmark::DoNotOptimize(q.cancel(ids[i]));
        q.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}

/**
 * Steady-state churn: K events always pending, each execution
 * schedules a successor — the shape of the simulator's main loop.
 */
void
BM_Churn(benchmark::State &state)
{
    const auto depth = static_cast<std::size_t>(state.range(0));
    hiss::EventQueue q;
    std::uint64_t executed = 0;
    std::function<void()> reschedule; // Self-scheduling closure.
    reschedule = [&] {
        ++executed;
        q.schedule(q.now() + 16, [&] { reschedule(); });
    };
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(static_cast<hiss::Tick>(i + 1),
                   [&] { reschedule(); });
    for (auto _ : state)
        q.step();
    benchmark::DoNotOptimize(executed);
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_Schedule)->Arg(1024)->Arg(65536);
BENCHMARK(BM_ScheduleCancel)->Arg(1024)->Arg(65536);
BENCHMARK(BM_Churn)->Arg(64)->Arg(1024);

} // namespace

BENCHMARK_MAIN();
