/**
 * @file
 * Event-queue hot-path microbenchmarks: schedule, schedule+cancel,
 * and steady-state schedule/step churn, in events per second. Events
 * are tagged sites on an EventTarget, as the simulator schedules
 * them; one churn row uses the plain-callable overload that tests,
 * examples and hissbench's replay use.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace {

/** A target with two sites whose bodies sum their payload words,
 *  like a simulator component reading its tag. */
struct Sink : hiss::EventTarget
{
    static constexpr const char *kKinds[] = {"bench.sum", "bench.churn"};

    void
    fire(const hiss::snap::Tag &tag) override
    {
        sum += tag.self.a + tag.self.b;
        if (tag.site == 1) // Churn: every event schedules a successor.
            queue->schedule(queue->now() + 16, *this, tag);
    }
    const char *targetName() const override { return "sink"; }
    hiss::SiteKinds siteKinds() const override { return kKinds; }

    hiss::EventQueue *queue = nullptr;
    std::uint64_t sum = 0;
};

/** A tag of @p site carrying the two words a component would read. */
hiss::snap::Tag
sinkTag(std::uint32_t site)
{
    return {{Sink::kKinds[site], 1, 2}, {}, site};
}

void
BM_Schedule(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        hiss::EventQueue q;
        Sink sink;
        for (std::size_t i = 0; i < n; ++i)
            q.schedule(static_cast<hiss::Tick>(i + 1), sink, sinkTag(0));
        q.run();
        benchmark::DoNotOptimize(sink.sum);
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
        Sink sink;
        for (std::size_t i = 0; i < n; ++i)
            ids[i] = q.schedule(static_cast<hiss::Tick>(i + 1), sink,
                                sinkTag(0));
        // Cancel every other event, the timeout-heavy device pattern.
        for (std::size_t i = 0; i < n; i += 2)
            benchmark::DoNotOptimize(q.cancel(ids[i]));
        q.run();
        benchmark::DoNotOptimize(sink.sum);
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
    Sink sink;
    sink.queue = &q;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(static_cast<hiss::Tick>(i + 1), sink, sinkTag(1));
    for (auto _ : state)
        q.step();
    benchmark::DoNotOptimize(sink.sum);
    state.SetItemsProcessed(state.iterations());
}

/** The same churn through the plain-callable overload. */
struct Hop
{
    hiss::EventQueue *queue;
    std::uint64_t *executed;
    void
    operator()() const
    {
        ++*executed;
        queue->scheduleAfter(16, *this);
    }
};

void
BM_ChurnCallable(benchmark::State &state)
{
    const auto depth = static_cast<std::size_t>(state.range(0));
    hiss::EventQueue q;
    std::uint64_t executed = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(static_cast<hiss::Tick>(i + 1), Hop{&q, &executed});
    for (auto _ : state)
        q.step();
    benchmark::DoNotOptimize(executed);
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_Schedule)->Arg(1024)->Arg(65536);
BENCHMARK(BM_ScheduleCancel)->Arg(1024)->Arg(65536);
BENCHMARK(BM_Churn)->Arg(64)->Arg(1024);
BENCHMARK(BM_ChurnCallable)->Arg(1024);

} // namespace

BENCHMARK_MAIN();
