/**
 * @file
 * GPU signal SSRs (paper Section II-C, "Signals").
 *
 * Page faults are the paper's heavyweight SSR; signals are the
 * lightweight one — the GPU's S_SENDMSG instruction writes a
 * descriptor and interrupts a CPU, which runs the same split handler
 * chain but invokes the (Low-complexity) signal service. This demo
 * drives a burst of signals through the full path alongside a CPU
 * application, then prints delivery latency and the interference the
 * signal traffic alone caused.
 */

#include <cstdio>

#include "core/hiss.h"

int
main()
{
    using namespace hiss;

    std::printf("HISS signal-path demo: S_SENDMSG -> host handler "
                "chain\n\n");

    SystemConfig config;
    config.seed = 23;
    HeteroSystem sys(config);

    CpuAppParams app_params = parsec::params("bodytrack");
    CpuApp &app = sys.addCpuApp(app_params);
    app.start();

    // A GPU kernel that completes work items and signals the host
    // about each batch (producer/consumer notification), modeled by
    // firing signals on a timer while the CPU app runs.
    struct Tally
    {
        HeteroSystem &sys;
        CpuApp &app;
        std::uint64_t delivered = 0;
        Tick latency_sum = 0;
    } tally{sys, app};
    // Re-arms itself every 50 us until the app finishes; a plain
    // callable event holds at most 24 trivially copyable bytes, so it
    // carries one pointer to the shared tally.
    struct SendBatch
    {
        Tally *tally;
        void
        operator()() const
        {
            Tally &t = *tally;
            const Tick sent_at = t.sys.now();
            t.sys.signalQueue().sendSignal(
                [&t, sent_at](CpuCore &) {
                    ++t.delivered;
                    t.latency_sum += t.sys.now() - sent_at;
                });
            if (!t.app.done())
                t.sys.events().scheduleAfter(usToTicks(50), *this);
        }
    };
    sys.events().scheduleAfter(usToTicks(50), SendBatch{&tally});

    sys.runUntilCondition([&app] { return app.done(); },
                          msToTicks(500));
    sys.finalizeStats();

    std::printf("bodytrack runtime          : %8.2f ms\n",
                ticksToMs(app.completionTime()));
    std::printf("signals sent / delivered   : %8llu / %llu\n",
                static_cast<unsigned long long>(
                    sys.signalQueue().signalsSent()),
                static_cast<unsigned long long>(tally.delivered));
    std::printf("mean delivery latency      : %8.2f us\n",
                tally.delivered > 0
                    ? ticksToUs(tally.latency_sum)
                          / static_cast<double>(tally.delivered)
                    : 0.0);
    std::printf("signal-driver interrupts   : %8llu\n",
                static_cast<unsigned long long>(
                    sys.kernel().procInterrupts().totalFor(
                        "gpu_signal_drv")));
    Tick ssr = 0;
    for (int c = 0; c < sys.kernel().numCores(); ++c)
        ssr += sys.kernel().core(c).ssrTicks();
    std::printf("CPU time on signal SSRs    : %8.2f %% of 4 cores\n",
                100.0 * static_cast<double>(ssr)
                    / (4.0 * static_cast<double>(sys.now())));
    std::printf("\nSignals ride the same top-half/bottom-half/worker "
                "chain as page faults,\nbut with the Table I "
                "Low-complexity service cost.\n");
    return 0;
}
