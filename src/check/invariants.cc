#include "check/invariants.h"

#include <cstdarg>
#include <cstdio>

#include "core/system.h"

namespace hiss {
namespace check {

InvariantMonitor::InvariantMonitor(SimContext &ctx, HeteroSystem &sys,
                                   Tick period)
    : SimObject(ctx, "check"), sys_(sys), period_(period)
{
    if (period_ == 0)
        fatal("InvariantMonitor: zero check period");

    // The two SSR chains every HeteroSystem wires up: IOMMU page
    // faults and GPU signals. Each is keyed by the RequestSource
    // pointer the driver drains, which is exactly what instrumented
    // model code passes to the hooks.
    Chain iommu;
    iommu.label = "iommu";
    iommu.source = static_cast<const RequestSource *>(&sys.iommu());
    iommu.driver = &sys.ssrDriver();
    iommu.device_issued = [&sys] { return sys.iommu().pprsIssued(); };
    iommu.device_completed = [&sys] {
        return sys.iommu().faultsResolved();
    };
    iommu.device_depth = [&sys] { return sys.iommu().pprQueueDepth(); };
    iommu.device_aborted = [&sys] {
        return sys.iommu().faultsAborted();
    };
    chains_.push_back(std::move(iommu));

    Chain signal;
    signal.label = "signal";
    signal.source =
        static_cast<const RequestSource *>(&sys.signalQueue());
    signal.driver = &sys.signalDriver();
    signal.device_issued = [&sys] {
        return sys.signalQueue().signalsSent();
    };
    signal.device_completed = [&sys] {
        return sys.signalQueue().signalsDelivered();
    };
    signal.device_depth = [&sys] {
        return sys.signalQueue().queueDepth();
    };
    signal.device_aborted = [&sys] {
        return sys.signalQueue().signalsAborted();
    };
    chains_.push_back(std::move(signal));

    scheduleSweep();
}

InvariantMonitor::~InvariantMonitor() = default;

void
InvariantMonitor::scheduleSweep()
{
    // Stats priority: the sweep observes settled state after all
    // same-tick model activity. The event is read-only and draws no
    // randomness, so it cannot perturb simulation results.
    scheduleAfter(period_, [this] {
        sweepNow();
        ++sweeps_;
        scheduleSweep();
    }, EventPriority::Stats);
}

void
InvariantMonitor::fail(const char *fmt, ...)
{
    char msg[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, ap);
    va_end(ap);
    char full[640];
    std::snprintf(full, sizeof(full),
                  "invariant violation at tick %llu (seed %llu): %s",
                  static_cast<unsigned long long>(now()),
                  static_cast<unsigned long long>(ctx().seed), msg);
    throw InvariantError(full);
}

InvariantMonitor::Chain &
InvariantMonitor::chainFor(const void *source)
{
    for (Chain &chain : chains_) {
        if (chain.source == source)
            return chain;
    }
    fail("SSR hook fired for an unregistered device source %p",
         source);
}

void
InvariantMonitor::onSsrIssued(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    if (!c.stage.emplace(id, Stage::DeviceQueued).second)
        fail("%s request %llu issued twice", c.label.c_str(),
             static_cast<unsigned long long>(id));
    ++c.hook_issued;
    ++c.in_device;
}

void
InvariantMonitor::onSsrDrained(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    auto it = c.stage.find(id);
    if (it == c.stage.end())
        fail("%s request %llu drained but never issued",
             c.label.c_str(), static_cast<unsigned long long>(id));
    if (it->second != Stage::DeviceQueued)
        fail("%s request %llu drained twice", c.label.c_str(),
             static_cast<unsigned long long>(id));
    it->second = Stage::Drained;
    --c.in_device;
    ++c.drained;
}

void
InvariantMonitor::onSsrWorkQueued(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    auto it = c.stage.find(id);
    if (it == c.stage.end())
        fail("%s request %llu queued to worker but never issued",
             c.label.c_str(), static_cast<unsigned long long>(id));
    if (it->second != Stage::Drained)
        fail("%s request %llu queued to worker out of order (stage "
             "%d)",
             c.label.c_str(), static_cast<unsigned long long>(id),
             static_cast<int>(it->second));
    it->second = Stage::WorkQueued;
    --c.drained;
    ++c.work_queued;
}

void
InvariantMonitor::onSsrCompleted(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    auto it = c.stage.find(id);
    if (it == c.stage.end())
        fail("%s request %llu completed but never issued",
             c.label.c_str(), static_cast<unsigned long long>(id));
    if (it->second == Stage::Aborted) {
        // Zombie retirement: the kworker finished a request the
        // watchdog already aborted. The driver suppressed the device
        // callback, so this closes the ledger without counting as a
        // real completion.
        c.stage.erase(it);
        --c.work_queued;
        ++c.hook_retired;
        return;
    }
    if (it->second != Stage::WorkQueued)
        fail("%s request %llu completed out of order (stage %d)",
             c.label.c_str(), static_cast<unsigned long long>(id),
             static_cast<int>(it->second));
    c.stage.erase(it);
    --c.work_queued;
    ++c.hook_completed;
}

void
InvariantMonitor::onSsrAborted(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    auto it = c.stage.find(id);
    if (it == c.stage.end())
        fail("%s request %llu aborted but never issued",
             c.label.c_str(), static_cast<unsigned long long>(id));
    if (it->second != Stage::WorkQueued)
        fail("%s request %llu aborted in stage %d (the watchdog may "
             "only abort work-queued requests)",
             c.label.c_str(), static_cast<unsigned long long>(id),
             static_cast<int>(it->second));
    // The zombie work item still occupies the workqueue, so
    // work_queued stays until the suppressed completion retires it.
    it->second = Stage::Aborted;
    ++c.hook_aborted;
}

void
InvariantMonitor::onSsrInjectedLoss(const void *source, std::uint64_t id)
{
    Chain &c = chainFor(source);
    FaultInjector *faults = sys_.faultInjector();
    if (faults == nullptr || !faults->wasInjectedLoss(source, id))
        fail("%s request %llu reported lost without a fault-injector "
             "ledger entry (genuine leak?)",
             c.label.c_str(), static_cast<unsigned long long>(id));
    auto it = c.stage.find(id);
    if (it == c.stage.end())
        fail("%s request %llu lost but never issued", c.label.c_str(),
             static_cast<unsigned long long>(id));
    if (it->second != Stage::DeviceQueued)
        fail("%s request %llu lost in stage %d (injected loss happens "
             "at the device)",
             c.label.c_str(), static_cast<unsigned long long>(id),
             static_cast<int>(it->second));
    c.stage.erase(it);
    --c.in_device;
    ++c.hook_lost;
}

void
InvariantMonitor::sweepNow()
{
    checkEventQueue();
    checkScheduler();
    checkSsrConservation();
    checkWorkQueue();
    checkMemory();
    checkStats();
}

void
InvariantMonitor::checkEventQueue()
{
    ++checks_run_;
    const std::string error = events().auditErrors();
    if (!error.empty())
        fail("event queue: %s", error.c_str());
}

void
InvariantMonitor::checkScheduler()
{
    ++checks_run_;
    Kernel &kernel = sys_.kernel();
    Scheduler &sched = kernel.scheduler();
    const int num_cores = kernel.numCores();

    // How often each thread is attached to a core / sits in a run
    // queue. All transitions settle within a single event, so at a
    // sweep the two views must agree exactly.
    std::unordered_map<const Thread *, int> attached;
    std::unordered_map<const Thread *, int> queued;

    for (int i = 0; i < num_cores; ++i) {
        CpuCore &core = kernel.core(i);
        Thread *current = core.currentThread();
        const CoreState state = core.state();
        if (current != nullptr) {
            if (state != CoreState::Running && state != CoreState::InIrq)
                fail("core %d has thread '%s' attached in state %d",
                     i, current->name().c_str(),
                     static_cast<int>(state));
            if (current->state() != ThreadState::Running)
                fail("thread '%s' attached to core %d but in state %d "
                     "(runnable-and-running?)",
                     current->name().c_str(), i,
                     static_cast<int>(current->state()));
            if (++attached[current] > 1)
                fail("thread '%s' attached to two cores",
                     current->name().c_str());
        } else if (state == CoreState::Running) {
            fail("core %d Running with no thread attached", i);
        }

        for (const Thread *thread : sched.queuedThreads(i)) {
            if (thread->state() != ThreadState::Ready)
                fail("thread '%s' in core %d run queue but in state "
                     "%d",
                     thread->name().c_str(), i,
                     static_cast<int>(thread->state()));
            if (++queued[thread] > 1)
                fail("thread '%s' enqueued twice",
                     thread->name().c_str());
        }
    }

    for (const auto &thread_ptr : kernel.threads()) {
        const Thread *thread = thread_ptr.get();
        const bool on_core = attached.count(thread) > 0;
        const bool in_queue = queued.count(thread) > 0;
        if (on_core && in_queue)
            fail("thread '%s' is both running and runnable",
                 thread->name().c_str());
        switch (thread->state()) {
          case ThreadState::Running:
            if (!on_core)
                fail("thread '%s' Running but on no core",
                     thread->name().c_str());
            break;
          case ThreadState::Ready:
            if (!in_queue)
                fail("thread '%s' Ready but in no run queue",
                     thread->name().c_str());
            break;
          default:
            if (on_core || in_queue)
                fail("thread '%s' in state %d but still %s",
                     thread->name().c_str(),
                     static_cast<int>(thread->state()),
                     on_core ? "attached to a core" : "enqueued");
            break;
        }
    }
}

void
InvariantMonitor::checkSsrConservation()
{
    ++checks_run_;
    std::size_t total_work_queued = 0;
    for (Chain &c : chains_) {
        const std::uint64_t issued = c.device_issued();
        const std::uint64_t completed = c.device_completed();
        if (issued != c.hook_issued)
            fail("%s: device issued %llu requests but hooks saw %llu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(issued),
                 static_cast<unsigned long long>(c.hook_issued));
        if (completed != c.hook_completed)
            fail("%s: device completed %llu requests but hooks saw "
                 "%llu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(c.hook_completed));
        if (issued != completed + c.hook_retired + c.hook_lost
                          + c.stage.size())
            fail("%s: conservation broken: issued %llu != completed "
                 "%llu + aborted-retired %llu + injected-lost %llu + "
                 "in-flight %zu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(issued),
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(c.hook_retired),
                 static_cast<unsigned long long>(c.hook_lost),
                 c.stage.size());
        if (c.device_aborted && c.device_aborted() != c.hook_aborted)
            fail("%s: device saw %llu aborts but hooks saw %llu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(c.device_aborted()),
                 static_cast<unsigned long long>(c.hook_aborted));
        if (c.driver->requestsAborted() != c.hook_aborted)
            fail("%s: driver aborted %llu requests but hooks saw %llu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(
                     c.driver->requestsAborted()),
                 static_cast<unsigned long long>(c.hook_aborted));
        FaultInjector *faults = sys_.faultInjector();
        const std::uint64_t ledgered =
            faults != nullptr ? faults->injectedLossCount(c.source) : 0;
        if (c.hook_lost != ledgered)
            fail("%s: hooks saw %llu injected losses but the injector "
                 "ledgered %llu",
                 c.label.c_str(),
                 static_cast<unsigned long long>(c.hook_lost),
                 static_cast<unsigned long long>(ledgered));
        if (c.in_device != c.device_depth())
            fail("%s: ledger says %zu requests in the device queue, "
                 "device says %zu",
                 c.label.c_str(), c.in_device, c.device_depth());
        if (c.drained != c.driver->pendingBottomHalf())
            fail("%s: ledger says %zu requests awaiting the bottom "
                 "half, driver says %zu (request dropped?)",
                 c.label.c_str(), c.drained,
                 c.driver->pendingBottomHalf());
        total_work_queued += c.work_queued;
    }

    WorkQueue &wq = sys_.kernel().workQueue();
    const std::size_t wq_held =
        wq.totalDepth() + static_cast<std::size_t>(wq.inService());
    if (total_work_queued != wq_held)
        fail("SSR ledger says %zu requests held by the workqueue, "
             "workqueue holds %zu",
             total_work_queued, wq_held);
}

void
InvariantMonitor::checkWorkQueue()
{
    ++checks_run_;
    WorkQueue &wq = sys_.kernel().workQueue();
    const std::uint64_t held = wq.pushed() - wq.completed();
    const std::uint64_t accounted =
        static_cast<std::uint64_t>(wq.totalDepth()) + wq.inService();
    if (wq.completed() > wq.pushed()
        || held != accounted)
        fail("workqueue conservation broken: pushed %llu != "
             "completed %llu + queued %zu + in-service %llu",
             static_cast<unsigned long long>(wq.pushed()),
             static_cast<unsigned long long>(wq.completed()),
             wq.totalDepth(),
             static_cast<unsigned long long>(wq.inService()));
}

void
InvariantMonitor::checkMemory()
{
    ++checks_run_;
    Kernel &kernel = sys_.kernel();
    const FrameAllocator &frames = kernel.frames();

    std::unordered_map<Pfn, std::pair<Pasid, Vpn>> owner;
    owner.reserve(kernel.addressSpaces().totalMapped());
    std::size_t mapped = 0;
    kernel.addressSpaces().forEach([&](Pasid pasid,
                                       const PageTable &table) {
        table.forEach([&](Vpn vpn, Pfn pfn) {
            ++mapped;
            if (!frames.isAllocated(pfn))
                fail("pasid %u vpn %llu maps frame %llu which is not "
                     "allocated (freed frame still mapped?)",
                     pasid, static_cast<unsigned long long>(vpn),
                     static_cast<unsigned long long>(pfn));
            const auto [it, inserted] =
                owner.emplace(pfn, std::make_pair(pasid, vpn));
            if (!inserted)
                fail("frame %llu double-mapped: pasid %u vpn %llu and "
                     "pasid %u vpn %llu",
                     static_cast<unsigned long long>(pfn),
                     it->second.first,
                     static_cast<unsigned long long>(it->second.second),
                     pasid, static_cast<unsigned long long>(vpn));
        });
    });
    if (mapped != frames.allocatedFrames())
        fail("%zu pages mapped but %llu frames allocated (allocated "
             "frame not mapped?)",
             mapped,
             static_cast<unsigned long long>(frames.allocatedFrames()));
}

void
InvariantMonitor::checkStats()
{
    ++checks_run_;
    sys_.stats().forEach([this](const Stat &stat) {
        // Counters and distribution sample counts are monotone;
        // scalars and formulas may legitimately move both ways.
        std::uint64_t current;
        if (const auto *counter = dynamic_cast<const Counter *>(&stat))
            current = counter->count();
        else if (const auto *dist =
                     dynamic_cast<const Distribution *>(&stat))
            current = dist->count();
        else
            return;
        auto [it, inserted] = counter_snapshot_.emplace(&stat, current);
        if (!inserted) {
            if (current < it->second)
                fail("stat '%s' went backwards: %llu -> %llu",
                     stat.name().c_str(),
                     static_cast<unsigned long long>(it->second),
                     static_cast<unsigned long long>(current));
            it->second = current;
        }
    });
}

} // namespace check
} // namespace hiss
