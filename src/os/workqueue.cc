#include "os/workqueue.h"

#include "fault/fault_injector.h"
#include "os/qos_governor.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {

void
snapSaveWorkItem(snap::Writer &w, const WorkItem &item)
{
    if (!item.snap.valid)
        throw snap::SnapshotError(
            "live work item has no snapshot identity (not built by "
            "SystemServices)");
    w.u64(item.snap.id);
    w.u32(item.snap.kind);
    w.u32(item.snap.pasid);
    w.u64(item.snap.vpn);
    w.u64(item.snap.issued_at);
    w.u64(item.snap.drained_at);
    w.u64(item.snap.queued_at);
    w.tag(item.snap.origin);
    w.b(item.snap.driver_wrapped);
    w.u64(item.snap.driver_index);
    w.u64(item.duration);
    w.u64(item.service_start != nullptr ? *item.service_start : 0);
    w.u64(item.enqueued_at);
}

WorkItem
snapRestoreWorkItem(snap::Reader &r, const WorkItemRebuild &rebuild)
{
    WorkItemSnap s;
    s.valid = true;
    s.id = r.u64();
    s.kind = r.u32();
    s.pasid = r.u32();
    s.vpn = r.u64();
    s.issued_at = r.u64();
    s.drained_at = r.u64();
    s.queued_at = r.u64();
    s.origin = r.tag();
    s.driver_wrapped = r.b();
    s.driver_index = r.u64();
    const Tick duration = r.u64();
    const Tick service_start_at = r.u64();
    const Tick enqueued_at = r.u64();
    return rebuild(s, duration, service_start_at, enqueued_at);
}

WorkQueue::WorkQueue(SimContext &ctx, const std::string &name,
                     Scheduler &scheduler, int num_cores)
    : SimObject(ctx, name),
      scheduler_(scheduler),
      queues_(static_cast<std::size_t>(num_cores)),
      workers_(static_cast<std::size_t>(num_cores), nullptr),
      latency_(ctx.stats.addDistribution(name + ".latency",
                                         "push-to-service latency (ticks)"))
{
    if (num_cores <= 0)
        fatal("WorkQueue %s: need at least one core", name.c_str());
    stats().addFormula(name + ".pushed", "work items enqueued",
                       [this] { return static_cast<double>(pushed_); });
    stats().addFormula(name + ".completed", "work items completed",
                       [this] { return static_cast<double>(completed_); });
}

void
WorkQueue::addWorker(Thread *worker, int core)
{
    if (core < 0 || static_cast<std::size_t>(core) >= workers_.size())
        fatal("WorkQueue %s: bad worker core %d", name().c_str(), core);
    workers_[static_cast<std::size_t>(core)] = worker;
}

void
WorkQueue::push(WorkItem item, CpuCore *from)
{
    const int core = from != nullptr ? from->index() : 0;
    item.enqueued_at = now();
    queues_[static_cast<std::size_t>(core)].push_back(std::move(item));
    ++pushed_;
    Thread *worker = workers_[static_cast<std::size_t>(core)];
    if (worker == nullptr)
        panic("WorkQueue %s: no kworker bound to core %d",
              name().c_str(), core);
    const ThreadState s = worker->state();
    if (s == ThreadState::Blocked || s == ThreadState::Created)
        scheduler_.wake(worker, from);
}

std::size_t
WorkQueue::totalDepth() const
{
    std::size_t total = 0;
    for (const auto &queue : queues_)
        total += queue.size();
    return total;
}

WorkItem
WorkQueue::pop(int core)
{
    auto &queue = queues_[static_cast<std::size_t>(core)];
    if (queue.empty())
        panic("WorkQueue %s: pop on empty core-%d queue",
              name().c_str(), core);
    WorkItem item = std::move(queue.front());
    queue.pop_front();
    ++in_service_;
    return item;
}

bool
WorkQueue::cancel(std::uint64_t driver_index, std::uint64_t id)
{
    for (auto &queue : queues_) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->snap.driver_wrapped
                && it->snap.driver_index == driver_index
                && it->snap.id == id) {
                queue.erase(it);
                ++cancelled_;
                return true;
            }
        }
    }
    return false;
}

void
WorkQueue::snapSave(snap::Writer &w) const
{
    w.u64(queues_.size());
    for (const auto &queue : queues_) {
        w.u64(queue.size());
        for (const WorkItem &item : queue)
            snapSaveWorkItem(w, item);
    }
    w.u64(pushed_);
    w.u64(completed_);
    w.u64(cancelled_);
    w.u64(in_service_);
}

void
WorkQueue::snapRestore(snap::Reader &r, const WorkItemRebuild &rebuild)
{
    if (r.u64() != queues_.size())
        throw snap::SnapshotError("work queue core-count mismatch");
    for (auto &queue : queues_) {
        queue.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            queue.push_back(snapRestoreWorkItem(r, rebuild));
    }
    pushed_ = r.u64();
    completed_ = r.u64();
    cancelled_ = r.u64();
    in_service_ = r.u64();
}

WorkerModel::WorkerModel(WorkQueue &queue, int core, QosGovernor *governor,
                         FaultInjector *faults)
    : queue_(queue), core_(core), governor_(governor), faults_(faults)
{
}

void
WorkerModel::snapSave(snap::Writer &w) const
{
    w.b(current_.has_value());
    if (current_.has_value())
        snapSaveWorkItem(w, *current_);
    w.u64(remaining_);
    w.u64(backoff_);
}

void
WorkerModel::snapRestore(snap::Reader &r, const WorkItemRebuild &rebuild)
{
    current_.reset();
    if (r.b())
        current_ = snapRestoreWorkItem(r, rebuild);
    remaining_ = r.u64();
    backoff_ = r.u64();
}

BurstRequest
WorkerModel::nextBurst(CpuCore &core)
{
    if (!current_.has_value()) {
        if (queue_.empty(core_)) {
            BurstRequest br;
            br.kind = BurstRequest::Kind::Block;
            return br;
        }
        // QoS backpressure (paper Fig. 11 / the token-bucket
        // extension): consult the governor before servicing; it
        // returns a delay while SSR CPU time is over budget.
        if (governor_ != nullptr) {
            const Tick delay = governor_->nextThrottleDelay(backoff_);
            if (delay > 0) {
                BurstRequest br;
                br.kind = BurstRequest::Kind::Sleep;
                br.duration = delay;
                return br;
            }
        }
        // Injected transient stall (e.g. the kworker preempted or
        // blocked on an unmodeled resource). Redrawn on every wake,
        // so consecutive stalls are geometrically distributed.
        if (faults_ != nullptr) {
            const Tick stall = faults_->kworkerStall();
            if (stall > 0) {
                BurstRequest br;
                br.kind = BurstRequest::Kind::Sleep;
                br.duration = stall;
                return br;
            }
        }
        current_ = queue_.pop(core_);
        remaining_ = current_->duration;
        const Tick at = core.now();
        queue_.sampleLatency(at > current_->enqueued_at
                                 ? at - current_->enqueued_at
                                 : 0);
        if (current_->on_service_start)
            current_->on_service_start(at);
    }
    BurstRequest br;
    br.kind = BurstRequest::Kind::Run;
    br.duration = remaining_;
    br.kernel_mode = true;
    br.ssr_work = current_->ssr;
    br.mem_accesses = current_->footprint_accesses;
    br.branches = current_->footprint_branches;
    return br;
}

void
WorkerModel::onBurstDone(CpuCore &core, Tick ran,
                         std::uint64_t instructions_done, bool completed)
{
    (void)instructions_done;
    if (!current_.has_value())
        panic("WorkerModel: burst completion without an item");
    if (completed) {
        WorkItem item = std::move(*current_);
        current_.reset();
        remaining_ = 0;
        queue_.noteCompleted();
        if (item.on_complete)
            item.on_complete(core);
    } else {
        remaining_ = ran >= remaining_ ? 1 : remaining_ - ran;
    }
}

} // namespace hiss
