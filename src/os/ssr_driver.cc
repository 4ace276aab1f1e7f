#include "os/ssr_driver.h"

#include <algorithm>

#include "fault/fault_injector.h"
#include "sim/check_hooks.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

SsrDriver::SsrDriver(SimContext &ctx, const std::string &name,
                     const SsrDriverParams &params, RequestSource &source,
                     SystemServices &services, WorkQueue &work_queue,
                     Scheduler &scheduler)
    : SimObject(ctx, name, kSiteKinds),
      params_(params),
      source_(source),
      services_(services),
      work_queue_(work_queue),
      scheduler_(scheduler),
      bh_model_(*this)
{
    stats().addFormula(name + ".interrupts", "SSR interrupts handled",
                       [this] {
                           return static_cast<double>(interrupts_);
                       });
    stats().addFormula(name + ".requests", "SSR requests drained",
                       [this] {
                           return static_cast<double>(requests_drained_);
                       });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        stats().addFormula(name + ".aborted",
                           "requests aborted by the recovery watchdog",
                           [this] {
                               return static_cast<double>(
                                   requests_aborted_);
                           });
        stats().addFormula(name + ".suppressed",
                           "zombie completions suppressed",
                           [this] {
                               return static_cast<double>(
                                   completions_suppressed_);
                           });
    }
}

bool
SsrDriver::trackingEnabled() const
{
    const FaultInjector *faults = faultInjector();
    return faults != nullptr && faults->plan().request_timeout > 0;
}

void
SsrDriver::armWatchdog(std::uint64_t id)
{
    Tracked &tracked = tracked_[id];
    tracked.watchdog =
        scheduleAfter(faultInjector()->plan().request_timeout,
                      EventPriority::Default, kWatchdog, snap_index_, id);
}

void
SsrDriver::fire(const snap::Tag &tag)
{
    // kWatchdog, the only site: the recovery watchdog of request b.
    const std::uint64_t id = tag.self.b;
    const auto it = tracked_.find(id);
    if (it == tracked_.end() || it->second.aborted)
        return;
    if (!it->second.work_queued) {
        // Still owned by the bottom half; aborting now would corrupt
        // its pending queue. Re-arm — the bottom half always makes
        // progress, so this terminates once the request is queued.
        armWatchdog(id);
        return;
    }
    it->second.aborted = true;
    ++requests_aborted_;
    trace("request %llu aborted by watchdog",
          static_cast<unsigned long long>(id));
    CheckHooks *checks = checkHooks();
    if (checks != nullptr)
        checks->onSsrAborted(&source_, id);
    // The device abort handler may re-enter the driver (e.g. the GPU
    // retries into a fresh request); don't touch map iterators after.
    auto on_abort = std::move(it->second.on_abort);
    // An item no kworker has taken yet is cancelled off the queue, as
    // Linux's cancel_work does, so a stalled kworker's backlog holds
    // no dead work. One already in service runs to a suppressed
    // zombie completion (completeRequest).
    if (work_queue_.cancel(snap_index_, id)) {
        tracked_.erase(it);
        if (checks != nullptr)
            checks->onSsrCompleted(&source_, id);
    }
    if (on_abort)
        on_abort();
}

std::uint64_t
SsrDriver::abortedInFlight() const
{
    // A count does not depend on the map's iteration order.
    std::uint64_t n = 0;
    for (const auto &[id, entry] : tracked_)
        n += entry.aborted ? 1 : 0;
    return n;
}

void
SsrDriver::completeRequest(CheckHooks *checks, std::uint64_t id,
                           const std::function<void(CpuCore &)> &inner,
                           CpuCore &core)
{
    bool aborted = false;
    const auto it = tracked_.find(id);
    if (it != tracked_.end()) {
        if (it->second.watchdog != kInvalidEventId)
            events().cancel(it->second.watchdog);
        aborted = it->second.aborted;
        tracked_.erase(it);
    }
    if (checks != nullptr)
        checks->onSsrCompleted(&source_, id);
    if (aborted) {
        // Zombie completion: the watchdog already aborted this
        // request and told the device. The kworker's CPU time was
        // genuinely spent, but the device callback is suppressed.
        ++completions_suppressed_;
        return;
    }
    if (inner)
        inner(core);
}

void
SsrDriver::queueToWorker(SsrRequest request, CpuCore &core)
{
    if (FaultInjector *faults = faultInjector()) {
        if (faults->takeUnledgeredDrop()) {
            // Deliberate conservation *bug* (tests): the request and
            // its completion evaporate with no ledger entry, so an
            // armed invariant sweep must report a leak.
            return;
        }
    }
    request.queued_at = core.now();
    CheckHooks *checks = checkHooks();
    const auto tracked_it = tracked_.find(request.id);
    if (tracked_it != tracked_.end())
        tracked_it->second.work_queued = true;
    if (checks != nullptr)
        checks->onSsrWorkQueued(&source_, request.id);
    if (checks != nullptr || tracked_it != tracked_.end()) {
        // Wrap the completion callback so the checker sees the
        // request leave the pipeline and the recovery layer can
        // suppress zombie completions. Only paid when armed.
        auto inner = std::move(request.on_service_complete);
        const std::uint64_t id = request.id;
        request.driver_wrapped = true;
        request.driver_index = snap_index_;
        request.on_service_complete =
            [this, checks, id, inner = std::move(inner)](CpuCore &c) {
                completeRequest(checks, id, inner, c);
            };
    }
    work_queue_.push(services_.makeWorkItem(std::move(request)), &core);
}

Irq
SsrDriver::makeInterrupt()
{
    Irq irq;
    irq.label = name();
    irq.token = {"irq.drv", snap_index_};
    irq.ssr_related = true;
    irq.footprint_accesses = params_.top_footprint_accesses;
    irq.footprint_branches = params_.top_footprint_branches;
    irq.on_start = [this](CpuCore &core) -> Tick {
        ++interrupts_;
        std::vector<SsrRequest> drained = source_.drain();
        requests_drained_ += drained.size();
        const auto n = static_cast<Tick>(drained.size());
        CheckHooks *checks = checkHooks();
        const bool tracking = trackingEnabled();
        for (SsrRequest &request : drained) {
            request.drained_at = core.now();
            if (checks)
                checks->onSsrDrained(&source_, request.id);
            if (tracking) {
                Tracked &entry = tracked_[request.id];
                entry.on_abort = std::move(request.on_abort);
                entry.origin = request.origin;
                armWatchdog(request.id);
            }
            pending_.push_back(std::move(request));
        }
        Tick duration =
            params_.top_half_base + params_.top_half_per_entry * n;
        if (params_.monolithic_bottom_half) {
            // Pre-processing executes in hardirq context (Section V-C).
            duration += params_.bottom_half_base
                + params_.bottom_half_per_entry * n;
        }
        return duration;
    };
    irq.on_complete = [this](CpuCore &core) {
        source_.ack();
        if (pending_.empty())
            return;
        if (params_.monolithic_bottom_half) {
            while (!pending_.empty()) {
                SsrRequest request = std::move(pending_.front());
                pending_.pop_front();
                queueToWorker(std::move(request), core);
            }
        } else {
            if (bh_thread_ == nullptr)
                panic("%s: no bottom-half thread configured",
                      name().c_str());
            scheduler_.wake(bh_thread_, &core);
        }
    };
    return irq;
}

void
SsrDriver::rewrapCompletion(SsrRequest &request)
{
    auto inner = std::move(request.on_service_complete);
    const std::uint64_t id = request.id;
    request.on_service_complete =
        [this, id, inner = std::move(inner)](CpuCore &c) {
            completeRequest(checkHooks(), id, inner, c);
        };
}

void
SsrDriver::snapSave(snap::Writer &w) const
{
    snap::Access::save(w, rng());
    w.u64(pending_.size());
    for (const SsrRequest &request : pending_)
        snapSaveRequest(w, request);
    std::vector<std::uint64_t> ids;
    ids.reserve(tracked_.size());
    for (const auto &[id, entry] : tracked_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    w.u64(ids.size());
    for (const std::uint64_t id : ids) {
        const Tracked &entry = tracked_.at(id);
        w.u64(id);
        w.u64(entry.watchdog);
        w.b(entry.work_queued);
        w.b(entry.aborted);
        w.b(static_cast<bool>(entry.on_abort));
        w.tag(entry.origin);
    }
    w.b(bh_model_.fresh_wake_);
    w.u64(bh_model_.remaining_);
    w.b(bh_model_.in_entry_);
    w.u64(interrupts_);
    w.u64(requests_drained_);
    w.u64(requests_aborted_);
    w.u64(completions_suppressed_);
}

void
SsrDriver::snapRestore(snap::Reader &r, const RequestRebuild &rebuild)
{
    snap::Access::restore(r, rng());
    pending_.clear();
    const std::uint64_t npending = r.u64();
    for (std::uint64_t i = 0; i < npending; ++i)
        pending_.push_back(snapRestoreRequest(r, rebuild));
    tracked_.clear();
    const std::uint64_t ntracked = r.u64();
    for (std::uint64_t i = 0; i < ntracked; ++i) {
        const std::uint64_t id = r.u64();
        Tracked entry;
        entry.watchdog = r.u64();
        entry.work_queued = r.b();
        entry.aborted = r.b();
        const bool had_abort = r.b();
        entry.origin = r.tag();
        if (had_abort) {
            // The abort callback was moved off the request at drain
            // time; rebuild the request's callbacks and take it back.
            SsrRequest origin_request;
            origin_request.id = id;
            origin_request.origin = entry.origin;
            rebuild(origin_request);
            entry.on_abort = std::move(origin_request.on_abort);
        }
        tracked_.emplace(id, std::move(entry));
    }
    bh_model_.fresh_wake_ = r.b();
    bh_model_.remaining_ = r.u64();
    bh_model_.in_entry_ = r.b();
    interrupts_ = r.u64();
    requests_drained_ = r.u64();
    requests_aborted_ = r.u64();
    completions_suppressed_ = r.u64();
}

BurstRequest
SsrDriver::BottomHalfModel::nextBurst(CpuCore &core)
{
    (void)core;
    BurstRequest br;
    if (!in_entry_) {
        if (driver_.pending_.empty()) {
            fresh_wake_ = true;
            br.kind = BurstRequest::Kind::Block;
            return br;
        }
        remaining_ = driver_.params_.bottom_half_per_entry;
        if (fresh_wake_) {
            remaining_ += driver_.params_.bottom_half_base;
            fresh_wake_ = false;
        }
        in_entry_ = true;
    }
    br.kind = BurstRequest::Kind::Run;
    br.duration = remaining_;
    br.kernel_mode = true;
    br.ssr_work = true;
    br.mem_accesses = driver_.params_.bh_footprint_accesses;
    br.branches = driver_.params_.bh_footprint_branches;
    return br;
}

void
SsrDriver::BottomHalfModel::onBurstDone(CpuCore &core, Tick ran,
                                        std::uint64_t instructions_done,
                                        bool completed)
{
    (void)instructions_done;
    if (!in_entry_)
        panic("BottomHalfModel: completion without an entry");
    if (!completed) {
        remaining_ = ran >= remaining_ ? 1 : remaining_ - ran;
        return;
    }
    in_entry_ = false;
    if (driver_.pending_.empty())
        panic("BottomHalfModel: pending queue emptied mid-entry");
    SsrRequest request = std::move(driver_.pending_.front());
    driver_.pending_.pop_front();
    driver_.queueToWorker(std::move(request), core);
}

} // namespace hiss
