/**
 * @file
 * Kernel work queues and kworker execution models.
 *
 * Models Linux's *per-CPU bound* work queues (what the
 * amd_iommu_v2 driver allocates): a work item executes on the
 * kworker of the core that submitted it. This is why steering all
 * SSR interrupts to one core concentrates the whole handling chain
 * there (paper Section V-A), and why the default spread policy
 * scatters service work across every core. Workers run at
 * user-equivalent priority, so CPU-resident applications can delay
 * them — the mechanism behind the paper's GPU slowdowns — and the
 * QoS governor can inject exponential-backoff delays before each
 * item (Fig. 11).
 */

#ifndef HISS_OS_WORKQUEUE_H_
#define HISS_OS_WORKQUEUE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "os/scheduler.h"
#include "os/thread.h"
#include "sim/logging.h"
#include "sim/sim_object.h"

namespace hiss {

class QosGovernor;
class FaultInjector;

/**
 * Snapshot identity of a WorkItem: the plain fields of the service
 * request it performs (workqueue.h cannot name SsrRequest — services
 * includes this header — so the request travels flattened). Filled
 * by SystemServices when it builds the item; an item without one
 * (valid == false) cannot cross a snapshot.
 */
struct WorkItemSnap
{
    bool valid = false;
    std::uint64_t id = 0;
    std::uint32_t kind = 0; ///< ServiceKind as an integer.
    std::uint32_t pasid = 0;
    std::uint64_t vpn = 0;
    Tick issued_at = 0;
    Tick drained_at = 0;
    Tick queued_at = 0;
    /** Device-callback identity (SsrRequest::origin). */
    snap::Tag origin;
    bool driver_wrapped = false;
    std::uint64_t driver_index = 0;
};

/** One deferred unit of kernel work. */
struct WorkItem
{
    /** CPU time needed to service the item. */
    Tick duration = 0;
    /** Invoked on the servicing core when the item completes. */
    // HISS_STATE_EXEMPT(on_complete, save restore): callback; rebuilt
    // by SystemServices::rebuildWorkItem from the snap identity
    std::function<void(CpuCore &)> on_complete;
    /** Invoked when a kworker picks the item up (stage latency). */
    // HISS_STATE_EXEMPT(on_service_start, save restore): callback;
    // rebuilt by SystemServices::rebuildWorkItem from the snap identity
    std::function<void(Tick)> on_service_start;
    /**
     * Kernel footprint driven through the servicing core's L1D/BP:
     * distinct lines touched and dynamic branches executed.
     */
    // HISS_STATE_EXEMPT(footprint_accesses, save restore): derived;
    // recomputed by rebuildWorkItem from the snap identity
    std::uint32_t footprint_accesses = 96;
    // HISS_STATE_EXEMPT(footprint_branches, save restore): derived;
    // recomputed by rebuildWorkItem from the snap identity
    std::uint32_t footprint_branches = 700;
    /** True if this item is SSR work (QoS accounting + throttling). */
    // HISS_STATE_EXEMPT(ssr, save restore): derived; recomputed by
    // rebuildWorkItem from the snap identity
    bool ssr = true;
    /** Set by the queue on push; used for latency stats. */
    Tick enqueued_at = 0;
    /** Kworker pickup stamp shared with on_complete, so a snapshot
     *  can read it back out (null for hand-built test items). */
    // HISS_STATE_EXEMPT(service_start, restore): the saved stamp is
    // fed through rebuildWorkItem, which re-creates the shared cell
    std::shared_ptr<Tick> service_start;
    /** Snapshot identity (see WorkItemSnap). */
    // HISS_STATE_EXEMPT(snap, restore): reassembled into the
    // WorkItemSnap aggregate that rebuildWorkItem consumes
    WorkItemSnap snap;
};

/** Serialize one item; throws SnapshotError if it carries no
 *  snapshot identity. */
void snapSaveWorkItem(snap::Writer &w, const WorkItem &item);

/**
 * Rebuilds a live WorkItem from its snapshot identity plus the saved
 * jittered duration and stage stamps (Kernel supplies this; it routes
 * through SystemServices::rebuildWorkItem so no RNG is drawn).
 */
using WorkItemRebuild = std::function<WorkItem(
    const WorkItemSnap &, Tick duration, Tick service_start_at,
    Tick enqueued_at)>;

/** Read back an item saved by snapSaveWorkItem. */
WorkItem snapRestoreWorkItem(snap::Reader &r,
                             const WorkItemRebuild &rebuild);

/** A per-CPU bound work queue drained by per-core kworkers. */
class WorkQueue : public SimObject
{
  public:
    WorkQueue(SimContext &ctx, const std::string &name,
              Scheduler &scheduler, int num_cores);

    /** Attach the kworker thread bound to @p core. */
    void addWorker(Thread *worker, int core);

    /**
     * Enqueue an item on the submitting core's sub-queue and wake
     * its kworker.
     * @param from submitting core (nullptr routes to core 0).
     */
    void push(WorkItem item, CpuCore *from);

    bool empty(int core) const
    {
        return queues_[static_cast<std::size_t>(core)].empty();
    }
    std::size_t depth(int core) const
    {
        return queues_[static_cast<std::size_t>(core)].size();
    }
    std::size_t totalDepth() const;

    /** Pop the oldest item on @p core's sub-queue; panics if empty. */
    WorkItem pop(int core);

    /**
     * Remove the still-queued item of request @p id that driver
     * @p driver_index queued, as Linux's cancel_work does: the item
     * never runs and never completes. @returns false when no such
     * item is queued (a kworker already took it, or it never was).
     */
    bool cancel(std::uint64_t driver_index, std::uint64_t id);

    std::uint64_t pushed() const { return pushed_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t cancelled() const { return cancelled_; }

    /**
     * Items popped by a kworker but not yet completed. Together with
     * pushed/completed/cancelled/totalDepth this closes the
     * conservation identity pushed == completed + cancelled + queued
     * + in-service that the invariant layer checks at every sweep.
     */
    std::uint64_t inService() const { return in_service_; }

    void noteCompleted()
    {
        if (in_service_ == 0)
            panic("WorkQueue %s: completion without a popped item",
                  name().c_str());
        --in_service_;
        ++completed_;
    }

    /** Record queue latency (push -> service start). */
    void sampleLatency(Tick latency)
    {
        latency_.sample(static_cast<double>(latency));
    }

    /// @name Snapshot support (queued items + conservation counters).
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r, const WorkItemRebuild &rebuild);
    /// @}

  private:
    Scheduler &scheduler_;
    std::vector<std::deque<WorkItem>> queues_;
    // HISS_STATE_EXEMPT(workers_): wiring; kworker threads are owned
    // and serialized by the kernel thread table, re-attached via
    // addWorker at construction
    std::vector<Thread *> workers_;
    std::uint64_t pushed_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t in_service_ = 0;
    Distribution &latency_;
};

/**
 * Execution model of a per-core kworker: pops items off its core's
 * sub-queue, applies QoS backpressure delays when the governor says
 * SSR time is over budget, and services each item as a kernel-mode
 * burst.
 */
class WorkerModel : public ExecutionModel
{
  public:
    /**
     * @param queue    the queue this worker serves.
     * @param core     the core this worker is bound to.
     * @param governor optional QoS governor consulted before each
     *                 SSR item (nullptr = no throttling).
     * @param faults   optional fault injector that can stall this
     *                 worker before it takes an item (nullptr = none).
     */
    WorkerModel(WorkQueue &queue, int core,
                QosGovernor *governor = nullptr,
                FaultInjector *faults = nullptr);

    BurstRequest nextBurst(CpuCore &core) override;
    void onBurstDone(CpuCore &core, Tick ran,
                     std::uint64_t instructions_done,
                     bool completed) override;

    /** Current exponential-backoff delay (0 = not backing off). */
    Tick backoffDelay() const { return backoff_; }

    /// @name Snapshot support (in-service item + backoff state).
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r, const WorkItemRebuild &rebuild);
    /// @}

  private:
    WorkQueue &queue_;
    // HISS_STATE_EXEMPT(core_): identity; one worker model per core,
    // fixed at construction
    int core_;
    // HISS_STATE_EXEMPT(governor_): wiring; borrowed governor pointer
    // bound at construction
    QosGovernor *governor_;
    // HISS_STATE_EXEMPT(faults_): wiring; borrowed injector pointer
    // bound at construction
    FaultInjector *faults_;
    std::optional<WorkItem> current_;
    Tick remaining_ = 0;
    Tick backoff_ = 0;
};

} // namespace hiss

#endif // HISS_OS_WORKQUEUE_H_
