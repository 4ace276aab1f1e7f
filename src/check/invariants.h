/**
 * @file
 * Runtime invariant-checking subsystem.
 *
 * InvariantMonitor registers itself as the system's CheckHooks
 * receiver and audits the whole model at a fixed period from a
 * read-only sweep event (plus once more at finalizeStats()). It
 * draws no randomness and mutates no model state, so arming it never
 * perturbs simulation results — a checked run and an unchecked run
 * at the same seed produce bit-identical statistics.
 *
 * Invariant catalogue (see docs/TESTING.md):
 *  - event queue: heap order, no entry behind `now`, slot/generation
 *    and free-list accounting (EventQueue::auditErrors);
 *  - scheduler: a thread is never runnable-and-running, never on two
 *    cores, run-queue membership matches thread states, core/thread
 *    attachment agrees in both directions;
 *  - SSR conservation: per device chain (IOMMU PPRs, GPU signals),
 *    issued == completed + in-flight at every sweep, and every
 *    in-flight request sits in exactly the pipeline stage the model
 *    claims (device queue, bottom-half pending list, workqueue);
 *  - workqueue conservation: pushed == completed + queued +
 *    in-service;
 *  - memory: no frame mapped twice across address spaces, every
 *    mapped frame allocated, every allocated frame mapped;
 *  - stats: counters and distribution sample counts never decrease.
 *
 * Violations throw InvariantError (a FatalError), which propagates
 * out of the event loop to the experiment harness; ExperimentRunner
 * reports the active seed + config before rethrowing so the failure
 * is reproducible from the error output alone.
 */

#ifndef HISS_CHECK_INVARIANTS_H_
#define HISS_CHECK_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/check_hooks.h"
#include "sim/logging.h"
#include "sim/sim_object.h"

namespace hiss {

class HeteroSystem;
class SsrDriver;
class Stat;

namespace check {

/** Thrown on the first invariant violation found. */
class InvariantError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** The armed checker; owned by HeteroSystem when checking is on. */
class InvariantMonitor final : public SimObject, public CheckHooks
{
  public:
    /** Event sites, indexed into kSiteKinds. */
    enum Site : std::uint32_t { kSweep };
    static constexpr const char *kSiteKinds[] = {"check.sweep"};

    /**
     * Registers the system's SSR chains and schedules the first
     * sweep. The monitor must be constructed before any events run
     * so its ledgers see every request from the start.
     */
    InvariantMonitor(SimContext &ctx, HeteroSystem &sys, Tick period);
    ~InvariantMonitor() override;

    /// @name CheckHooks interface (called from instrumented model code).
    /// @{
    void onSsrIssued(const void *source, std::uint64_t id) override;
    void onSsrDrained(const void *source, std::uint64_t id) override;
    void onSsrWorkQueued(const void *source, std::uint64_t id) override;
    void onSsrCompleted(const void *source, std::uint64_t id) override;
    void onSsrAborted(const void *source, std::uint64_t id) override;
    void onSsrInjectedLoss(const void *source,
                           std::uint64_t id) override;
    /// @}

    /**
     * Run one full sweep immediately (also invoked from the periodic
     * sweep event and from HeteroSystem::finalizeStats()).
     * @throws InvariantError on the first violation.
     */
    void sweepNow();

    void fire(const snap::Tag &tag) override;

    /** Completed sweeps so far. */
    std::uint64_t sweeps() const { return sweeps_; }

    /** Individual check-category executions across all sweeps. */
    std::uint64_t checksRun() const { return checks_run_; }

  private:
    /** Where an in-flight SSR request currently sits. Aborted means
     *  the recovery watchdog gave up on it but its zombie work item
     *  still occupies the workqueue until it retires. */
    enum class Stage { DeviceQueued, Drained, WorkQueued, Aborted };

    /** Ledger for one device -> driver -> workqueue chain. */
    struct Chain
    {
        std::string label;
        const void *source = nullptr;
        const SsrDriver *driver = nullptr;
        std::function<std::uint64_t()> device_issued;
        std::function<std::uint64_t()> device_completed;
        std::function<std::size_t()> device_depth;
        /** Device-side abort counter (fault injection); may be null. */
        std::function<std::uint64_t()> device_aborted;

        std::unordered_map<std::uint64_t, Stage> stage;
        std::uint64_t hook_issued = 0;
        std::uint64_t hook_completed = 0;
        /** Requests the watchdog aborted (may still be in-flight). */
        std::uint64_t hook_aborted = 0;
        /** Aborted requests whose zombie completion has retired. */
        std::uint64_t hook_retired = 0;
        /** Requests the fault injector lost (ledger-verified). */
        std::uint64_t hook_lost = 0;
        std::size_t in_device = 0;
        std::size_t drained = 0;
        std::size_t work_queued = 0;
    };

    Chain &chainFor(const void *source);
    void scheduleSweep();

    [[noreturn]] void fail(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    void checkEventQueue();
    void checkScheduler();
    void checkSsrConservation();
    void checkWorkQueue();
    void checkMemory();
    void checkStats();

    HeteroSystem &sys_;
    Tick period_;
    std::vector<Chain> chains_;
    std::unordered_map<const Stat *, std::uint64_t> counter_snapshot_;
    std::uint64_t sweeps_ = 0;
    std::uint64_t checks_run_ = 0;
};

} // namespace check
} // namespace hiss

#endif // HISS_CHECK_INVARIANTS_H_
