/**
 * @file
 * Instrumentation hook interface for the runtime invariant layer.
 *
 * Model code reports lifecycle transitions (SSR request issue, drain,
 * work-queue handoff, completion) through this interface when a
 * checker is armed. The pointer lives in SimContext next to the trace
 * writer and is null by default, so every instrumentation site costs
 * one predictable branch when checking is off. The concrete checker
 * (check::InvariantMonitor) lives in src/check and registers itself
 * when SystemConfig::check_invariants is set.
 */

#ifndef HISS_SIM_CHECK_HOOKS_H_
#define HISS_SIM_CHECK_HOOKS_H_

#include <cstdint>

namespace hiss {

/**
 * Compile-time default for SystemConfig::check_invariants. The
 * HISS_CHECK=ON CMake option defines HISS_CHECK_DEFAULT_ON so every
 * simulation in that build runs with the invariant layer armed.
 */
#ifdef HISS_CHECK_DEFAULT_ON
inline constexpr bool kCheckDefaultArmed = true;
#else
inline constexpr bool kCheckDefaultArmed = false;
#endif

/**
 * Receiver of per-event model transitions. SSR requests are keyed by
 * their originating device queue (the RequestSource the driver
 * drains) plus the device-assigned request id, which together are
 * unique for the lifetime of a simulation.
 */
class CheckHooks
{
  public:
    virtual ~CheckHooks() = default;

    /** A device queued a new service request (IOMMU PPR, signal). */
    virtual void onSsrIssued(const void *source, std::uint64_t id) = 0;

    /** The top half drained the request from the device queue. */
    virtual void onSsrDrained(const void *source, std::uint64_t id) = 0;

    /** The bottom half handed the request to the work queue. */
    virtual void onSsrWorkQueued(const void *source,
                                 std::uint64_t id) = 0;

    /** The service completed and the device callback ran. */
    virtual void onSsrCompleted(const void *source,
                                std::uint64_t id) = 0;

    /**
     * The driver watchdog aborted the request (graceful degradation
     * under fault injection). The request stays accounted until it
     * retires through onSsrCompleted: when the driver cancels its
     * still-queued work item, or when its zombie work item completes.
     */
    virtual void onSsrAborted(const void *source, std::uint64_t id) = 0;

    /**
     * The fault injector permanently lost the request at the device
     * (e.g. GPU signal-queue loss). Must match the injector's loss
     * ledger or the checker reports a genuine leak.
     */
    virtual void onSsrInjectedLoss(const void *source,
                                   std::uint64_t id) = 0;
};

} // namespace hiss

#endif // HISS_SIM_CHECK_HOOKS_H_
