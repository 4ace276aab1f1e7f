/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject has a hierarchical name, shares the system's EventQueue
 * and StatRegistry, and owns a deterministic Rng stream derived from
 * the experiment seed and its name. It is also an EventTarget: a
 * component that schedules events declares its sites (an enum plus a
 * kind-string table) and runs each site's body in fire(). Its name is
 * its identity in snapshots.
 */

#ifndef HISS_SIM_SIM_OBJECT_H_
#define HISS_SIM_SIM_OBJECT_H_

#include <string>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/ticks.h"

namespace hiss {

class TraceWriter;
class CheckHooks;
class FaultInjector;

/** Shared simulation context handed to every SimObject. */
struct SimContext
{
    EventQueue &events;
    StatRegistry &stats;
    std::uint64_t seed = 1;
    /** Optional timeline writer (chrome://tracing); may be null. */
    TraceWriter *trace = nullptr;
    /** Optional invariant-layer hooks (src/check); may be null. */
    CheckHooks *checks = nullptr;
    /** Optional fault injector (src/fault); null in fault-free runs. */
    FaultInjector *faults = nullptr;
};

/** Base class for every simulated component. */
class SimObject : public EventTarget
{
  public:
    /** @param sites kind strings of the sites fire() handles, indexed
     *  by site id (static storage; empty for objects that schedule
     *  nothing). */
    SimObject(SimContext &ctx, std::string name, SiteKinds sites = {});

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }

    /// @name EventTarget.
    /// @{
    /** Objects that schedule events override this; the default
     *  panics, since no event can name an object without sites. */
    void fire(const snap::Tag &tag) override;
    const char *targetName() const override { return name_.c_str(); }
    SiteKinds siteKinds() const override { return sites_; }
    /// @}

    /** Current simulated time. */
    Tick now() const { return ctx_.events.now(); }

  protected:
    /** The shared simulation context (for constructing children). */
    SimContext &ctx() { return ctx_; }

    EventQueue &events() { return ctx_.events; }
    const EventQueue &events() const { return ctx_.events; }
    StatRegistry &stats() { return ctx_.stats; }
    Rng &rng() { return rng_; }
    const Rng &rng() const { return rng_; }

    /** The attached timeline writer, or nullptr. */
    TraceWriter *traceWriter() const { return ctx_.trace; }

    /** The armed invariant-layer hooks, or nullptr (the common case). */
    CheckHooks *checkHooks() const { return ctx_.checks; }

    /** The fault injector, or nullptr in fault-free runs. */
    FaultInjector *faultInjector() const { return ctx_.faults; }

    /**
     * Schedule this object's site @p site after @p delay ticks: fire()
     * will see a tag whose self token is (siteKinds()[site], a, b, c)
     * and whose arg token is @p arg.
     */
    EventId
    scheduleAfter(Tick delay, EventPriority prio, std::uint32_t site,
                  std::uint64_t a = 0, std::uint64_t b = 0,
                  std::uint64_t c = 0, const snap::Token &arg = {})
    {
        return ctx_.events.schedule(
            now() + delay, *this,
            snap::Tag{{sites_[site], a, b, c}, arg, site}, prio);
    }

    /** Emit a trace line tagged with this object's name. */
    void trace(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    SimContext &ctx_;
    std::string name_;
    SiteKinds sites_;
    Rng rng_;
};

} // namespace hiss

#endif // HISS_SIM_SIM_OBJECT_H_
