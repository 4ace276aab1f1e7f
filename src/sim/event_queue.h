/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single EventQueue drives the whole simulated SoC. An event is
 * data: a snap::Tag naming its schedule site and the integers the
 * site's body needs, plus the EventTarget whose fire() runs that body.
 * Events are scheduled at an absolute tick with a priority; events at
 * the same (tick, priority) execute in scheduling (FIFO) order, which
 * keeps runs deterministic. Scheduling returns an EventId that can be
 * used to cancel the event before it fires.
 *
 * Because the tag is the whole event, saveState() writes each live
 * event's target name and tag, and restoreState() maps the name back
 * to the target through one table.
 *
 * Hot-path design: an EventId packs a slot-table index and a
 * generation counter, so cancel()/pending() are O(1) array probes
 * instead of hash-set lookups, and no per-event bookkeeping survives
 * execution. The slot table holds each event's target and tag, and
 * the heap orders 24-byte POD keys, so every sift is a few trivial
 * copies and nothing allocates per event. step() dispatches with one
 * virtual call; each target switches on Tag::site, a small integer,
 * never on the kind string. Cancelled events are deleted lazily when
 * their key surfaces at the top of the heap; a compaction pass keeps
 * heap memory bounded under cancel-heavy workloads.
 *
 * Plain callables (tests, examples, microbenchmarks) use the
 * schedule(Tick, F) overload: F's bytes ride in the tag's payload
 * words and a per-type trampoline is the target. Such events cannot
 * be saved.
 */

#ifndef HISS_SIM_EVENT_QUEUE_H_
#define HISS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/ticks.h"
#include "snap/snap.h"

namespace hiss {

/** Opaque handle identifying a scheduled event. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Well-known event priorities. Lower numeric value runs first at a
 * given tick. Device/interrupt activity precedes scheduler decisions,
 * which precede plain work completion, mirroring how hardware
 * interrupt delivery preempts software within a cycle.
 */
enum class EventPriority : int {
    Interrupt = 0,  ///< Interrupt/IPI delivery.
    Device = 10,    ///< Device state machines (IOMMU, GPU).
    Scheduler = 20, ///< OS scheduling decisions.
    Default = 30,   ///< Ordinary work completion.
    Stats = 40,     ///< Sampling/accounting; observes settled state.
};

/** Site id -> kind string table of one EventTarget. */
using SiteKinds = std::span<const char *const>;

/** Something pending events dispatch to. */
class EventTarget
{
  public:
    virtual ~EventTarget() = default;

    /** Run the event @p tag describes (switch on tag.site). */
    virtual void fire(const snap::Tag &tag) = 0;

    /** Stable identity written into snapshots; nullptr for targets
     *  whose events cannot be saved. */
    virtual const char *targetName() const = 0;

    /** The kinds of the sites fire() handles, indexed by Tag::site. */
    virtual SiteKinds siteKinds() const = 0;
};

/** The central discrete-event queue. */
class EventQueue
{
  public:
    /** Kind of every event scheduled through the callable overload. */
    static constexpr const char *kCallableKind = "event.callable";

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule the event @p tag on @p target at absolute tick @p when
     * (must be >= now). tag.site must index tag.self.kind in
     * target.siteKinds().
     * @return an EventId usable with cancel().
     */
    EventId schedule(Tick when, EventTarget &target, const snap::Tag &tag,
                     EventPriority prio = EventPriority::Default);

    /**
     * Schedule a plain callable at absolute tick @p when. F must be
     * trivially copyable and at most 24 bytes: its bytes are stored
     * in the tag's three payload words, so the event takes the same
     * slot and dispatch as any other, with no heap path. Such an
     * event cannot be saved (saveState() refuses it).
     */
    template <class F>
        requires std::is_invocable_r_v<void, F &>
    EventId
    schedule(Tick when, F fn, EventPriority prio = EventPriority::Default)
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "schedule(Tick, F): F must be trivially copyable");
        static_assert(sizeof(F) <= 3 * sizeof(std::uint64_t)
                          && alignof(F) <= alignof(std::uint64_t),
                      "schedule(Tick, F): F must fit in 24 bytes");
        std::uint64_t words[3] = {0, 0, 0};
        std::memcpy(words, &fn, sizeof(F));
        snap::Tag tag;
        tag.self = {kCallableKind, words[0], words[1], words[2]};
        return schedule(when, callableTarget<F>, tag, prio);
    }

    /** Schedule a plain callable @p delay ticks from now. */
    template <class F>
        requires std::is_invocable_r_v<void, F &>
    EventId
    scheduleAfter(Tick delay, F fn,
                  EventPriority prio = EventPriority::Default)
    {
        return schedule(now_ + delay, fn, prio);
    }

    /**
     * Cancel a pending event. @return true if the event was pending
     * and is now cancelled; false if it already ran, was already
     * cancelled, or the id is invalid.
     */
    bool cancel(EventId id);

    /** @return true if the event is still pending. */
    bool pending(EventId id) const;

    /** Number of events awaiting execution. */
    std::size_t numPending() const { return num_pending_; }

    /** Total events executed so far. */
    std::uint64_t numExecuted() const { return executed_; }

    /** @return true when no events remain. */
    bool empty() const { return numPending() == 0; }

    /**
     * Execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until simulated time reaches @p until (events exactly at
     * @p until are executed) or the queue drains. Time is left at
     * @p until if the queue still has later events, else at the last
     * executed event.
     */
    void runUntil(Tick until);

    /** Run until the queue is empty. */
    void run();

    /** Drop all pending events and reset time to zero. */
    void reset();

    /**
     * Heap entries currently held, including lazily-deleted cancelled
     * events awaiting compaction (bounded at ~2x numPending()).
     * Exposed for the bookkeeping-boundedness regression test.
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** Slot-table capacity (bounded by peak concurrent events). */
    std::size_t slotTableSize() const { return slots_.size(); }

    /**
     * Exhaustive structural self-check for the invariant layer
     * (src/check): heap ordering, time monotonicity (no entry behind
     * `now`), slot/generation agreement, free-list consistency, and
     * the pending/dead accounting identities. O(heap + slots).
     * @return an empty string when consistent, else a description of
     * the first violation found.
     */
    std::string auditErrors() const;

    /** Visit every live event's target and tag (tests, tooling). */
    void forEachPending(
        const std::function<void(const EventTarget &, const snap::Tag &)>
            &visit) const;

    /**
     * Serialize the queue: time/sequence counters, the exact slot
     * table and free-list layout (so EventIds held by components
     * stay valid verbatim across restore), and every live event with
     * its target's name and its tag. @throws snap::SnapshotError if a
     * live event's target has no name (a plain callable).
     */
    void saveState(snap::Writer &w) const;

    /**
     * Restore a queue saved by saveState() into this queue, mapping
     * each event's target name to one of @p targets and its kind to a
     * site of that target. The heap is rebuilt with std::make_heap;
     * the pop order is identical to the saved queue's because (when,
     * order) keys are unique. @throws snap::SnapshotError on an
     * unknown target or site, or an event table that is not
     * self-consistent.
     */
    void restoreState(snap::Reader &r,
                      const std::vector<EventTarget *> &targets);

  private:
    /** The target of every schedule(Tick, F) event of one type F. */
    template <class F>
    struct CallableTarget : EventTarget
    {
        void
        fire(const snap::Tag &tag) override
        {
            const std::uint64_t words[3] = {tag.self.a, tag.self.b,
                                            tag.self.c};
            alignas(F) unsigned char bytes[sizeof(F)];
            std::memcpy(bytes, words, sizeof(F));
            (*std::launder(reinterpret_cast<F *>(bytes)))();
        }
        const char *targetName() const override { return nullptr; }
        SiteKinds siteKinds() const override { return {&kCallableKind, 1}; }
    };
    template <class F>
    static inline CallableTarget<F> callableTarget{};

    /**
     * Heap key: 24-byte POD. `order` packs (priority, FIFO sequence)
     * into one integer — priority in the top 16 bits, a monotonic
     * sequence in the low 48 — so tie-breaking is a single compare
     * and sifts move trivially-copyable values.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t order;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct EntryCompare
    {
        // std::push_heap builds a max-heap; invert for earliest-first.
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    static std::uint64_t
    makeOrder(EventPriority prio, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(static_cast<int>(prio))
                << 48)
            | seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        // slot+1 keeps the id nonzero for every (slot, gen).
        return (static_cast<EventId>(slot + 1) << 32) | gen;
    }
    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32) - 1;
    }
    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    /** True if the entry was cancelled after being pushed. */
    bool
    dead(const Entry &e) const
    {
        return slots_[e.slot].gen != e.gen;
    }

    /** Retire the slot backing @p e so its id stops matching. */
    void
    retireSlot(const Entry &e)
    {
        ++slots_[e.slot].gen;
        free_slots_.push_back(e.slot);
    }

    Entry popEntry();
    void dropDeadTop();
    void maybeCompact();

    /** The live entries of @p heap (@p pending of them) sorted by
     *  (when, order): the canonical order saveState() writes. */
    std::vector<Entry> liveSorted(const std::vector<Entry> &heap,
                                  std::size_t pending) const;

    /** One event: its generation, its target and its tag, written at
     *  schedule time and read when it fires. */
    struct Slot
    {
        std::uint32_t gen = 1;
        EventTarget *target = nullptr;
        snap::Tag tag;
    };

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t num_pending_ = 0;
    // HISS_STATE_EXEMPT(dead_in_heap_, save): save compacts the heap
    // so snapshots never carry dead events and restore resets the
    // count; saving it would break pre-save vs post-restore equality
    std::size_t dead_in_heap_ = 0;
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
};

} // namespace hiss

#endif // HISS_SIM_EVENT_QUEUE_H_
