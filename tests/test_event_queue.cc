/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace hiss {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityOrdersSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); }, EventPriority::Default);
    q.schedule(10, [&] { order.push_back(0); }, EventPriority::Interrupt);
    q.schedule(10, [&] { order.push_back(1); }, EventPriority::Device);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    const EventId id = q.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(q.pending(id));
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id)); // Double cancel is rejected.
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    q.runUntil(100);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue q;
    std::vector<Tick> times;
    q.schedule(10, [&] {
        times.push_back(q.now());
        q.schedule(10, [&] { times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10}));
}

TEST(EventQueue, NumExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i + 1), [] {});
    q.run();
    EXPECT_EQ(q.numExecuted(), 7u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.step();
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numExecuted(), 0u);
}

TEST(EventQueue, StaleIdsDoNotAliasReusedSlots)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    // The new event reuses a's slot; the stale id must not match it.
    const EventId b = q.schedule(20, [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.pending(a));
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.pending(b));
    q.run();
    EXPECT_FALSE(q.pending(b));
    EXPECT_EQ(q.numExecuted(), 1u);
}

// Regression: the seed implementation kept an unordered_set entry per
// live event and per cancelled-but-unpopped event, so cancel-heavy
// long runs grew without bound. Bookkeeping must stay bounded by the
// peak number of concurrently pending events, not by history.
TEST(EventQueue, BookkeepingBoundedUnderChurn)
{
    EventQueue q;
    constexpr int kCycles = 100000;
    std::uint64_t fired = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        q.schedule(q.now() + 1, [&fired] { ++fired; });
        // A far-future event cancelled immediately: lazy deletion
        // would strand it in the heap for the whole run.
        const EventId doomed =
            q.schedule(q.now() + 1000000000, [] {});
        ASSERT_TRUE(q.cancel(doomed));
        ASSERT_TRUE(q.step());
    }
    EXPECT_EQ(fired, static_cast<std::uint64_t>(kCycles));
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_LE(q.heapSize(), 256u);
    EXPECT_LE(q.slotTableSize(), 256u);
}

TEST(EventQueue, CallableOverloadKeepsFifoCancelsAndRefusesSave)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); },
                   EventPriority::Device);
    const EventId doomed =
        q.schedule(10, [&order] { order.push_back(99); });
    EXPECT_TRUE(q.cancel(doomed));

    snap::Writer w;
    try {
        q.saveState(w);
        FAIL() << "a pending callable event was saved";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(EventQueue::kCallableKind),
                  std::string::npos)
            << e.what();
    }
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/** A named target that records the sites it fires. */
struct Recorder : EventTarget
{
    static constexpr const char *kKinds[] = {"rec.a", "rec.b"};

    void
    fire(const snap::Tag &tag) override
    {
        fired.push_back(tag.site * 1000 + tag.self.a);
    }
    const char *targetName() const override { return "rec"; }
    SiteKinds siteKinds() const override { return kKinds; }

    snap::Tag
    tag(std::uint32_t site, std::uint64_t a) const
    {
        return {{kKinds[site], a}, {}, site};
    }

    std::vector<std::uint64_t> fired;
};

TEST(EventQueue, TaggedEventsRoundTripThroughSnapshot)
{
    EventQueue q;
    Recorder rec;
    q.schedule(5, rec, rec.tag(0, 1));
    q.schedule(30, rec, rec.tag(1, 2));
    const EventId cancelled = q.schedule(20, rec, rec.tag(0, 3));
    q.schedule(30, rec, rec.tag(0, 4));
    q.cancel(cancelled);
    q.step();
    snap::Writer w;
    q.saveState(w);

    EventQueue twin;
    Recorder twin_rec;
    snap::Reader r(w.buffer());
    twin.restoreState(r, {&twin_rec});
    EXPECT_TRUE(r.atEnd());
    snap::Writer twin_w;
    twin.saveState(twin_w);
    EXPECT_EQ(twin_w.buffer(), w.buffer());
    q.run();
    twin.run();
    EXPECT_EQ(rec.fired, (std::vector<std::uint64_t>{1, 1002, 4}));
    EXPECT_EQ(twin_rec.fired, (std::vector<std::uint64_t>{1002, 4}));
}

/** One saved live event, written by hand. */
struct SavedEvent
{
    Tick when = 10;
    std::uint32_t slot = 0;
    std::uint32_t gen = 1;
    const char *target = "rec";
    const char *kind = "rec.a";
};

/**
 * An "events" section with @p gens slot generations, free list
 * @p free_slots and the given live events, at time @p now; the event
 * table may be inconsistent.
 */
std::string
eventsPayload(Tick now, const std::vector<std::uint32_t> &gens,
              const std::vector<std::uint32_t> &free_slots,
              const std::vector<SavedEvent> &live)
{
    snap::Writer w;
    w.section("events");
    w.u64(now);
    w.u64(live.size()); // next sequence
    w.u64(0);           // executed
    w.u64(gens.size());
    for (const std::uint32_t gen : gens)
        w.u32(gen);
    w.u64(free_slots.size());
    for (const std::uint32_t slot : free_slots)
        w.u32(slot);
    w.u64(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        const SavedEvent &e = live[i];
        w.u64(e.when);
        w.u64((std::uint64_t{30} << 48) | i);
        w.u32(e.slot);
        w.u32(e.gen);
        w.str(e.target);
        w.tag({{e.kind}, {}});
    }
    return w.buffer();
}

/** Restore @p payload; return the SnapshotError text ("" if none). */
std::string
restoreError(const std::string &payload)
{
    EventQueue q;
    Recorder rec;
    snap::Reader r(payload);
    try {
        q.restoreState(r, {&rec});
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

// Each payload below is well-formed bytes, so a checksum would pass
// it, but names an event that would count as pending and never fire:
// restore must refuse it, naming its tick, instead of leaving a queue
// that never drains.
TEST(EventQueue, RestoreRejectsInconsistentEventTables)
{
    EXPECT_EQ(restoreError(eventsPayload(0, {1}, {}, {{}})), "");

    const auto expectRefused = [](const std::string &payload,
                                  const std::string &needle) {
        const std::string err = restoreError(payload);
        EXPECT_NE(err.find("tick 10"), std::string::npos) << err;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    // (slot, gen) mismatch.
    expectRefused(eventsPayload(0, {2}, {}, {{}}), "generation");
    // Two live events in one slot.
    expectRefused(eventsPayload(0, {1, 1}, {1}, {{}, {}}), "slot 0");
    // A live slot that is also on the free list.
    expectRefused(eventsPayload(0, {1}, {0}, {{}}), "slot 0");
    // An event behind the restored clock.
    expectRefused(eventsPayload(50, {1}, {}, {{}}), "behind now");
    // Unknown target and unknown site, each by name.
    SavedEvent stranger;
    stranger.target = "nobody";
    expectRefused(eventsPayload(0, {1}, {}, {stranger}), "'nobody'");
    SavedEvent bad_site;
    bad_site.kind = "rec.zzz";
    expectRefused(eventsPayload(0, {1}, {}, {bad_site}), "'rec.zzz'");
    // Structural damage elsewhere in the table (a slot that is
    // neither live nor free) is caught by the audit.
    EXPECT_NE(restoreError(eventsPayload(0, {1, 1}, {}, {{}})).find(
                  "event table"),
              std::string::npos);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

} // namespace
} // namespace hiss
