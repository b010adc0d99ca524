/**
 * @file
 * Tests for the slab-allocated event core: randomized
 * schedule/cancel/rearm interleavings cross-checked against a naive
 * reference queue, FIFO tie-break and heap-property invariants,
 * handle-generation reuse safety, EventFn storage classes, and the
 * queuedEvents() live-count semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "base/types.hh"
#include "sim/simulation.hh"

namespace microscale::sim
{
namespace
{

// ---------------------------------------------------------------- EventFn

TEST(EventFn, EmptyByDefault)
{
    EventFn f;
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(EventFn, InlineInvokes)
{
    int hits = 0;
    EventFn f([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    f();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    EventFn a([&hits] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, NonTrivialInlineCaptureDestroyed)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventFn f([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventFn, OversizedCaptureHeapBoxed)
{
    // > kInlineBytes of capture forces the heap-box path.
    struct Big
    {
        std::uint64_t pad[12];
    };
    Big big{};
    big.pad[11] = 42;
    std::uint64_t seen = 0;
    EventFn f([big, &seen] { seen = big.pad[11]; });
    static_assert(sizeof(big) > EventFn::kInlineBytes);
    EventFn g(std::move(f));
    g();
    EXPECT_EQ(seen, 42u);
}

TEST(EventFn, StdFunctionFitsInline)
{
    // The PeriodicEvent path stores a std::function inside an EventFn.
    static_assert(sizeof(std::function<void()>) <=
                  EventFn::kInlineBytes);
    int hits = 0;
    std::function<void()> fn = [&hits] { ++hits; };
    EventFn f(std::move(fn));
    f();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, ResetReleasesCapture)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventFn f([token] {});
    token.reset();
    f.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(static_cast<bool>(f));
}

// ------------------------------------------------------- slab + handles

TEST(EventCore, QueuedEventsCountsLiveOnly)
{
    Simulation sim;
    EventHandle a = sim.scheduleAt(10, [] {});
    EventHandle b = sim.scheduleAt(20, [] {});
    sim.scheduleAt(30, [] {});
    EXPECT_EQ(sim.queuedEvents(), 3u);
    // A cancelled event leaves a shell in the heap, but the count
    // reports live pending events only.
    a.cancel();
    EXPECT_EQ(sim.queuedEvents(), 2u);
    b.cancel();
    EXPECT_EQ(sim.queuedEvents(), 1u);
    sim.run();
    EXPECT_EQ(sim.queuedEvents(), 0u);
    EXPECT_EQ(sim.eventsProcessed(), 1u);
}

TEST(EventCore, SlotsAreReused)
{
    Simulation sim;
    for (int round = 0; round < 100; ++round) {
        sim.scheduleAfter(1, [] {});
        sim.run();
    }
    // Steady-state churn must not grow the slab.
    EXPECT_LE(sim.slabSlots(), 4u);
}

TEST(EventCore, StaleHandleAfterReuseIsInert)
{
    Simulation sim;
    int first = 0, second = 0;
    EventHandle h = sim.scheduleAt(10, [&] { ++first; });
    sim.run();
    EXPECT_EQ(first, 1);
    EXPECT_FALSE(h.pending());
    // The slot is recycled for a new event; the stale handle must not
    // observe or cancel it.
    sim.scheduleAt(20, [&] { ++second; });
    EXPECT_EQ(sim.slabSlots(), 1u);
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(h.when(), 0u);
    h.cancel();
    sim.run();
    EXPECT_EQ(second, 1);
}

TEST(EventCore, DoubleCancelIsSafe)
{
    Simulation sim;
    bool ran = false;
    EventHandle h = sim.scheduleAt(10, [&] { ran = true; });
    EventHandle copy = h;
    h.cancel();
    h.cancel();
    copy.cancel();
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.queuedEvents(), 0u);
}

TEST(EventCore, CancelReleasesCaptureEagerly)
{
    Simulation sim;
    auto token = std::make_shared<int>(3);
    std::weak_ptr<int> watch = token;
    EventHandle h = sim.scheduleAt(10, [token] {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    h.cancel();
    // Captured resources die at cancel, not at pop.
    EXPECT_TRUE(watch.expired());
}

TEST(EventCore, ManyCancelsCompactHeap)
{
    // Pathological churn: schedule far-future events and cancel them
    // all; lazy deletion must compact instead of accumulating shells.
    Simulation sim;
    int ran = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<EventHandle> hs;
        hs.reserve(50);
        for (int i = 0; i < 50; ++i)
            hs.push_back(
                sim.scheduleAt(1000000 + round, [&ran] { ++ran; }));
        for (EventHandle &h : hs)
            h.cancel();
    }
    EXPECT_EQ(sim.queuedEvents(), 0u);
    // Compaction also recycles the slots, so the slab stays bounded
    // by the peak number of simultaneously-scheduled events.
    EXPECT_LE(sim.slabSlots(), 256u);
    sim.scheduleAt(2000000, [&ran] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), 2000000u);
}

TEST(EventCore, CancelDuringRunUntilBoundarySkip)
{
    Simulation sim;
    int ran = 0;
    EventHandle h = sim.scheduleAt(50, [&] { ++ran; });
    sim.scheduleAt(10, [&] { h.cancel(); });
    sim.runUntil(100);
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.queuedEvents(), 0u);
}

// ------------------------------------------- randomized cross-check

/** Naive reference: linear scan for min-(when, seq), flag cancel. */
struct RefQueue
{
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        int id;
        bool cancelled = false;
        bool fired = false;
    };
    std::vector<Ev> evs;
    std::uint64_t next_seq = 0;

    int add(Tick when, int id)
    {
        evs.push_back({when, next_seq++, id});
        return static_cast<int>(evs.size()) - 1;
    }

    /** Fire all events with when <= until; return ids in order. */
    std::vector<int> drain(Tick until)
    {
        std::vector<int> out;
        for (;;) {
            Ev *best = nullptr;
            for (Ev &e : evs) {
                if (e.cancelled || e.fired || e.when > until)
                    continue;
                if (!best || e.when < best->when ||
                    (e.when == best->when && e.seq < best->seq))
                    best = &e;
            }
            if (!best)
                return out;
            best->fired = true;
            out.push_back(best->id);
        }
    }
};

/**
 * Drive the slab core and the naive reference with an identical random
 * interleaving of schedule/cancel/advance operations, plus rearms when
 * `rearm` is set, and require identical firing orders. The reference
 * models a rearm as cancel plus a new schedule of the same id.
 */
void
checkRandomizedAgainstReference(bool rearm)
{
    std::mt19937_64 rng(12345);
    for (int trial = 0; trial < 20; ++trial) {
        Simulation sim;
        RefQueue ref;
        std::vector<int> simFired, refFired;
        std::vector<std::pair<EventHandle, int>> live; // handle, ref idx
        Tick horizon = 0;
        int next_id = 0;
        for (int op = 0; op < 400; ++op) {
            const std::uint64_t what = rng() % (rearm ? 12 : 10);
            if (what < 6) {
                const Tick when = horizon + rng() % 1000;
                const int id = next_id++;
                live.emplace_back(
                    sim.scheduleAt(when,
                                   [&simFired, id] {
                                       simFired.push_back(id);
                                   }),
                    ref.add(when, id));
            } else if (what < 8 && !live.empty()) {
                const std::size_t pick = rng() % live.size();
                live[pick].first.cancel();
                ref.evs[live[pick].second].cancelled = true;
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            } else if (what >= 10) {
                if (live.empty())
                    continue;
                // Rearm, often onto a tick other events already use.
                const std::size_t pick = rng() % live.size();
                const Tick when = horizon + rng() % 200;
                ASSERT_TRUE(sim.rearmAt(live[pick].first, when));
                ref.evs[live[pick].second].cancelled = true;
                const int id = ref.evs[live[pick].second].id;
                live[pick].second = ref.add(when, id);
                EXPECT_EQ(live[pick].first.when(), when);
            } else {
                horizon += rng() % 500;
                sim.runUntil(horizon);
                const std::vector<int> out = ref.drain(horizon);
                refFired.insert(refFired.end(), out.begin(),
                                out.end());
                // Firing can invalidate handles; drop fired entries.
                live.erase(std::remove_if(
                               live.begin(), live.end(),
                               [](const auto &p) {
                                   return !p.first.pending();
                               }),
                           live.end());
            }
            ASSERT_EQ(simFired, refFired) << "trial " << trial
                                          << " op " << op;
            ASSERT_EQ(sim.queuedEvents(), live.size());
            ASSERT_TRUE(sim.heapConsistent()) << "trial " << trial
                                              << " op " << op;
        }
        horizon += 1000000;
        sim.runUntil(horizon);
        const std::vector<int> out = ref.drain(horizon);
        refFired.insert(refFired.end(), out.begin(), out.end());
        EXPECT_EQ(simFired, refFired) << "trial " << trial;
        EXPECT_EQ(sim.queuedEvents(), 0u);
    }
}

TEST(EventCore, RandomizedMatchesReferenceQueue)
{
    checkRandomizedAgainstReference(false);
}

TEST(EventCore, RandomizedRearmMatchesCancelPlusSchedule)
{
    checkRandomizedAgainstReference(true);
}

TEST(EventCore, RescheduleViaCancelPlusScheduleKeepsFifo)
{
    // The ExecEngine::reprice pattern: cancel the pending completion
    // and schedule a new one, repeatedly, interleaved with other
    // same-tick events. FIFO among equal ticks must follow the final
    // schedule order.
    Simulation sim;
    std::vector<int> order;
    EventHandle completion =
        sim.scheduleAt(100, [&] { order.push_back(0); });
    sim.scheduleAt(100, [&] { order.push_back(1); });
    completion.cancel();
    completion = sim.scheduleAt(100, [&] { order.push_back(2); });
    sim.scheduleAt(100, [&] { order.push_back(3); });
    completion.cancel();
    completion = sim.scheduleAt(100, [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(EventCore, RearmTakesTheSameTickOrderAsCancelPlusSchedule)
{
    // The same sequence as above with the completion moved in place:
    // it must land behind every event scheduled before each rearm.
    Simulation sim;
    std::vector<int> order;
    EventHandle completion =
        sim.scheduleAt(100, [&] { order.push_back(0); });
    sim.scheduleAt(100, [&] { order.push_back(1); });
    ASSERT_TRUE(sim.rearmAt(completion, 100));
    sim.scheduleAt(100, [&] { order.push_back(3); });
    ASSERT_TRUE(sim.rearmAt(completion, 100));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 0}));
}

TEST(EventCore, RearmMovesEarlierAndLater)
{
    Simulation sim;
    std::vector<int> order;
    EventHandle a = sim.scheduleAt(50, [&] { order.push_back(0); });
    sim.scheduleAt(20, [&] { order.push_back(1); });
    EventHandle c = sim.scheduleAt(10, [&] { order.push_back(2); });
    ASSERT_TRUE(sim.rearmAt(a, 5));
    ASSERT_TRUE(sim.rearmAt(c, 30));
    EXPECT_EQ(a.when(), 5u);
    EXPECT_EQ(c.when(), 30u);
    EXPECT_TRUE(sim.heapConsistent());
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(EventCore, RearmOfDeadHandlesIsRefused)
{
    Simulation sim;
    int ran = 0;
    EXPECT_FALSE(sim.rearmAt(EventHandle(), 10)); // inert

    EventHandle fired = sim.scheduleAt(10, [&] { ++ran; });
    sim.run();
    EXPECT_FALSE(sim.rearmAt(fired, 20));

    EventHandle cancelled = sim.scheduleAt(30, [&] { ++ran; });
    EventHandle copy = cancelled;
    cancelled.cancel();
    EXPECT_FALSE(sim.rearmAt(copy, 40));

    // A stale handle whose slot now holds another event.
    EventHandle stale = sim.scheduleAt(50, [&] { ++ran; });
    sim.run();
    EventHandle reuse = sim.scheduleAt(60, [&] { ++ran; });
    EXPECT_FALSE(sim.rearmAt(stale, 70));
    EXPECT_EQ(reuse.when(), 60u);

    // A handle from another simulation.
    Simulation other;
    EventHandle foreign = other.scheduleAt(10, [] {});
    EXPECT_FALSE(sim.rearmAt(foreign, 80));
    EXPECT_EQ(foreign.when(), 10u);

    sim.run();
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(sim.now(), 60u);
    EXPECT_TRUE(sim.heapConsistent());
}

TEST(EventCore, RearmLeavesLiveCountsUnchanged)
{
    Simulation sim;
    EventHandle fg = sim.scheduleAt(10, [] {});
    EventHandle bg = sim.scheduleAt(20, [] {}, /*background=*/true);
    sim.scheduleAt(30, [] {});
    EXPECT_EQ(sim.queuedEvents(), 3u);
    EXPECT_EQ(sim.foregroundQueued(), 2u);
    const std::size_t slots = sim.slabSlots();
    ASSERT_TRUE(sim.rearmAt(fg, 40));
    ASSERT_TRUE(sim.rearmAt(bg, 5));
    EXPECT_EQ(sim.queuedEvents(), 3u);
    EXPECT_EQ(sim.foregroundQueued(), 2u);
    // In place: no new slot, and the background event stays background.
    EXPECT_EQ(sim.slabSlots(), slots);
    sim.run();
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_EQ(sim.foregroundQueued(), 0u);
}

TEST(EventCore, RearmAroundCompactionKeepsHeapPositions)
{
    Simulation sim;
    std::vector<Tick> fired;
    std::vector<EventHandle> keep, drop;
    for (int i = 0; i < 200; ++i) {
        const Tick when = 1000 + static_cast<Tick>((i * 37) % 400);
        EventHandle h =
            sim.scheduleAt(when, [&fired, &sim] {
                fired.push_back(sim.now());
            });
        (i % 4 == 0 ? keep : drop).push_back(h);
    }
    // Before compaction, with cancelled shells still in the heap.
    for (std::size_t i = 0; i < 50; ++i)
        drop[i].cancel();
    for (std::size_t i = 0; i < keep.size(); i += 3)
        ASSERT_TRUE(sim.rearmAt(keep[i], 900 + i));
    ASSERT_TRUE(sim.heapConsistent());
    const std::size_t slots_before = sim.slabSlots();
    for (std::size_t i = 50; i < drop.size(); ++i)
        drop[i].cancel(); // crosses the compaction threshold
    ASSERT_TRUE(sim.heapConsistent());
    EXPECT_EQ(sim.queuedEvents(), keep.size());
    // After compaction: positions were rewritten by the rebuild.
    for (std::size_t i = 1; i < keep.size(); i += 3)
        ASSERT_TRUE(sim.rearmAt(keep[i], 2000 - i));
    ASSERT_TRUE(sim.heapConsistent());
    // Compaction released the dropped slots for reuse.
    sim.scheduleAt(5000, [&fired, &sim] { fired.push_back(sim.now()); });
    EXPECT_EQ(sim.slabSlots(), slots_before);
    sim.run();
    EXPECT_EQ(fired.size(), keep.size() + 1);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

} // namespace
} // namespace microscale::sim
