/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick FIFO
 * semantics, runUntil boundaries and reset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace cxlmemo
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(101, [&] { ++fired; });
    const bool drained = eq.runUntil(100);
    EXPECT_FALSE(drained);
    EXPECT_EQ(fired, 2);        // the event exactly at the limit runs
    EXPECT_EQ(eq.curTick(), 100u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilReturnsTrueWhenDrained)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_TRUE(eq.runUntil(1000));
}

TEST(EventQueue, RunUntilAdvancesClockToLimitWhenStopped)
{
    EventQueue eq;
    eq.schedule(500, [] {});
    eq.runUntil(200);
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick observed = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(25, [&] { observed = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(observed, 125u);
}

TEST(EventQueue, ResetDropsPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.reset();
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

// --- Calendar-queue structure tests: the wheel covers ~2 us in ~4 ns
// windows; later events spill to a heap. These cross those seams.

TEST(EventQueue, SameTickFifoAcrossManyWindows)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two ticks that land in different wheel windows, then
    // check each tick's callbacks run in scheduling order.
    const Tick early = ticksFromNs(10);
    const Tick late = ticksFromNs(500); // different window
    for (int i = 0; i < 8; ++i) {
        eq.schedule(late, [&order, i] { order.push_back(100 + i); });
        eq.schedule(early, [&order, i] { order.push_back(i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(order[8 + i], 100 + i);
    }
}

TEST(EventQueue, FarHorizonEventsRunInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Far beyond the ~2 us wheel horizon: these take the spill heap.
    eq.schedule(ticksFromUs(50), [&] { order.push_back(2); });
    eq.schedule(ticksFromUs(5), [&] { order.push_back(1); });
    eq.schedule(ticksFromNs(3), [&] { order.push_back(0); });
    eq.schedule(ticksFromUs(500), [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), ticksFromUs(500));
}

TEST(EventQueue, FarHorizonSameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(ticksFromUs(100), [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReentrantSchedulingIntoCurrentWindow)
{
    // A callback scheduling zero/short-delay follow-ups lands in the
    // window that is already sorted and executing; ordering must hold.
    EventQueue eq;
    std::vector<Tick> at;
    eq.schedule(100, [&] {
        eq.scheduleIn(0, [&] { at.push_back(eq.curTick()); });
        eq.scheduleIn(1, [&] { at.push_back(eq.curTick()); });
        eq.scheduleIn(7, [&] { at.push_back(eq.curTick()); });
    });
    eq.schedule(104, [&] { at.push_back(eq.curTick()); });
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{100, 101, 104, 107}));
}

TEST(EventQueue, ZeroDelayChainsPreserveFifoWithPending)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(0);
        eq.scheduleIn(0, [&] { order.push_back(2); });
    });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RunUntilMidWindowThenResume)
{
    EventQueue eq;
    std::vector<int> order;
    // All three land in the same ~4 ns wheel window.
    eq.schedule(1000, [&] { order.push_back(1); });
    eq.schedule(1010, [&] { order.push_back(2); });
    eq.schedule(1020, [&] { order.push_back(3); });
    EXPECT_FALSE(eq.runUntil(1010));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.pending(), 1u);
    // New events may arrive between the runUntil calls.
    eq.schedule(1015, [&] { order.push_back(9); });
    EXPECT_TRUE(eq.runUntil(2000));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 9, 3}));
}

TEST(EventQueue, WheelWrapsAcrossManyLaps)
{
    // March time forward over several wheel laps (each lap ~2 us) with
    // a self-rescheduling event; window indices wrap modulo the wheel.
    EventQueue eq;
    int fired = 0;
    std::function<void()> step = [&] {
        if (++fired < 1000)
            eq.scheduleIn(ticksFromNs(10), step);
    };
    eq.schedule(0, step);
    eq.run();
    EXPECT_EQ(fired, 1000);
    EXPECT_EQ(eq.curTick(), 999 * ticksFromNs(10));
}

TEST(EventQueue, RandomizedOrderMatchesStableSortReference)
{
    // Property check: any mix of near/far/duplicate ticks executes in
    // exactly stable-sort-by-tick order (i.e. (tick, seq)).
    EventQueue eq;
    Rng rng(1234);
    const int n = 5000;
    std::vector<std::pair<Tick, int>> ref; // (when, id)
    std::vector<int> got;
    for (int i = 0; i < n; ++i) {
        // Bias toward the wheel, with a far tail and many collisions.
        Tick when = rng.below(4) == 0 ? ticksFromUs(3 + rng.below(40))
                                      : rng.below(2000) * 8;
        ref.emplace_back(when, i);
        eq.schedule(when, [&got, i] { got.push_back(i); });
    }
    eq.run();
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(got.size(), ref.size());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(got[i], ref[i].second) << "at position " << i;
    EXPECT_EQ(eq.eventsExecuted(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, RandomizedInterleavedRunUntil)
{
    // Same property, but consumed through stuttering runUntil windows
    // with fresh events injected between them.
    EventQueue eq;
    Rng rng(99);
    std::vector<std::pair<Tick, int>> ref;
    std::vector<int> got;
    int id = 0;
    Tick limit = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 100; ++i) {
            const Tick when = eq.curTick() + rng.below(ticksFromUs(3));
            ref.emplace_back(when, id);
            eq.schedule(when, [&got, id] { got.push_back(id); });
            ++id;
        }
        limit += ticksFromNs(700 + rng.below(900));
        eq.runUntil(limit);
    }
    eq.run();
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(got[i], ref[i].second) << "at position " << i;
}

TEST(EventQueue, ResetAfterPartialRunRestartsClean)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i * 100, [&] { ++fired; });
    eq.schedule(ticksFromUs(10), [&] { ++fired; }); // far heap
    eq.runUntil(500);
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.curTick(), 0u);
    // The queue must be fully reusable, including same-tick FIFO.
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling into the past");
}

TEST(EventQueue, ScheduleInRejectsOverflowingDelay)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.curTick(), 100u);
    // A delay that would wrap the tick counter -- including any
    // negative delay a caller cast to the unsigned Tick -- must throw
    // instead of silently wrapping into the past.
    EXPECT_THROW(eq.scheduleIn(maxTick - 50, [] {}),
                 std::invalid_argument);
    EXPECT_THROW(eq.scheduleIn(static_cast<Tick>(-5), [] {}),
                 std::invalid_argument);
    // The exact boundary still schedules.
    EXPECT_NO_THROW(eq.scheduleIn(maxTick - eq.curTick(), [] {}));
    EXPECT_EQ(eq.pending(), 1u);
}

/* ------------------------- peekNextTick -------------------------- */

TEST(EventQueue, PeekNextTickEmptyQueueReportsMaxTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.peekNextTick(), maxTick);
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(eq.peekNextTick(), maxTick);
}

TEST(EventQueue, PeekNextTickSeesWheelFarAndActiveWindow)
{
    EventQueue eq;
    // Wheel event (near future).
    eq.schedule(ticksFromNs(40), [] {});
    EXPECT_EQ(eq.peekNextTick(), ticksFromNs(40));
    // An out-of-order earlier event in the same unsorted bucket must
    // win the peek: the scan takes the bucket min, not the first entry.
    eq.schedule(ticksFromNs(39), [] {});
    EXPECT_EQ(eq.peekNextTick(), ticksFromNs(39));
    // Far-heap event beyond the wheel horizon does not hide the wheel.
    eq.schedule(ticksFromUs(100), [] {});
    EXPECT_EQ(eq.peekNextTick(), ticksFromNs(39));
    // Drain the wheel: only the far event remains.
    eq.runUntil(ticksFromNs(50));
    EXPECT_EQ(eq.peekNextTick(), ticksFromUs(100));
}

TEST(EventQueue, PeekNextTickSeesRemainderOfSortedWindow)
{
    EventQueue eq;
    // Both land in one ~4 ns window; stop mid-window so the second
    // sits in the already-sorted active window.
    eq.schedule(1000, [] {});
    eq.schedule(1020, [] {});
    eq.runUntil(1005);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.peekNextTick(), 1020u);
}

TEST(EventQueue, PeekNextTickMatchesExecutionUnderRandomLoad)
{
    EventQueue eq;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i)
        eq.schedule(rng.below(ticksFromUs(5)), [] {});
    while (eq.pending() > 0) {
        const Tick peek = eq.peekNextTick();
        const std::uint64_t before = eq.eventsExecuted();
        eq.runUntil(peek);
        // At least one event must sit exactly at the peeked tick.
        EXPECT_GT(eq.eventsExecuted(), before);
        EXPECT_EQ(eq.curTick(), peek);
    }
}

/* ------------------------ external drive ------------------------- */

TEST(EventQueue, ExternalDriveAllowsSchedulingAndAdvance)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    eq.beginExternalDrive();
    eq.schedule(150, [] {});
    eq.endExternalDrive();
    eq.advanceTo(120);
    EXPECT_EQ(eq.curTick(), 120u);
    eq.run();
    EXPECT_EQ(eq.curTick(), 150u);
}

TEST(EventQueueDeathTest, ResetFromStagedCallbackPanics)
{
    // A staged cross-window callback runs under an external drive, not
    // inside runUntil; reset() must refuse there exactly as it does
    // from an ordinary callback.
    EventQueue eq;
    eq.beginExternalDrive();
    EXPECT_DEATH(eq.reset(), "reset called from a callback");
}

TEST(EventQueueDeathTest, RunUntilFromStagedCallbackPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.beginExternalDrive();
    EXPECT_DEATH(eq.runUntil(100), "runUntil called from a callback");
}

TEST(EventQueueDeathTest, ResetFromOrdinaryCallbackPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] { eq.reset(); });
    EXPECT_DEATH(eq.run(), "reset called from a callback");
}

/* ------------------------- callback pool ------------------------- */

TEST(Pool, ReusesFreedCells)
{
    const std::uint64_t a0 = poolAllocCount();
    void *p = poolAlloc(96);
    poolFree(p, 96);
    void *q = poolAlloc(96); // same 128 B size class -> same cell back
    EXPECT_EQ(q, p);
    poolFree(q, 96);
    EXPECT_GE(poolAllocCount() - a0, 2u);
    EXPECT_GE(poolReuseCount(), 1u);
}

TEST(Pool, LargeAllocationsFallBackToOperatorNew)
{
    const std::uint64_t f0 = poolFallbackCount();
    void *p = poolAlloc(64 * kiB);
    EXPECT_NE(p, nullptr);
    poolFree(p, 64 * kiB);
    EXPECT_EQ(poolFallbackCount(), f0 + 1);
}

TEST(Pool, SpilledCallbacksRoundTripThroughThePool)
{
    // A capture bigger than the inline buffer spills to a pool cell;
    // scheduling and running many such events must recycle cells, and
    // the callback must still see its payload intact.
    struct Big
    {
        std::uint64_t payload[12]; // 96 B > 48 B inline buffer
    };
    EventQueue eq;
    const std::uint64_t a0 = poolAllocCount();
    std::uint64_t sum = 0;
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t i = 0; i < 8; ++i) {
            Big big{};
            big.payload[11] = i;
            eq.scheduleIn(10 + i, [big, &sum] { sum += big.payload[11]; });
        }
        eq.run();
    }
    EXPECT_EQ(sum, 4u * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
    EXPECT_GE(poolAllocCount() - a0, 32u);
    EXPECT_GE(poolReuseCount(), 1u);
}

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(ticksFromNs(1.0), tickPerNs);
    EXPECT_EQ(ticksFromUs(1.0), 1000 * tickPerNs);
    EXPECT_DOUBLE_EQ(nsFromTicks(ticksFromNs(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(usFromTicks(ticksFromUs(7.0)), 7.0);
}

TEST(Types, BandwidthHelpers)
{
    // 64 bytes in 1 ns = 64 GB/s.
    EXPECT_NEAR(gbPerSec(64, ticksFromNs(1.0)), 64.0, 1e-9);
    // Serialization of 64 B at 64 GB/s = 1 ns.
    EXPECT_EQ(serializationTicks(64, 64.0), ticksFromNs(1.0));
    EXPECT_EQ(gbPerSec(100, 0), 0.0);
}

} // namespace
} // namespace cxlmemo
