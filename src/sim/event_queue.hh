/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders callbacks by (tick, insertion sequence).
 * Components capture what they need in the callback; there is no
 * separate Event class hierarchy because the framework schedules
 * hundreds of thousands of short-lived one-shot events (memory request
 * completions), which InlineCallback represents without touching the
 * allocator.
 *
 * Scheduling structure: a two-tier calendar queue.
 *
 *  - Near future: a wheel of power-of-two windows covering the next
 *    ~2 us of simulated time. schedule() appends to the target window's
 *    bucket in O(1); a window is sorted once, when execution reaches
 *    it, by radix-friendly 64-bit keys (in-window offset, arrival
 *    index), so events themselves are never moved by ordering.
 *    Cache/DRAM/flit completions -- the dense bulk of all events --
 *    land here.
 *  - Far future: events beyond the wheel horizon (measurement-window
 *    timers, think-time arrivals) go to a small binary min-heap.
 *
 * Events scheduled *into the currently executing window* (a callback
 * scheduling a zero/short-delay follow-up) also go to the heap, because
 * the window's bucket has already been sorted; the execution loop merges
 * heap and window candidates, so total (tick, seq) order is exact.
 *
 * Reentrancy contract: callbacks may schedule() freely, but must not
 * call runUntil(), run() or reset() on their own queue (asserted).
 */

#ifndef CXLMEMO_SIM_EVENT_QUEUE_HH
#define CXLMEMO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * The event queue at the heart of every simulation.
 *
 * Usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(ticksFromNs(10), [&]{ ... });
 *   eq.run();
 * @endcode
 */
class EventQueue
{
  public:
    /**
     * Inline capture capacity of an event callback. Kept at the same
     * ~48 B sweet spot as the completion callbacks: an Event is then
     * 80 B, so a window's bucket stays cache-resident while sorting
     * and executing. Memory devices keep in-flight requests in slots
     * (sim/slot_pool.hh), so their events capture `{this, slot}` and
     * fit. A capture that carries a whole callback, such as the cache
     * hierarchy's miss dispatch, falls back to one pooled heap cell;
     * measurements show the smaller queue footprint beats keeping
     * such captures inline at 3x the event size.
     */
    static constexpr std::size_t eventInlineBytes = 48;

    using Callback = InlineCallback<void(), eventInlineBytes>;

    EventQueue() : wheel_(numWindows) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events currently pending, observer events included. */
    std::size_t pending() const { return size_; }

    /** Pending observer events (scheduleObserver). */
    std::size_t observersPending() const { return observers_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= curTick(): the past cannot be changed.
     */
    void
    schedule(Tick when, Callback cb)
    {
        CXLMEMO_ASSERT(when >= curTick_,
                       "scheduling into the past (%llu < %llu)",
                       (unsigned long long)when,
                       (unsigned long long)curTick_);
        ++size_;
        if (when < sortedWindowEnd_
            || when - windowStart(curTick_) >= horizonTicks) {
            pushFar(when, std::move(cb));
        } else {
            const std::size_t b = windowIndex(when);
            wheel_[b].emplace_back(when, nextSeq_++, std::move(cb));
            occ_[b >> 6] |= std::uint64_t(1) << (b & 63);
            ++wheelCount_;
        }
    }

    /**
     * Schedule @p cb to run @p delay ticks from now.
     *
     * @throws std::invalid_argument when curTick() + delay overflows
     *     Tick. Tick is unsigned, so a negative delay computed by a
     *     caller arrives here as a huge positive value -- the overflow
     *     check catches both mistakes, in the same throwing style as
     *     the config-validation layer, instead of silently wrapping
     *     into the past and tripping the schedule() assert with a
     *     nonsense tick.
     */
    void
    scheduleIn(Tick delay, Callback cb)
    {
        if (delay > maxTick - curTick_) {
            throw std::invalid_argument(
                "EventQueue::scheduleIn: delay "
                + std::to_string(delay) + " from tick "
                + std::to_string(curTick_)
                + " overflows the tick counter (negative delay?)");
        }
        schedule(curTick_ + delay, std::move(cb));
    }

    /**
     * Schedule an observer event -- a watchdog or metrics snapshot --
     * at @p when. It runs in (tick, seq) order like any other event,
     * but it is not work: runUntil() returns as soon as only observer
     * events remain, so observers never keep each other (or a drained
     * run) alive, and a run that drains ends at its last simulated
     * event rather than at a trailing snapshot.
     */
    template <typename F>
    void
    scheduleObserver(Tick when, F fire)
    {
        ++observers_;
        // F itself, not a Callback, is captured: a small observer
        // lambda keeps the wrapper inline (no allocation).
        schedule(when, [this, fire = std::move(fire)]() mutable {
            --observers_;
            fire();
        });
    }

    /** Register @p hook to run each time the queue quiesces with
     *  observer events pending, after they are dropped: the observers
     *  stand down there (and the watchdog checks for a deadlock). */
    void
    onQuiesce(std::function<void()> hook)
    {
        quiesceHooks_.push_back(std::move(hook));
    }

    /**
     * Drop the pending observer events -- nothing else may be pending
     * -- and run the quiesce hooks. runUntil() calls this when it
     * drains; the parallel executor calls it once every domain is down
     * to observer events. Time stays at the last executed event.
     */
    void
    quiesce()
    {
        CXLMEMO_ASSERT(!running_ && !driven_,
                       "quiesce called from a callback");
        CXLMEMO_ASSERT(size_ == observers_,
                       "quiesce with %zu work event(s) pending",
                       size_ - observers_);
        dropPending();
        for (const auto &hook : quiesceHooks_)
            hook();
    }

    /**
     * Earliest pending event time, without disturbing queue state;
     * maxTick when empty. The parallel executor uses this to pick the
     * next safe-window start across domains.
     */
    Tick
    peekNextTick() const
    {
        if (size_ == 0)
            return maxTick;
        Tick best = maxTick;
        if (activeIdx_ < order_.size())
            best = activeWindowStart_ + (order_[activeIdx_] >> 32);
        if (!far_.empty() && far_.front().when < best)
            best = far_.front().when;
        if (wheelCount_ > 0) {
            // Same occupancy-bitmap scan as loadNextWindow, minus the
            // mutation: find the first populated window, then take the
            // min tick inside its (unsorted) bucket.
            const Tick startTick =
                std::max(nextScanWindow_, windowStart(curTick_));
            const std::size_t s = windowIndex(startTick);
            std::size_t word = s >> 6;
            std::uint64_t bits =
                occ_[word] & (~std::uint64_t(0) << (s & 63));
            while (bits == 0) {
                word = (word + 1) % occWords;
                bits = occ_[word];
            }
            const std::size_t b = (word << 6) + std::countr_zero(bits);
            for (const Event &ev : wheel_[b])
                if (ev.when < best)
                    best = ev.when;
        }
        return best;
    }

    /**
     * Mark the queue as being driven from outside runUntil(): the
     * parallel executor delivers staged cross-window callbacks by
     * invoking them directly at the window barrier. While driven, the
     * usual reentrancy rules apply exactly as inside a callback --
     * schedule() is fine, reset()/runUntil() assert.
     */
    void
    beginExternalDrive()
    {
        CXLMEMO_ASSERT(!running_ && !driven_,
                       "beginExternalDrive on a queue already running");
        driven_ = true;
    }

    void
    endExternalDrive()
    {
        CXLMEMO_ASSERT(driven_, "endExternalDrive without begin");
        driven_ = false;
    }

    /** Advance time to @p now without executing anything (used by the
     *  parallel executor to align an idle domain with the barrier). */
    void
    advanceTo(Tick now)
    {
        CXLMEMO_ASSERT(now >= curTick_, "advanceTo into the past");
        CXLMEMO_ASSERT(peekNextTick() >= now,
                       "advanceTo skipping pending events");
        curTick_ = now;
    }

    /**
     * Run events until the queue drains or @p limit is reached.
     * Events scheduled exactly at @p limit still execute. Draining
     * means only observer events are left; they are dropped and the
     * quiesce hooks run (see scheduleObserver).
     * @return true if the queue drained, false if the limit stopped us.
     */
    bool runUntil(Tick limit) { return dispatch<true>(limit); }

    /** runUntil() for the parallel executor's windows: observer events
     *  execute like any other, and the queue never quiesces by itself
     *  (the executor applies the observer rule across all domains). */
    bool runWindow(Tick limit) { return dispatch<false>(limit); }

    /** Run until the queue is empty. */
    void run() { runUntil(maxTick); }

    /** Drop all pending events and reset time to zero. */
    void
    reset()
    {
        // Staged cross-window callbacks run under an external drive
        // rather than runUntil, so the reentrancy assert must cover
        // both flags -- resetting mid-delivery would free events the
        // executor still holds.
        CXLMEMO_ASSERT(!running_ && !driven_,
                       "reset called from a callback");
        dropPending();
        activeWindowStart_ = 0;
        sortedWindowEnd_ = 0;
        nextScanWindow_ = 0;
        curTick_ = 0;
        nextSeq_ = 0;
        executed_ = 0;
    }

  private:
    /** The dispatch loop; @p Quiesce applies the observer rule. */
    template <bool Quiesce>
    bool
    dispatch(Tick limit)
    {
        CXLMEMO_ASSERT(!running_ && !driven_,
                       "runUntil called from a callback");
        running_ = true;
        while (size_ > (Quiesce ? observers_ : 0)) {
            // Lazily sort the next populated wheel window once the
            // previous one is spent.
            if (activeIdx_ >= order_.size() && wheelCount_ > 0)
                loadNextWindow();

            if (activeIdx_ < order_.size() && far_.empty())
                [[likely]] {
                // Fast path: next event comes from the sorted window
                // and nothing in the heap can precede it. Execute in
                // place -- the callback is never moved.
                const std::uint64_t key = order_[activeIdx_];
                const Tick when = activeWindowStart_ + (key >> 32);
                if (when > limit)
                    return stopAt(limit);
                ++activeIdx_;
                curTick_ = when;
                --size_;
                ++executed_;
                Event &ev = active_[static_cast<std::uint32_t>(key)];
                ev.cb();
                ev.cb = nullptr;
                continue;
            }

            // Merge path: pick the earlier of the window cursor and
            // the far heap by (tick, seq).
            Event *wEv = nullptr;
            Tick wWhen = 0;
            if (activeIdx_ < order_.size()) {
                const std::uint64_t key = order_[activeIdx_];
                wWhen = activeWindowStart_ + (key >> 32);
                wEv = &active_[static_cast<std::uint32_t>(key)];
            }
            Event *fEv = far_.empty() ? nullptr : far_.data();
            const bool fromFar =
                !wEv
                || (fEv
                    && (fEv->when < wWhen
                        || (fEv->when == wWhen && fEv->seq < wEv->seq)));

            const Tick when = fromFar ? fEv->when : wWhen;
            if (when > limit)
                return stopAt(limit);
            curTick_ = when;
            --size_;
            ++executed_;
            if (fromFar) {
                Callback cb = popFar();
                cb();
            } else {
                ++activeIdx_;
                wEv->cb();
                wEv->cb = nullptr;
            }
        }
        running_ = false;
        if (Quiesce && size_ > 0)
            quiesce();
        return true;
    }

    struct Event
    {
        Tick when;
        std::uint64_t seq; //!< FIFO order among same-tick events
        Callback cb;

        Event(Tick w, std::uint64_t s, Callback &&c)
            : when(w), seq(s), cb(std::move(c))
        {}
        Event(Event &&) noexcept = default;
        Event &operator=(Event &&) noexcept = default;
    };

    /** Window geometry: 2^12 ticks (~4 ns) per window, 512 windows,
     *  so the wheel covers ~2.1 us -- beyond every device latency in
     *  the testbeds, keeping heap traffic to coarse timers only. */
    static constexpr std::uint64_t windowBits = 12;
    static constexpr std::uint64_t windowTicks = std::uint64_t(1)
                                                 << windowBits;
    static constexpr std::size_t numWindows = 512;
    static constexpr std::uint64_t horizonTicks = windowTicks
                                                  * numWindows;

    static Tick
    windowStart(Tick t)
    {
        return t & ~(windowTicks - 1);
    }

    static std::size_t
    windowIndex(Tick t)
    {
        return static_cast<std::size_t>((t >> windowBits)
                                        % numWindows);
    }

    /** Destroy every pending event; time and window geometry stay. */
    void
    dropPending()
    {
        for (auto &bucket : wheel_)
            bucket.clear();
        for (auto &word : occ_)
            word = 0;
        far_.clear();
        active_.clear();
        order_.clear();
        activeIdx_ = 0;
        wheelCount_ = 0;
        size_ = 0;
        observers_ = 0;
    }

    /** The run limit stopped dispatch: time advances to @p limit,
     *  unless only observer events are left (an executor window), in
     *  which case the queue keeps the tick of its last real event,
     *  exactly as if it had drained. */
    bool
    stopAt(Tick limit)
    {
        if (size_ > observers_)
            curTick_ = limit;
        running_ = false;
        return false;
    }

    /** Sort the next populated window into execution order. */
    void
    loadNextWindow()
    {
        const Tick startTick =
            std::max(nextScanWindow_, windowStart(curTick_));
        const std::size_t s = windowIndex(startTick);
        // Occupancy-bitmap scan: first populated window at or after
        // the start, O(numWindows/64) worst case.
        std::size_t word = s >> 6;
        std::uint64_t bits = occ_[word] & (~std::uint64_t(0) << (s & 63));
        while (bits == 0) {
            word = (word + 1) % occWords;
            bits = occ_[word];
        }
        const unsigned lowBit = std::countr_zero(bits);
        const std::size_t b = (word << 6) + lowBit;
        occ_[word] &= ~(std::uint64_t(1) << lowBit);
        const std::size_t delta = (b + numWindows - s) % numWindows;
        const Tick w = startTick + delta * windowTicks;

        // Swap storage so the bucket keeps its capacity for the next
        // wheel lap; events are executed in place via the order keys,
        // never moved by sorting.
        active_.clear();
        active_.swap(wheel_[b]);
        wheelCount_ -= active_.size();

        // Sort keys, not events: (in-window offset << 32 | arrival
        // index). Within a bucket arrival index == seq order, so an
        // ascending plain-integer sort is exactly (tick, seq) FIFO.
        order_.clear();
        order_.reserve(active_.size());
        bool sorted = true;
        Tick prev = 0;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(active_.size()); ++i) {
            const Tick off = active_[i].when - w;
            sorted &= off >= prev;
            prev = off;
            order_.push_back((off << 32) | i);
        }
        // Buckets are filled in seq order, so ascending ticks (the
        // common completion pattern) arrive presorted.
        if (!sorted)
            std::sort(order_.begin(), order_.end());
        activeIdx_ = 0;
        activeWindowStart_ = w;
        sortedWindowEnd_ = w + windowTicks;
        nextScanWindow_ = w + windowTicks;
    }

    void
    pushFar(Tick when, Callback cb)
    {
        far_.emplace_back(when, nextSeq_++, std::move(cb));
        std::push_heap(far_.begin(), far_.end(), farAfter);
    }

    Callback
    popFar()
    {
        std::pop_heap(far_.begin(), far_.end(), farAfter);
        Callback cb = std::move(far_.back().cb);
        far_.pop_back();
        return cb;
    }

    /** Heap comparator: true when @p a runs after @p b (max-heap on
     *  "runs later" == min-heap on (when, seq)). */
    static bool
    farAfter(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    static constexpr std::size_t occWords = numWindows / 64;

    std::vector<std::vector<Event>> wheel_;
    std::uint64_t occ_[occWords] = {}; //!< non-empty-bucket bitmap
    std::vector<Event> far_;    //!< min-heap by (when, seq)
    std::vector<Event> active_; //!< storage of the window being run
    std::vector<std::uint64_t> order_; //!< sorted execution keys
    std::size_t activeIdx_ = 0;
    Tick activeWindowStart_ = 0;
    Tick sortedWindowEnd_ = 0;  //!< end of the last sorted window
    Tick nextScanWindow_ = 0;   //!< first window not yet sorted
    std::size_t wheelCount_ = 0;
    std::size_t size_ = 0;
    std::size_t observers_ = 0; //!< observer events among size_
    std::vector<std::function<void()>> quiesceHooks_;
    bool running_ = false;
    bool driven_ = false; //!< inside beginExternalDrive/endExternalDrive

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_EVENT_QUEUE_HH
