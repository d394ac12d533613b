/**
 * @file
 * Conservative parallel discrete-event execution across domain
 * event queues.
 *
 * A Machine partitions its components into *domains* -- host socket,
 * each local DRAM channel, the CXL device, the remote socket -- each
 * owning a private EventQueue. ParallelExecutor drives all domains in
 * lock-step *windows* of width L, the lookahead, chosen as the
 * minimum genuine cross-domain latency (the local controller
 * front-end; the CXL link one-way propagation and the UPI hop are
 * larger). Within a window [W, W+L) no domain can causally affect
 * another, because any event one domain creates for another carries
 * at least L of latency -- the classic null-message-free conservative
 * PDES argument. Each window, every domain drains its own queue
 * independently on a worker thread; events crossing domains are
 * staged in per-source outboxes and exchanged at the window barrier.
 *
 * Determinism -- the contract is byte-identical simulation output at
 * any worker count, including one -- rests on three properties:
 *
 *  1. The window schedule depends only on event ticks and L: the next
 *     window start is the global minimum pending tick (which also
 *     skips idle stretches in one step), never on thread timing.
 *  2. Staged events are merged at the barrier in (source-rank,
 *     post-order), so destination (tick, seq) assignment is a pure
 *     function of the simulation, not of the interleaving.
 *  3. Deliveries are floored at the window end (max(when, windowEnd)),
 *     so a path shorter than L -- which would be a causality leak --
 *     degrades into a deterministic quantization instead of a race.
 *     Genuine paths are >= L and never hit the floor; the clamp
 *     counter makes violations observable.
 *
 * Cross-domain *reads* (metrics samplers, the watchdog, attribution
 * snapshots) cannot be staged: they must observe a globally quiesced
 * state. Components register those ticks as *fences*; the executor
 * ends the window early at a fence and executes the fence tick
 * sequentially, domain by domain in rank order, on the coordinator
 * thread -- race-free and in a fixed order. Observer events are not
 * work here either: once every pending event is one, run() drops them
 * and returns, as a single queue does (ObserverClock).
 */

#ifndef CXLMEMO_SIM_PARALLEL_HH
#define CXLMEMO_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cxlmemo
{

class ParallelExecutor
{
  public:
    /** Cross-domain event: invoked with its actual delivery tick
     *  (== the requested tick unless the window floor clamped it). */
    using CrossCallback = InlineCallback<void(Tick), 48>;

    /**
     * @param domains rank-ordered domain queues; rank is the merge
     *        tie-break order and must be stable across runs
     * @param lookahead window width L (>= 1 tick)
     * @param threads worker count; 1 runs the identical window
     *        algorithm without spawning threads
     */
    ParallelExecutor(std::vector<EventQueue *> domains, Tick lookahead,
                     std::uint32_t threads);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    std::uint32_t numDomains() const
    {
        return static_cast<std::uint32_t>(domains_.size());
    }

    /**
     * Stage @p cb from domain @p src for execution in domain @p dst at
     * @p when (floored at the current window end for cross-domain
     * posts). Must be called from @p src's execution context -- its
     * window callbacks or the sequential fence step. src == dst
     * schedules directly, with no floor.
     */
    void post(std::uint32_t src, std::uint32_t dst, Tick when,
              CrossCallback cb);

    /**
     * Request that tick @p when execute sequentially across all
     * domains (coordinator thread, rank order). Call from setup or
     * from a callback running at a previous fence; self-rearming
     * samplers do exactly that.
     */
    void addFence(Tick when) { fences_.insert(when); }

    /**
     * Drive all domains until every queue drains or @p limit is
     * reached; events exactly at @p limit execute (runUntil
     * semantics). On return all domains share one current tick.
     * @return true if drained, false if the limit stopped execution.
     */
    bool run(Tick limit = maxTick);

    /** Common current tick after run() (max over domains). */
    Tick curTick() const;

    /** Total events pending over all domains. */
    std::size_t pending() const;

    /** Windows executed (including sequential fence steps). */
    std::uint64_t windows() const { return windows_; }

    /** Cross-domain posts staged so far. */
    std::uint64_t crossPosts() const { return crossPosts_; }

    /** Posts whose delivery was floored at the window end; nonzero
     *  means some wired path is shorter than the lookahead. */
    std::uint64_t clampedPosts() const { return clampedPosts_; }

  private:
    struct Staged
    {
        std::uint32_t dst;
        Tick when;
        CrossCallback cb;
    };

    /** Per-worker handshake line, padded against false sharing. */
    struct alignas(64) WorkerSync
    {
        std::atomic<std::uint64_t> go{0};
        std::atomic<std::uint64_t> done{0};
    };

    void workerLoop(std::uint32_t worker);
    void runDomainsOf(std::uint32_t worker, Tick target);
    /** Deliver all outboxes in (src-rank, post-order); floor @p floor. */
    void mergeOutboxes(Tick floor);
    Tick minPeek() const;

    std::vector<EventQueue *> domains_;
    Tick lookahead_;
    std::uint32_t threads_;

    std::vector<std::vector<Staged>> outbox_; //!< [src rank]
    std::set<Tick> fences_;

    // Window barrier: the coordinator publishes a generation+target,
    // workers run their domains and report the generation back.
    std::vector<std::unique_ptr<WorkerSync>> sync_;
    std::vector<std::thread> workers_;
    std::atomic<Tick> target_{0};
    std::atomic<bool> stop_{false};
    std::uint64_t generation_ = 0;
    bool running_ = false;

    std::uint64_t windows_ = 0;
    std::uint64_t crossPosts_ = 0;
    std::uint64_t clampedPosts_ = 0;
};

/**
 * The clock the interval observers (watchdog, metrics sampler) run
 * on. A snapshot is an observer event on the host queue
 * (EventQueue::scheduleObserver), so it is never work: observers
 * cannot keep each other or a drained run alive, and a run that
 * drains ends at its last simulated event. On the parallel engine
 * every snapshot tick is also an executor fence, because a snapshot
 * reads state owned by other domains. Machine and Cluster each build
 * one; a classic-engine clock converts from its queue.
 */
class ObserverClock
{
  public:
    ObserverClock(EventQueue &eq, ParallelExecutor *exec = nullptr)
        : eq_(&eq), exec_(exec)
    {
    }

    Tick now() const { return eq_->curTick(); }

    /** Run @p fire as an observer event @p delay ticks from now. */
    template <typename F>
    void
    after(Tick delay, F fire)
    {
        const Tick when = eq_->curTick() + delay;
        if (exec_)
            exec_->addFence(when);
        eq_->scheduleObserver(when, std::move(fire));
    }

    /** @p hook runs whenever the simulation quiesces with observer
     *  events pending (EventQueue::onQuiesce); the observer owning it
     *  must outlive every later run of the queue. */
    void
    onQuiesce(std::function<void()> hook)
    {
        eq_->onQuiesce(std::move(hook));
    }

  private:
    EventQueue *eq_;
    ParallelExecutor *exec_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_PARALLEL_HH
