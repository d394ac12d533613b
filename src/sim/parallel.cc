#include "sim/parallel.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/logging.hh"

namespace cxlmemo
{

ParallelExecutor::ParallelExecutor(std::vector<EventQueue *> domains,
                                   Tick lookahead, std::uint32_t threads)
    : domains_(std::move(domains)),
      lookahead_(lookahead),
      threads_(std::min<std::uint32_t>(
          std::max<std::uint32_t>(threads, 1),
          static_cast<std::uint32_t>(
              std::max<std::size_t>(domains_.size(), 1))))
{
    if (domains_.empty())
        throw std::invalid_argument(
            "ParallelExecutor: no domains to execute");
    if (lookahead_ == 0)
        throw std::invalid_argument(
            "ParallelExecutor: zero lookahead admits no window");
    for (const EventQueue *eq : domains_)
        if (!eq)
            throw std::invalid_argument(
                "ParallelExecutor: null domain queue");
    outbox_.resize(domains_.size());

    // Workers 1..threads-1; the coordinator doubles as worker 0, so a
    // single-threaded executor spawns nothing and runs the identical
    // window algorithm inline.
    sync_.reserve(threads_);
    for (std::uint32_t w = 0; w < threads_; ++w)
        sync_.push_back(std::make_unique<WorkerSync>());
    workers_.reserve(threads_ - 1);
    for (std::uint32_t w = 1; w < threads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ParallelExecutor::~ParallelExecutor()
{
    stop_.store(true, std::memory_order_relaxed);
    ++generation_;
    for (std::uint32_t w = 1; w < threads_; ++w)
        sync_[w]->go.store(generation_, std::memory_order_release);
    for (auto &t : workers_)
        t.join();
}

void
ParallelExecutor::post(std::uint32_t src, std::uint32_t dst, Tick when,
                       CrossCallback cb)
{
    CXLMEMO_ASSERT(src < domains_.size() && dst < domains_.size(),
                   "post between unknown domains (%u -> %u)",
                   (unsigned)src, (unsigned)dst);
    if (src == dst) {
        domains_[src]->schedule(
            when, [cb = std::move(cb), when] { cb(when); });
        return;
    }
    // Staged into the source's private outbox: only the worker
    // executing src touches it during a window, only the coordinator
    // at the barrier, so no lock is needed and the append order is the
    // deterministic per-source merge order.
    outbox_[src].push_back(Staged{dst, when, std::move(cb)});
}

void
ParallelExecutor::mergeOutboxes(Tick floor)
{
    for (EventQueue *eq : domains_)
        eq->beginExternalDrive();
    for (auto &box : outbox_) {
        for (Staged &s : box) {
            ++crossPosts_;
            Tick delivery = s.when;
            if (delivery < floor) {
                delivery = floor;
                ++clampedPosts_;
            }
            domains_[s.dst]->schedule(
                delivery,
                [cb = std::move(s.cb), delivery] { cb(delivery); });
        }
        box.clear();
    }
    for (EventQueue *eq : domains_)
        eq->endExternalDrive();
}

Tick
ParallelExecutor::minPeek() const
{
    Tick w = maxTick;
    for (const EventQueue *eq : domains_)
        w = std::min(w, eq->peekNextTick());
    return w;
}

Tick
ParallelExecutor::curTick() const
{
    Tick t = 0;
    for (const EventQueue *eq : domains_)
        t = std::max(t, eq->curTick());
    return t;
}

std::size_t
ParallelExecutor::pending() const
{
    std::size_t n = 0;
    for (const EventQueue *eq : domains_)
        n += eq->pending();
    // Staged cross-posts count too: a fence callback asking "is there
    // anything left?" runs before the barrier merge, and the only
    // remaining work may still sit in an outbox.
    for (const auto &box : outbox_)
        n += box.size();
    return n;
}

void
ParallelExecutor::runDomainsOf(std::uint32_t worker, Tick target)
{
    for (std::size_t d = worker; d < domains_.size(); d += threads_)
        domains_[d]->runWindow(target);
}

void
ParallelExecutor::workerLoop(std::uint32_t worker)
{
    WorkerSync &sync = *sync_[worker];
    std::uint64_t gen = 1;
    while (true) {
        // Spin briefly (windows are short), then yield.
        std::uint32_t spins = 0;
        while (sync.go.load(std::memory_order_acquire) < gen) {
            if (++spins > 4096) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        if (stop_.load(std::memory_order_relaxed))
            return;
        runDomainsOf(worker, target_.load(std::memory_order_relaxed));
        sync.done.store(gen, std::memory_order_release);
        ++gen;
    }
}

bool
ParallelExecutor::run(Tick limit)
{
    CXLMEMO_ASSERT(!running_, "ParallelExecutor::run is not reentrant");
    running_ = true;

    while (true) {
        // Only observer events left: the run is over. Drop them (the
        // fences they registered go too) and let the observers stand
        // down, exactly as a single queue does when it drains.
        std::size_t observers = 0;
        for (const EventQueue *eq : domains_)
            observers += eq->observersPending();
        if (observers > 0 && pending() == observers) {
            for (EventQueue *eq : domains_)
                if (eq->observersPending() > 0)
                    eq->quiesce();
            fences_.clear();
            break;
        }

        const Tick start = minPeek();
        if (start == maxTick || start > limit)
            break;

        // Drop fences that no longer fence anything (a disarmed
        // sampler's stale registration).
        while (!fences_.empty() && *fences_.begin() < start)
            fences_.erase(fences_.begin());

        if (!fences_.empty() && *fences_.begin() == start) {
            // Sequential fence step: every domain executes exactly the
            // fence tick, in rank order, on this thread. Callbacks here
            // may read any domain's state and re-register fences.
            ++windows_;
            for (EventQueue *eq : domains_)
                eq->runWindow(start);
            mergeOutboxes(start);
            fences_.erase(start);
            continue;
        }

        // Parallel window [start, end): width L, cut short by the
        // next fence and by the (inclusive) run limit.
        Tick end = start > maxTick - lookahead_ ? maxTick
                                                : start + lookahead_;
        if (!fences_.empty())
            end = std::min(end, *fences_.begin());
        if (limit != maxTick)
            end = std::min(end, limit + 1);
        const Tick target = end - 1;
        ++windows_;

        if (threads_ == 1) {
            runDomainsOf(0, target);
        } else {
            target_.store(target, std::memory_order_relaxed);
            ++generation_;
            for (std::uint32_t w = 1; w < threads_; ++w)
                sync_[w]->go.store(generation_,
                                   std::memory_order_release);
            runDomainsOf(0, target);
            for (std::uint32_t w = 1; w < threads_; ++w) {
                std::uint32_t spins = 0;
                while (sync_[w]->done.load(std::memory_order_acquire)
                       < generation_) {
                    if (++spins > 4096) {
                        std::this_thread::yield();
                        spins = 0;
                    }
                }
            }
        }

        mergeOutboxes(end);
    }

    // Align every domain on one final tick: the last executed event
    // when drained (matching EventQueue::run), the limit when stopped
    // (matching runUntil).
    const bool drained = minPeek() == maxTick;
    const Tick final = drained ? curTick() : limit;
    for (EventQueue *eq : domains_)
        if (eq->curTick() < final)
            eq->advanceTo(final);
    running_ = false;
    return drained;
}

} // namespace cxlmemo
