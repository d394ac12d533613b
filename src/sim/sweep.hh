/**
 * @file
 * SweepRunner: run the independent points of a parameter sweep on a
 * pool of host threads.
 *
 * Every figure reproduction is a grid of (target x op x threads x
 * block) points, and each point builds its own Machine -- simulations
 * share no mutable state, so points are embarrassingly parallel. The
 * runner hands out point indices to worker threads and writes each
 * result into its index's slot, so the output order (and therefore any
 * CSV rendered from it) is identical for every job count: determinism
 * is positional, not temporal.
 *
 * Contract for the point function: it must depend only on its index
 * (and captured immutable state). Simulations satisfy this by
 * construction -- a Machine owns its event queue, RNGs are seeded per
 * point, and nothing in the framework mutates globals.
 */

#ifndef CXLMEMO_SIM_SWEEP_HH
#define CXLMEMO_SIM_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cxlmemo
{

class SweepRunner
{
  public:
    /**
     * @param jobs worker threads to use; 1 runs points inline on the
     *        calling thread (no threads are spawned), 0 means one per
     *        hardware thread.
     */
    explicit SweepRunner(unsigned jobs = 1)
        : jobs_(jobs != 0 ? jobs
                          : std::max(1u,
                                     std::thread::hardware_concurrency()))
    {}

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate @p fn(i) for every i in [0, n) and return the results
     * in index order. Exceptions from points are rethrown on the
     * calling thread (the first one encountered wins; remaining
     * points may be skipped).
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using Result = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<Result> results(n);
        if (n == 0)
            return results;

        if (jobs_ == 1) {
            for (std::size_t i = 0; i < n; ++i)
                results[i] = fn(i);
            return results;
        }

        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::once_flag errorOnce;

        auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n || failed.load(std::memory_order_relaxed))
                    return;
                try {
                    results[i] = fn(i);
                } catch (...) {
                    std::call_once(errorOnce, [&] {
                        error = std::current_exception();
                    });
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };

        const std::size_t spawn =
            std::min<std::size_t>(jobs_, n) - 1;
        std::vector<std::thread> pool;
        pool.reserve(spawn);
        for (std::size_t t = 0; t < spawn; ++t)
            pool.emplace_back(worker);
        worker(); // the calling thread is the last worker
        for (auto &t : pool)
            t.join();

        if (error)
            std::rethrow_exception(error);
        return results;
    }

    /** Run @p fn(i) for every i in [0, n); results are discarded. */
    template <typename Fn>
    void
    forEach(std::size_t n, Fn fn)
    {
        map(n, [&fn](std::size_t i) {
            fn(i);
            return 0;
        });
    }

  private:
    unsigned jobs_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_SWEEP_HH
