/**
 * @file
 * DLRM embedding-reduction model (paper Sec. 5.2, MERCI setup).
 *
 * Each inference gathers `pooling` embedding rows from each of
 * `tables` embedding tables (random row indices), accumulates them
 * (element-wise vector adds between the gathers), and finishes with
 * the dense MLP compute. Embedding reduction is the memory-bound
 * portion -- the paper cites 50-70% of inference latency -- and its
 * gather pattern is exactly the random small-block access of
 * Sec. 4.3.2, which is why DLRM throughput tracks a memory's random
 * bandwidth rather than its latency.
 */

#ifndef CXLMEMO_APPS_DLRM_DLRM_HH
#define CXLMEMO_APPS_DLRM_DLRM_HH

#include <cstdint>
#include <memory>

#include "cpu/core.hh"
#include "numa/numa.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace dlrm
{

/** Model geometry and compute costs. */
struct DlrmParams
{
    std::uint32_t tables = 8;
    std::uint64_t rowsPerTable = 2'000'000;

    /** Embedding row: 64 floats = 256 B (4 cachelines). */
    std::uint32_t rowBytes = 256;

    /** Rows gathered (then summed) per table per inference. */
    std::uint32_t pooling = 16;

    /** Per-cacheline accumulate + address-generation work; this is
     *  what bounds the gather loop's effective MLP on a real core. */
    Tick perLineCompute = ticksFromNs(18.0);

    /** Dense MLP (bottom+top) compute per inference. */
    Tick mlpCompute = ticksFromNs(5000.0);
};

/**
 * The embedding tables placed in simulated memory plus the per-thread
 * inference engine.
 */
class DlrmModel
{
  public:
    DlrmModel(Machine &machine, DlrmParams params,
              const MemPolicy &placement, std::uint64_t seed = 42);

    /** Endless inference stream for one worker thread. The counter
     *  increments once per completed inference. */
    std::unique_ptr<AccessStream>
    makeWorkerStream(std::uint32_t worker, std::uint64_t *counter);

    std::uint64_t footprintBytes() const { return buffer_.size(); }

  private:
    DlrmParams params_;
    NumaBuffer buffer_;
    std::uint64_t seed_;
};

/**
 * Measured throughput of @p threads worker threads on @p machine with
 * the tables placed by @p placement.
 * @return inferences per second (aggregate).
 */
double runInferenceThroughput(Machine &machine, const DlrmParams &params,
                              const MemPolicy &placement,
                              std::uint32_t threads,
                              double warmupUs = 50.0,
                              double measureUs = 400.0,
                              std::uint64_t seed = 42);

} // namespace dlrm
} // namespace cxlmemo

#endif // CXLMEMO_APPS_DLRM_DLRM_HH
