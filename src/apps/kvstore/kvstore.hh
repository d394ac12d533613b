/**
 * @file
 * Redis-like in-memory key-value store model (paper Sec. 5.1).
 *
 * The store's data structures live in simulated memory placed by a
 * NUMA policy, and every query executes its real memory accesses
 * through the cache hierarchy on the server's core:
 *
 *   bucket array -> entry header -> field headers (a dependent walk,
 *   like Redis dict + ziplist traversal) -> field data lines.
 *
 * The single-threaded server makes query service latency-bound: the
 * dependent walk is what couples Redis throughput to memory latency
 * and produces the paper's "µs-level databases are the worst case for
 * CXL" finding.
 */

#ifndef CXLMEMO_APPS_KVSTORE_KVSTORE_HH
#define CXLMEMO_APPS_KVSTORE_KVSTORE_HH

#include <deque>
#include <memory>
#include <vector>

#include "apps/kvstore/ycsb.hh"
#include "cpu/core.hh"
#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace kv
{

/** Store geometry and software costs. */
struct KvStoreParams
{
    /** Records loaded before the run (YCSB recordcount). */
    std::uint64_t numKeys = 2'000'000;

    /** Extra key slots for workload D inserts. */
    std::uint64_t insertHeadroom = 200'000;

    /** YCSB default record: 10 fields x 100 B. */
    std::uint32_t valueBytes = 1024;
    std::uint32_t fields = 10;

    /**
     * Memory-independent software path per query: kernel/epoll,
     * RESP parsing, response serialization, and the YCSB client's
     * share. Calibrated so a DRAM-resident store saturates around
     * the paper's ~80 kQPS.
     */
    Tick softwareCost = ticksFromNs(10000.0);

    /** Hash + dispatch compute before memory is touched. */
    Tick hashCost = ticksFromNs(300.0);
};

/**
 * The store: owns the simulated memory layout and translates queries
 * into memory-operation lists.
 */
class KvStore
{
  public:
    KvStore(Machine &machine, KvStoreParams params,
            const MemPolicy &placement);

    /** Memory ops performed by one request (excludes Compute ops'
     *  software cost bookends, which the server adds). */
    void buildOps(const YcsbRequest &req, std::vector<MemOp> &out) const;

    const KvStoreParams &params() const { return params_; }
    std::uint64_t capacity() const
    {
        return params_.numKeys + params_.insertHeadroom;
    }

    /** Total resident bytes (for the memory-breakdown reports). */
    std::uint64_t footprintBytes() const { return buffer_.size(); }

  private:
    std::uint64_t bucketOffset(std::uint64_t key) const;
    std::uint64_t entryOffset(std::uint64_t key) const;
    std::uint64_t valueOffset(std::uint64_t key) const;

    KvStoreParams params_;
    NumaBuffer buffer_;
    std::uint64_t bucketBase_ = 0;
    std::uint64_t entryBase_ = 0;
    std::uint64_t valueBase_ = 0;
};

/**
 * Single-threaded server: queries queue at the event loop and are
 * served in order on one core, exactly like Redis.
 */
class KvServer
{
  public:
    KvServer(Machine &machine, KvStore &store, std::uint16_t core);

    /** Enqueue a request arriving now. */
    void submit(const YcsbRequest &req);

    std::uint64_t completed() const { return completed_; }
    std::size_t queueDepth() const { return queue_.size(); }

    /** Per-class service+sojourn latency histogram (ns). */
    const LatencyHistogram &readLatency() const { return readLat_; }
    const LatencyHistogram &updateLatency() const { return updateLat_; }

    /** Drop recorded latencies (after cache warm-up). */
    void
    resetLatencies()
    {
        readLat_.reset();
        updateLat_.reset();
    }

  private:
    void serveNext();

    Machine &machine_;
    KvStore &store_;
    HwThread thread_;
    std::deque<std::pair<YcsbRequest, Tick>> queue_;
    bool busy_ = false;
    std::uint64_t completed_ = 0;
    LatencyHistogram readLat_;
    LatencyHistogram updateLat_;
    std::vector<MemOp> scratch_;
};

/** One point of the Fig. 6 / Fig. 7 measurements. */
struct KvRunResult
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double p99ReadUs = 0.0;
    double p99UpdateUs = 0.0;
};

/**
 * Open-loop YCSB client: Poisson arrivals at @p qps for
 * @p durationSec simulated seconds.
 *
 * @param cxlFraction fraction of the store's pages on CXL memory
 *        (0 = DRAM only, 1 = CXL only; weighted interleave between).
 */
KvRunResult runYcsb(const YcsbWorkload &workload, double cxlFraction,
                    double qps, double durationSec = 0.6,
                    const KvStoreParams &params = {},
                    std::uint64_t seed = 42);

/**
 * Maximum sustainable throughput: offer far beyond capacity and
 * measure the completion rate (Fig. 7).
 */
double maxSustainableQps(const YcsbWorkload &workload, double cxlFraction,
                         double durationSec = 0.4,
                         const KvStoreParams &params = {},
                         std::uint64_t seed = 42);

/** maxSustainableQps() on @p m (say, one with a different CXL device)
 *  instead of the default single-socket testbed. */
double maxSustainableQps(Machine &m, const YcsbWorkload &workload,
                         double cxlFraction, double durationSec = 0.4,
                         const KvStoreParams &params = {},
                         std::uint64_t seed = 42);

} // namespace kv
} // namespace cxlmemo

#endif // CXLMEMO_APPS_KVSTORE_KVSTORE_HH
