/**
 * @file
 * DeathStarBench-style social-network microservice model (paper
 * Sec. 5.3).
 *
 * Requests traverse a DAG of service stages (nginx front end,
 * application logic, unique-id, post storage, timeline caches), each
 * a pool of workers with a queue. Compute-heavy stages always run
 * from local DDR5; the storage and caching components -- the ones
 * with large working sets -- are pinned to either DDR5 or CXL memory,
 * reproducing the paper's placement experiment.
 *
 * Because every stage adds hundreds of microseconds of intermediate
 * computation, end-to-end latency is in milliseconds, and only the
 * database-heavy compose-post path exposes the CXL latency penalty
 * (the paper's central observation about microservices).
 */

#ifndef CXLMEMO_APPS_DSB_DSB_HH
#define CXLMEMO_APPS_DSB_DSB_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "sim/histogram.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace dsb
{

/** Social-network request types (the paper's three workloads). */
enum class RequestType : std::uint8_t
{
    ComposePost,
    ReadUserTimeline,
    ReadHomeTimeline,
};

/** Service graph and dataset parameters. */
struct DsbParams
{
    /* dataset */
    std::uint64_t numPosts = 4'000'000;  //!< 1 KiB documents (~4 GiB)
    std::uint64_t numUsers = 2'000'000;  //!< 512 B timeline records
    std::uint32_t postBytes = 1024;
    std::uint32_t timelineBytes = 512;
    std::uint32_t postsPerTimeline = 10; //!< posts read per timeline
    std::uint32_t followersPerPost = 100; //!< timelines touched per compose

    /** Sorted-set (skiplist) descent depth per timeline insert; each
     *  hop is a dependent cacheline access. This is what makes the
     *  compose-post path "more database operations" (Sec. 5.3). */
    std::uint32_t skiplistDepth = 12;

    /* per-stage compute costs (the "layers of intermediate
     * computation" that amortize memory latency) */
    Tick nginxCompute = ticksFromUs(900.0);
    Tick logicCompute = ticksFromUs(650.0);
    Tick uniqueIdCompute = ticksFromUs(60.0);
    Tick storageCompute = ticksFromUs(250.0);
    Tick cacheCompute = ticksFromUs(120.0);

    /* pool sizes (workers per stage) */
    std::uint32_t nginxWorkers = 8;
    std::uint32_t logicWorkers = 4;
    std::uint32_t uniqueIdWorkers = 2;
    std::uint32_t storageWorkers = 4;
    std::uint32_t cacheWorkers = 4;
};

/**
 * One service stage: a worker pool fed by a FIFO queue. Work items
 * are memory-op lists executed on real cores.
 */
class Stage
{
  public:
    using Done = InlineCallback<void(Tick end)>;

    Stage(Machine &machine, std::uint16_t firstCore, std::uint32_t workers);

    /** Enqueue a work item (ops may be empty for pure compute). */
    void submit(std::vector<MemOp> ops, Done onDone);

    std::uint64_t completed() const { return completed_; }

  private:
    void trySchedule();

    Machine &machine_;
    std::vector<std::unique_ptr<HwThread>> workers_;
    std::vector<bool> busy_;
    std::deque<std::pair<std::vector<MemOp>, Done>> queue_;
    std::uint64_t completed_ = 0;
};

/** The assembled application. */
class SocialNetwork
{
  public:
    /**
     * @param dbPlacement page policy for post storage and the
     *        timeline/home caches (the paper pins these to DDR5-L8
     *        or to CXL memory)
     */
    SocialNetwork(Machine &machine, DsbParams params,
                  const MemPolicy &dbPlacement);

    /** Inject one request; latency recorded at completion. */
    void submit(RequestType type);

    const LatencyHistogram &latency(RequestType type) const;

    /** Component -> resident bytes (Fig. 10's memory breakdown). */
    std::vector<std::pair<std::string, std::uint64_t>>
    memoryBreakdown() const;

  private:
    void composePost(Tick arrival);
    void readUserTimeline(Tick arrival);
    void readHomeTimeline(Tick arrival);

    std::vector<MemOp> postReadOps(std::uint64_t post) const;
    std::vector<MemOp> postWriteOps(std::uint64_t post) const;
    std::vector<MemOp> timelineReadOps(std::uint64_t user) const;
    std::vector<MemOp> timelineUpdateOps(std::uint64_t user) const;

    Machine &machine_;
    DsbParams params_;
    NumaBuffer postStore_;
    NumaBuffer timelineCache_;
    NumaBuffer homeCache_;

    std::unique_ptr<Stage> nginx_;
    std::unique_ptr<Stage> logic_;
    std::unique_ptr<Stage> uniqueId_;
    std::unique_ptr<Stage> storage_;
    std::unique_ptr<Stage> cache_;

    mutable Rng rng_;
    LatencyHistogram composeLat_;
    LatencyHistogram readUserLat_;
    LatencyHistogram readHomeLat_;
};

/** One load point of Fig. 10. */
struct DsbRunResult
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double p99ComposeMs = 0.0;
    double p99ReadUserMs = 0.0;
    double p99ReadHomeMs = 0.0;
};

/**
 * Drive the social network with Poisson arrivals.
 * @param mix fractions (compose, readUser, readHome); the paper's
 *        mixed workload is (0.1, 0.3, 0.6)
 */
DsbRunResult runDsb(double composeFrac, double readUserFrac,
                    double readHomeFrac, bool dbOnCxl, double qps,
                    double durationSec = 2.0,
                    const DsbParams &params = {},
                    std::uint64_t seed = 42);

} // namespace dsb
} // namespace cxlmemo

#endif // CXLMEMO_APPS_DSB_DSB_HH
