/**
 * @file
 * Intel Data Streaming Accelerator (DSA) model.
 *
 * DSA is an on-chip offload engine (new in Sapphire Rapids) that
 * moves memory without consuming core cycles. The model follows the
 * paper's description (Sec. 4.3.1): work queues (WQs) hold offloaded
 * descriptors; processing engines (PEs) pull descriptors and execute
 * them. Descriptors can be submitted synchronously (wait for each
 * completion) or asynchronously (keep many in flight), and batch
 * descriptors amortize the offload cost across entries.
 *
 * A PE executes a copy by streaming chunks: read from the source
 * device, then write to the destination device, with a bounded chunk
 * window -- so throughput is limited by whichever of the two devices
 * (or the engine itself) is slower, reproducing the D2C/C2D/C2C
 * asymmetries of Fig. 4b.
 */

#ifndef CXLMEMO_DSA_DSA_HH
#define CXLMEMO_DSA_DSA_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "numa/numa.hh"
#include "sim/attribution.hh"
#include "sim/event_queue.hh"

namespace cxlmemo
{

/** DSA geometry and costs (SPR-like defaults). */
struct DsaParams
{
    std::uint32_t numEngines = 4;

    /** Descriptors a work queue holds before ENQCMD retries. */
    std::uint32_t wqDepth = 128;

    /** CPU-side cost of one ENQCMD/MOVDIR64B descriptor submission. */
    Tick submitCost = ticksFromNs(40.0);

    /** WQ arbitration + PE descriptor fetch/decode. */
    Tick dispatchLatency = ticksFromNs(250.0);

    /** Completion-record write + polling observation delay. */
    Tick completionLatency = ticksFromNs(120.0);

    /** Transfer granularity of a PE. */
    std::uint32_t chunkBytes = 512;

    /** Chunks a PE keeps in flight (its internal MLP). */
    std::uint32_t chunksInFlight = 8;

    /** Source id base for the engines' memory requests (picked above
     *  any core id so fair-share arbiters see them as one agent). */
    std::uint16_t sourceBase = 256;
};

/** One copy job: dst[0..bytes) = src[0..bytes), buffer-relative. */
struct DsaDescriptor
{
    const NumaBuffer *src = nullptr;
    std::uint64_t srcOffset = 0;
    const NumaBuffer *dst = nullptr;
    std::uint64_t dstOffset = 0;
    std::uint64_t bytes = 0;
};

/**
 * The DSA instance of one socket.
 *
 * Submission API is asynchronous at the hardware level; the MEMO
 * data-movement benchmark builds sync / async / batched flows on top.
 */
class Dsa
{
  public:
    using Done = InlineCallback<void(Tick)>;

    Dsa(EventQueue &eq, NumaSpace &numa, DsaParams params);

    /**
     * Submit one descriptor (one WQ slot).
     * @return false if the WQ is full (ENQCMD retry status); the
     *         caller backs off and resubmits.
     */
    bool submit(const DsaDescriptor &desc, Done onComplete);

    /**
     * Submit a batch descriptor: @p descs execute sequentially on one
     * engine, occupying one WQ slot; @p onComplete fires when the last
     * entry finishes.
     */
    bool submitBatch(std::vector<DsaDescriptor> descs, Done onComplete);

    std::uint32_t wqOccupancy() const { return wqOccupancy_; }
    std::uint64_t bytesCopied() const { return bytesCopied_; }
    const DsaParams &params() const { return params_; }

    /** Attach a latency-accounting station (WQ wait = queue, engine
     *  execution = service; one job per WQ slot). */
    void setStation(AccountedStation *station) { station_ = station; }

  private:
    struct Job
    {
        std::vector<DsaDescriptor> descs;
        Done onComplete;
        Tick submitted = 0;
    };

    /** Streaming state of the job an engine is running. An engine
     *  runs one job at a time, so the Dsa owns one per engine and the
     *  chunk callbacks name it by engine index: a job still in flight
     *  when the Dsa is destroyed owns nothing. */
    struct Stream
    {
        std::vector<DsaDescriptor> descs;
        Done onComplete;
        std::size_t idx = 0;
        std::uint64_t cursor = 0;  //!< next byte to read
        std::uint64_t written = 0; //!< bytes fully written
        std::uint32_t inFlight = 0;
        Tick dispatched = 0; //!< engine grab time (latency accounting)
        bool busy = false;
    };

    void tryDispatch();
    void runJob(std::uint32_t engine, Job job);
    /** Issue chunks of the engine's current descriptor up to its
     *  in-flight window. */
    void pump(std::uint32_t engine);
    void chunkWritten(std::uint32_t engine, std::uint32_t len, Tick t);

    EventQueue &eq_;
    NumaSpace &numa_;
    DsaParams params_;
    std::deque<Job> wq_;
    std::uint32_t wqOccupancy_ = 0;
    std::vector<Stream> streams_;
    std::uint64_t bytesCopied_ = 0;
    AccountedStation *station_ = nullptr;
};

} // namespace cxlmemo

#endif // CXLMEMO_DSA_DSA_HH
