/**
 * @file
 * Core-side memory issue model.
 *
 * A HwThread executes a stream of memory operations against the cache
 * hierarchy, honouring the microarchitectural resources that bound
 * memory-level parallelism on a real core:
 *
 *  - load fill buffers (outstanding L1-missing loads),
 *  - the store buffer (outstanding temporal stores awaiting RFO),
 *  - write-combining buffers (outstanding non-temporal stores),
 *  - mfence / sfence drain semantics.
 *
 * Time is modelled with a per-thread local clock that may run ahead of
 * the global event queue while the thread hits in its caches; misses
 * are scheduled as events at the thread-local issue tick, so global
 * event order is preserved. This "issue window" abstraction is what
 * makes single-thread bandwidth latency-bound (MLP x line / latency)
 * and multi-thread bandwidth contention-bound, matching the paper's
 * framing in Sec. 4.3 and 5.1.
 */

#ifndef CXLMEMO_CPU_CORE_HH
#define CXLMEMO_CPU_CORE_HH

#include <cstdint>
#include <memory>

#include "cache/hierarchy.hh"
#include "sim/attribution.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/** Issue resources of one core (SPR-like defaults, calibrated). */
struct CoreParams
{
    /** Cost to issue one 64 B vector memory uop. */
    Tick issueCost = ticksFromNs(0.4);

    /** Cost to evict one WC buffer line into the uncore (caps a single
     *  core's NT-store rate at line/ntIssueCost). */
    Tick ntIssueCost = ticksFromNs(5.5);

    /** Outstanding L1-missing loads (fill buffers / MSHRs). */
    std::uint32_t loadFillBuffers = 16;

    /** Outstanding non-temporal store lines (WC buffers). */
    std::uint32_t wcBuffers = 8;

    /** Outstanding temporal stores awaiting ownership. */
    std::uint32_t storeBufferEntries = 48;
};

/** One operation of a workload's memory instruction stream. */
struct MemOp
{
    enum class Kind : std::uint8_t
    {
        Load,          //!< independent 64 B load
        DependentLoad, //!< load consuming the previous load's value
        Store,         //!< temporal 64 B store (RFO on miss)
        NtStore,       //!< non-temporal 64 B store
        UncachedRead,  //!< cache-bypassing read
        Movdir64,      //!< fused cache-bypassing 64 B copy paddr->paddr2
        Flush,         //!< clflush
        Clwb,          //!< clwb
        Mfence,        //!< drain all outstanding accesses
        Sfence,        //!< drain outstanding (NT) stores
        Compute,       //!< advance local time (non-memory work)
    };

    Kind kind = Kind::Load;
    Addr paddr = 0;
    Addr paddr2 = 0;       //!< destination (Kind::Movdir64 only)
    Tick computeTicks = 0; //!< only for Kind::Compute
};

/** A (possibly lazily generated) sequence of MemOps. */
class AccessStream
{
  public:
    virtual ~AccessStream() = default;

    /** Produce the next op. @return false at end of stream. */
    virtual bool next(MemOp &op) = 0;
};

/** Per-thread execution counters. */
struct ThreadStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ntStores = 0;
    std::uint64_t uncachedReads = 0;
    std::uint64_t flushes = 0;

    /** Bytes moved by loads+uncached reads / stores+NT stores. */
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    /** Loads whose data carried the poison indication (RAS model).
     *  On real hardware each of these would raise MCE/SIGBUS; the
     *  simulated workload keeps running but the event is never
     *  silent. */
    std::uint64_t poisonedLoads = 0;

    /** Issue-point pacing inserted by the QoS host throttle (0 when
     *  QoS is disabled). */
    std::uint64_t qosThrottleTicks = 0;

    /** Ticks the issue point spent blocked on a core resource (fill
     *  buffer, store-buffer entry or WC buffer) before the pending op
     *  could issue: the core-side MLP limit made visible. */
    std::uint64_t resourceStallTicks = 0;
};

/**
 * A hardware thread pinned to one core, executing one AccessStream to
 * completion.
 */
class HwThread
{
  public:
    /** @param onFinish receives (startTick, endTick) of the stream. */
    using FinishFn = InlineCallback<void(Tick start, Tick end)>;

    HwThread(CacheHierarchy &hierarchy, std::uint16_t core,
             CoreParams params);

    HwThread(const HwThread &) = delete;
    HwThread &operator=(const HwThread &) = delete;

    /**
     * Begin executing @p stream at @p startTick (scheduled through the
     * event queue). The thread self-drives via completion events.
     */
    void start(std::unique_ptr<AccessStream> stream, Tick startTick,
               FinishFn onFinish);

    bool finished() const { return finished_; }
    const ThreadStats &stats() const { return stats_; }
    std::uint16_t core() const { return core_; }

    /**
     * Wire up latency attribution: issue-point blocks (full fill /
     * WC / store buffer) feed the core.lfb station, and every demand
     * read retires its end-to-end latency into the board's bracket.
     * nullptr disables (the default).
     */
    void
    setAttribution(AttributionBoard *board)
    {
        board_ = board;
        stLfb_ = board ? &board->station(StationId::CoreLfb) : nullptr;
    }

  private:
    void tryIssue();
    void maybeFinish();

    /** The pending op cannot issue for lack of a core resource:
     *  remember when the wait began (first block only). */
    void
    noteBlocked()
    {
        if (!pendingBlocked_) {
            pendingBlocked_ = true;
            pendingBlockedSince_ = localTime_;
            if (stLfb_)
                stLfb_->enter(localTime_);
        }
    }

    /** Open a tracing span for the pending op if it is sampled;
     *  also retires the blocked-wait accounting. */
    TraceSpan *beginSpan(MemCmd cmd, Addr paddr);
    std::uint32_t outstandingAll() const
    {
        return outstandingLoads_ + outstandingStores_ + outstandingNt_
               + pendingNtDrain_ + outstandingFlushes_;
    }

    CacheHierarchy &hier_;
    EventQueue &eq_;
    std::uint16_t core_;
    CoreParams params_;

    std::unique_ptr<AccessStream> stream_;
    FinishFn onFinish_;

    MemOp pending_{};
    bool havePending_ = false;
    bool pendingBlocked_ = false;
    Tick pendingBlockedSince_ = 0;
    bool streamDone_ = false;
    bool finished_ = false;
    bool running_ = false;

    Tick startTick_ = 0;
    Tick localTime_ = 0;
    Tick lastCompletion_ = 0;      //!< max completion across all ops
    Tick lastStoreCompletion_ = 0; //!< max completion across stores
    Tick lastValueReady_ = 0;      //!< max data-return across loads

    std::uint32_t outstandingLoads_ = 0;
    std::uint32_t outstandingStores_ = 0;
    std::uint32_t outstandingNt_ = 0;     //!< posted but not accepted
    std::uint32_t pendingNtDrain_ = 0;    //!< accepted but not drained
    std::uint32_t outstandingFlushes_ = 0;

    AttributionBoard *board_ = nullptr;
    AccountedStation *stLfb_ = nullptr;

    ThreadStats stats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_CPU_CORE_HH
