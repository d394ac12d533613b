/**
 * @file
 * Three-level cache hierarchy (per-core L1D and L2, shared LLC) with
 * timing, RFO store-miss semantics, writeback traffic, cacheline
 * flush/writeback instructions and an optional L2 stream prefetcher.
 *
 * Coherence scope: the studied workloads never write-share lines
 * across cores, so cross-core invalidation rounds are not modelled
 * (a store to an S line upgrades for free). What *is* modelled -- and
 * what the paper's results depend on -- is the read-for-ownership
 * fill on store misses and the dirty writeback stream on evictions,
 * i.e. the memory-side traffic of MESI.
 *
 * Inclusivity: L1 and L2 are subsets of the LLC; the LLC tracks the
 * installing core per line so back-invalidation touches exactly one
 * core's private levels.
 */

#ifndef CXLMEMO_CACHE_HIERARCHY_HH
#define CXLMEMO_CACHE_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "numa/numa.hh"
#include "sim/attribution.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/qos.hh"

namespace cxlmemo
{

class RequestTracer;
struct TraceSpan;

/** Geometry and timing of the whole hierarchy. */
struct HierarchyParams
{
    std::uint32_t numCores = 32;

    /** SPR-like defaults: 48 KiB L1D, 2 MiB L2, 60 MiB shared LLC. */
    CacheParams l1{"l1d", 48 * kiB, 12, ticksFromNs(2.5)};
    CacheParams l2{"l2", 2 * miB, 16, ticksFromNs(8.0)};
    CacheParams llc{"llc", 60 * miB, 15, ticksFromNs(22.0)};

    /** LLC-miss handling: CHA/home-agent and mesh hop to the memory
     *  dispatch point (the return path is folded in as well). */
    Tick uncoreLatency = ticksFromNs(12.0);

    /** Store-buffer drain to the uncore for NT stores. */
    Tick ntDispatchLatency = ticksFromNs(6.0);

    bool prefetchEnabled = false;
    std::uint32_t prefetchDegree = 8;
    std::uint32_t prefetchStreams = 16;

    /** Extra home-agent handshake paid by a demand miss to a recently
     *  flushed line, on nodes with NumaNode::flushHandshake. */
    Tick flushHandshakePenalty = ticksFromNs(70.0);

    /**
     * Optional per-core DTLB model (off by default: the paper's
     * figures are reproducible without it, but it supplies the
     * page-walk cost that penalizes small random blocks -- see the
     * ablation bench). When enabled, every access pays an extra
     * charge on an L1-TLB miss (STLB hit) or a full page walk.
     */
    bool tlbEnabled = false;
    std::uint32_t l1TlbEntries = 64;
    std::uint32_t l2TlbEntries = 1536;
    Tick l2TlbLatency = ticksFromNs(4.0);
    Tick pageWalkLatency = ticksFromNs(60.0);
};

/** Aggregated prefetcher counters. */
struct PrefetchStats
{
    std::uint64_t issued = 0;
    std::uint64_t usefulHits = 0;
};

/** Poison bookkeeping of the hierarchy (faults enabled only). */
struct HierarchyRasStats
{
    std::uint64_t poisonedFills = 0; //!< poisoned lines installed
    std::uint64_t poisonedHits = 0;  //!< hits that served poisoned data
};

/**
 * The cache hierarchy shared by all cores of one socket, routing
 * misses to memory devices through the NUMA space.
 *
 * Timing protocol: operations are issued at a caller-provided tick
 * @p at (>= the event queue's current tick; workload threads run
 * slightly ahead of global time while hitting in their caches). When
 * the operation resolves without a memory access, the completion tick
 * is *returned* and the callback is not invoked; otherwise the
 * callback fires at completion.
 */
class CacheHierarchy
{
  public:
    using Done = InlineCallback<void(Tick)>;

    CacheHierarchy(EventQueue &eq, NumaSpace &numa, HierarchyParams params);

    /** Demand load of one cacheline. @p span is the optional tracing
     *  span of the access (null = untraced; attached to the memory
     *  request on a miss). */
    std::optional<Tick> load(std::uint16_t core, Addr paddr, Tick at,
                             Done cb, TraceSpan *span = nullptr);

    /** Temporal store (write-allocate, RFO on miss). */
    std::optional<Tick> store(std::uint16_t core, Addr paddr, Tick at,
                              Done cb, TraceSpan *span = nullptr);

    /**
     * Full-line non-temporal store: invalidates any cached copy and
     * posts the line to memory.
     * @param onAccept  fires when the write is posted (WC buffer can
     *                  be released; backpressured by the target's
     *                  posted-queue depth)
     * @param onDrained fires at global observability (what an sfence
     *                  waits for: iMC drain, or the CXL S2M NDR)
     */
    void ntStore(std::uint16_t core, Addr paddr, Tick at, Done onAccept,
                 Done onDrained, TraceSpan *span = nullptr);

    /** Cache-bypassing read (movdir64B source side); no fill. */
    void uncachedRead(std::uint16_t core, Addr paddr, std::uint32_t size,
                      Tick at, Done cb);

    /** clflush: evict everywhere; cb when dirty data reaches memory. */
    std::optional<Tick> flush(std::uint16_t core, Addr paddr, Tick at,
                              Done cb);

    /** clwb: write dirty data back but keep a clean copy. */
    std::optional<Tick> clwb(std::uint16_t core, Addr paddr, Tick at,
                             Done cb);

    /** Drop all cached state (between experiment repetitions). */
    void flushAllCaches();

    /**
     * Fill the LLC with Modified lines from @p buf (an initialization
     * shortcut to the steady state of a store-heavy workload, where
     * every LLC fill displaces a dirty victim and produces writeback
     * traffic). No timing events are generated; displaced lines are
     * silently dropped.
     */
    void primeLlcDirty(const NumaBuffer &buf, std::uint16_t owner);

    const HierarchyParams &params() const { return params_; }
    const CacheStats &l1Stats(std::uint16_t core) const;
    const CacheStats &llcStats() const { return llc_->stats(); }

    /** Bytes one L1D, one L2 and the LLC hold as modelled (see
     *  SetAssocCache::heldBytes); every core's private caches have
     *  core 0's geometry. */
    std::uint64_t l1Bytes() const { return l1_.front().heldBytes(); }
    std::uint64_t l2Bytes() const { return l2_.front().heldBytes(); }
    std::uint64_t llcBytes() const { return llc_->heldBytes(); }

    const PrefetchStats &prefetchStats() const { return pfStats_; }

    /** TLB counters (all cores; zero when the TLB is disabled). */
    std::uint64_t tlbWalks() const { return tlbWalks_; }
    std::uint64_t stlbHits() const { return stlbHits_; }

    EventQueue &eventQueue() { return eq_; }

    /** Wire up fault injection (poison tracking); nullptr disables. */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /** Sink fired with the physical address of every poison-consuming
     *  fill -- feeds the chaos layer's per-page error ledger. */
    void
    setPoisonSink(std::function<void(Addr, Tick)> sink)
    {
        poisonSink_ = std::move(sink);
    }

    /** Wire up request-lifecycle tracing; nullptr disables (the
     *  default: cores never open spans, devices see null spans). */
    void setTracer(RequestTracer *t) { tracer_ = t; }

    /**
     * Attach a latency-accounting station covering the lookup path
     * (L1/L2/LLC latency plus the uncore hop on a miss). Demand loads
     * and uncached reads dispatched to memory while a station is
     * attached are flagged for bracketed latency-stack accounting
     * downstream. nullptr disables (the default).
     */
    void setStation(AccountedStation *st) { station_ = st; }

    /** The tracer cores sample spans from (nullptr = tracing off). */
    RequestTracer *tracer() const { return tracer_; }

    /**
     * Wire up the host bridge's QoS throttle: issues targeting
     * @p node (the CXL device reporting DevLoad) are paced by
     * @p throttle. nullptr disables (the default: zero overhead,
     * bit-identical timing).
     */
    void
    setQosThrottle(HostThrottle *throttle, NodeId node)
    {
        qosThrottle_ = throttle;
        qosNode_ = node;
    }

    /**
     * Pacing delay for one line issued by @p core toward @p paddr at
     * @p at; 0 unless a throttle is wired up and the address routes
     * to the throttled node.
     */
    Tick
    qosIssueDelay(std::uint16_t core, Addr paddr, Tick at)
    {
        if (!qosThrottle_ || nodeOfPaddr(paddr) != qosNode_)
            return 0;
        return qosThrottle_->issueDelay(core, at);
    }

    /**
     * Poison status of the most recent data delivery (a load hit on a
     * poisoned line, or a fill from a poisoned memory read). The
     * consumer (HwThread) takes it immediately after the hierarchy
     * returns / invokes the completion callback; taking clears it.
     * Completion chains run synchronously within one event, so the
     * flag cannot be interleaved by another access.
     */
    bool
    takeDeliveryPoison()
    {
        const bool p = deliveryPoisoned_;
        deliveryPoisoned_ = false;
        return p;
    }

    const HierarchyRasStats &rasStats() const { return rasStats_; }

    /** Poisoned lines currently cached (tests / monitoring). */
    std::size_t poisonedLinesCached() const
    {
        return poisonedLines_.size();
    }

  private:
    struct Stream
    {
        std::uint64_t nextLine = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    void fillL1(std::uint16_t core, std::uint64_t la, LineState st,
                Tick at);
    void fillL2(std::uint16_t core, std::uint64_t la, LineState st,
                Tick at, bool prefetched = false);
    void fillLlc(std::uint16_t core, std::uint64_t la, LineState st,
                 Tick at);

    /** Fetch a line from memory and fill the hierarchy. @p issued is
     *  the tick the access entered the hierarchy (latency accounting);
     *  @p attrib flags the request for the bracketed latency stack. */
    void missToMemory(std::uint16_t core, std::uint64_t la, Tick dispatch,
                      bool rfo, Done cb, TraceSpan *span = nullptr,
                      bool attrib = false, Tick issued = 0);

    /** Absorb the poison a memory device armed on the fill of @p la
     *  that completed at @p t, just before its callback ran: the
     *  cached copy becomes a tracked poisoned line.
     *  @return whether the fill was poisoned. */
    bool absorbPoison(std::uint64_t la, Tick t);

    /** End a flush or clwb of @p la issued at @p at: the lookup walks
     *  every level, then a @p dirty line is written back and @p cb
     *  fires when it reaches memory. */
    std::optional<Tick> writebackIfDirty(std::uint16_t core,
                                         std::uint64_t la, Tick at,
                                         bool dirty, Done cb);

    /** End a cache hit that completes at @p done: the lookup station
     *  is credited the whole pass as service. @return @p done. */
    Tick
    hit(Tick issued, Tick done, bool attrib)
    {
        if (station_)
            station_->passThrough(0, done - issued, done - issued, attrib,
                                  done);
        return done;
    }

    /** Fire-and-forget dirty eviction to the line's home device. */
    void writebackLine(std::uint64_t la, std::uint16_t source, Tick at,
                       Done cb = nullptr);

    /** Stream-prefetcher observation hook (L2 miss / prefetch hit). */
    void observeForPrefetch(std::uint16_t core, std::uint64_t la, Tick at);

    /** Address-translation charge for one access (0 on an L1-TLB
     *  hit); updates the per-core TLB state. */
    Tick tlbCharge(std::uint16_t core, Addr paddr);

    /** Mark the current delivery poisoned if @p la carries poison. */
    void
    notePoisonHit(std::uint64_t la)
    {
        if (poisonedLines_.empty() || poisonedLines_.count(la) == 0)
            return;
        rasStats_.poisonedHits++;
        deliveryPoisoned_ = true;
    }

    /** Drop poison tracking for @p la (evicted / overwritten). */
    void
    clearPoison(std::uint64_t la)
    {
        if (!poisonedLines_.empty())
            poisonedLines_.erase(la);
    }

    EventQueue &eq_;
    NumaSpace &numa_;
    HierarchyParams params_;

    std::vector<SetAssocCache> l1_;
    std::vector<SetAssocCache> l2_;
    std::unique_ptr<SetAssocCache> llc_;

    /** Per-core TLBs, reusing the tag-array machinery (one "line"
     *  per page translation). Empty when disabled. */
    std::vector<SetAssocCache> l1Tlb_;
    std::vector<SetAssocCache> l2Tlb_;
    std::uint64_t tlbWalks_ = 0;
    std::uint64_t stlbHits_ = 0;

    std::vector<std::vector<Stream>> streams_; //!< per core
    std::unordered_set<std::uint64_t> prefetchInFlight_;
    std::unordered_set<std::uint64_t> recentlyFlushed_;
    PrefetchStats pfStats_;
    std::uint64_t streamClock_ = 0;

    HostThrottle *qosThrottle_ = nullptr;
    NodeId qosNode_ = 0;

    RequestTracer *tracer_ = nullptr;

    AccountedStation *station_ = nullptr;

    FaultInjector *faults_ = nullptr;
    std::function<void(Addr, Tick)> poisonSink_;
    /** Cached lines whose data carries poison from a faulty read. */
    std::unordered_set<std::uint64_t> poisonedLines_;
    bool deliveryPoisoned_ = false;
    HierarchyRasStats rasStats_;
};

} // namespace cxlmemo

#endif // CXLMEMO_CACHE_HIERARCHY_HH
