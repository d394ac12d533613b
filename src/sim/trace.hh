/**
 * @file
 * Request-lifecycle tracing: sampled per-request spans that timestamp
 * each pipeline stage a MemRequest passes through, from core issue to
 * response delivery.
 *
 * The flight-recorder model:
 *
 *  - A RequestTracer decides at issue time (deterministic 1-in-N
 *    counter, no RNG -- tracing must not perturb seeded streams)
 *    whether a request gets a span. Unsampled requests carry a null
 *    span pointer and pay a single pointer test per stage.
 *  - Components mark stage *entry* with RequestTracer::mark(span,
 *    stage, tick); marks are ordered, so a stage's duration is the
 *    gap to the next mark (or to span end for the last stage).
 *  - Completed spans accumulate for Chrome trace-event JSON export
 *    (Perfetto-loadable) and feed a bounded ring of the last N
 *    completions that the watchdog post-mortem dumps, together with
 *    still-open spans and the stage each one is stuck in.
 *
 * Disabled (sampleEvery == 0, the default), maybeStart() returns
 * nullptr unconditionally, no span is ever allocated, and simulated
 * behaviour is bit-identical to a build without this subsystem:
 * tracing only observes ticks, never schedules or delays anything.
 */

#ifndef CXLMEMO_SIM_TRACE_HH
#define CXLMEMO_SIM_TRACE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/observability.hh"
#include "sim/types.hh"

namespace cxlmemo
{

/**
 * Pipeline stages a request can enter, in rough path order. One
 * request touches a subset: a local-DRAM read sees Issue/Cache/Dram;
 * a CXL read adds the link, controller and (under overload) credit
 * stages; a remote-socket read sees Upi instead.
 */
enum class TraceStage : std::uint8_t
{
    Issue,      //!< core issued (left the thread's issue gate)
    LfbWait,    //!< stalled for a fill buffer / WC buffer / store entry
    Cache,      //!< L1-L2-LLC lookup pipeline
    Dram,       //!< DRAM channel (local, remote or device back-end)
    Upi,        //!< cross-socket UPI hop
    CxlM2s,     //!< M2S flit serialization + propagation (host->device)
    CxlCredit,  //!< waiting for an M2S message-class credit
    CxlIngress, //!< device controller ingress pipe + tracker/buffer wait
    CxlEgress,  //!< device controller egress pipe
    CxlS2m,     //!< S2M response flit (device->host)
    // Fabric stages: the pooled-memory switch path (Cluster mode).
    SwM2s,        //!< host -> switch ingress flit (port latency)
    SwCredit,     //!< waiting for a port rd/wr credit
    SwVoq,        //!< queued in the port's virtual output queue
    SwXbar,       //!< crossbar grant + request serialization
    SwDev,        //!< pooled device service (behind the switch)
    SwEgress,     //!< response waiting for / crossing the egress wire
    SwS2m,        //!< switch -> host response flit (port latency)
    SwFenceAbort, //!< aborted by port fencing (blast-radius path)
};

/** First stage of the fabric (switch-path) range, for track routing:
 *  exporters place stages >= this on the fabric track. */
constexpr bool
isFabricStage(TraceStage s)
{
    return s >= TraceStage::SwM2s;
}

/** Human/trace-viewer name of a stage. */
const char *traceStageName(TraceStage s);

/** One timestamped stage entry within a span. */
struct StageMark
{
    TraceStage stage;
    Tick at;
};

/** What every recorded request carries: identity plus stage marks. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint16_t source = 0;
    MemCmd cmd = MemCmd::Read;
    Addr addr = 0;
    Tick start = 0;
    Tick end = 0;
    std::vector<StageMark> marks;
};

/** The recorded lifecycle of one sampled request. */
struct TraceSpan : SpanRecord
{
    /** 1-in-N sampled (exported + ringed); tail-only spans are
     *  considered for worst-K capture and then recycled. */
    bool sampled = true;
    /** Slot in the tracer's open set, kept current so finish() is
     *  O(1) -- with tail capture armed every demand read has a span
     *  and a linear scan would be hot. */
    std::uint32_t openIdx = 0;
};

/**
 * Append @p span as Chrome trace-event JSON objects (comma-separated,
 * no surrounding array) to @p out: a parent "X" slice named @p name
 * (args.stage = @p kind) plus one child slice per stage mark, lasting
 * until the next mark (span end for the last). ts/dur are
 * microseconds; the slices sit on process @p pid, thread @p tid,
 * except that fabric stages go to @p fabricPid; args.id is
 * @p idBase | span.id. @p first tracks whether a comma is needed
 * before the next event.
 */
void appendSpanEvents(std::string &out, bool &first,
                      const SpanRecord &span, const char *name,
                      const char *kind, int pid, unsigned tid,
                      std::uint64_t idBase, int fabricPid);

class TailCapture;

class RequestTracer
{
  public:
    /**
     * @param sampleEvery trace every Nth request (0 disables);
     * @param ringCap completed spans kept for the post-mortem ring;
     * @param tailK worst-K tail capture depth (0 disables). Armed,
     *        maybeStart() returns a span for *every* demand read (not
     *        just the sampled 1-in-N), and finish() offers each
     *        completed read to the capture. Tail-only spans never
     *        reach the export set or the ring; they are recycled
     *        through a free list, so steady state allocates nothing.
     */
    explicit RequestTracer(std::uint64_t sampleEvery,
                           std::size_t ringCap = 32,
                           std::uint32_t tailK = 0);
    ~RequestTracer();

    /** The tracer @p obs asks for: null unless sampled tracing or
     *  tail capture is on. */
    static std::unique_ptr<RequestTracer>
    fromOptions(const ObservabilityOptions &obs);

    /**
     * Called at every request issue. Returns a stable span pointer for
     * the 1-in-N sampled requests, nullptr otherwise. The pointer
     * stays valid until finish().
     */
    TraceSpan *maybeStart(std::uint16_t source, MemCmd cmd, Addr addr,
                          Tick at);

    /** Record stage entry; null-safe so call sites need no tracer. */
    static void
    mark(TraceSpan *span, TraceStage stage, Tick at)
    {
        if (span)
            span->marks.push_back({stage, at});
    }

    /** Complete the span: moves it to the export set and the ring. */
    void finish(TraceSpan *span, Tick at);

    /** Worst-K tail capture (nullptr unless tailK > 0). */
    TailCapture *tailCapture() const { return tail_.get(); }

    std::uint64_t seen() const { return seen_; }
    std::size_t openCount() const { return open_.size(); }
    std::size_t completedCount() const { return completed_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    const std::deque<TraceSpan> &ring() const { return ring_; }

    /**
     * Append this tracer's completed spans with appendSpanEvents():
     * parent slices named after the command, tid the issuing source,
     * @p pid distinguishing machines (sweep points) or hosts in a
     * merged trace. Span ids are offset by @p idBase, and fabric
     * stages land on @p fabricPid (< 0: on @p pid).
     */
    void appendTraceEvents(std::string &out, int pid, bool &first,
                           std::uint64_t idBase = 0,
                           int fabricPid = -1) const;

    /**
     * Post-mortem section for the watchdog: with sampling on, the
     * flight recorder's last-N completed spans and every still-open
     * span with the stage it is stuck in; with tail capture on, the
     * worst-K table.
     */
    std::string postMortem(Tick now) const;

  private:
    std::uint64_t sampleEvery_;
    std::size_t ringCap_;
    std::uint64_t seen_ = 0;
    /** Requests until the next sample (1 == sample the next one). */
    std::uint64_t countdown_ = 1;
    std::uint64_t nextId_ = 0;
    std::uint64_t dropped_ = 0;

    /** Worst-K tail capture (null = sampled tracing only). */
    std::unique_ptr<TailCapture> tail_;

    /** Spans in flight; unique_ptr keeps addresses stable. */
    std::vector<std::unique_ptr<TraceSpan>> open_;
    /** Recycled span shells (marks keep their capacity, so tail mode
     *  stops allocating once the open set has seen its high-water
     *  mark). */
    std::vector<std::unique_ptr<TraceSpan>> free_;
    /** Completed spans retained for JSON export (bounded). */
    std::vector<TraceSpan> completed_;
    /** Last-N completed spans for the post-mortem. */
    std::deque<TraceSpan> ring_;

    /** Export-set bound: past this, spans still feed the ring but are
     *  dropped from the JSON (counted in dropped_). */
    static constexpr std::size_t maxCompleted_ = 1u << 20;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_TRACE_HH
