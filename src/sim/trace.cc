#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/tailcap.hh"

namespace cxlmemo
{

const char *
traceStageName(TraceStage s)
{
    switch (s) {
      case TraceStage::Issue:      return "issue";
      case TraceStage::LfbWait:    return "lfb_wait";
      case TraceStage::Cache:      return "cache";
      case TraceStage::Dram:       return "dram";
      case TraceStage::Upi:        return "upi";
      case TraceStage::CxlM2s:     return "cxl_m2s";
      case TraceStage::CxlCredit:  return "cxl_credit";
      case TraceStage::CxlIngress: return "cxl_ingress";
      case TraceStage::CxlEgress:  return "cxl_egress";
      case TraceStage::CxlS2m:     return "cxl_s2m";
      case TraceStage::SwM2s:      return "sw_m2s";
      case TraceStage::SwCredit:   return "sw_credit";
      case TraceStage::SwVoq:      return "sw_voq";
      case TraceStage::SwXbar:     return "sw_xbar";
      case TraceStage::SwDev:      return "sw_dev";
      case TraceStage::SwEgress:   return "sw_egress";
      case TraceStage::SwS2m:      return "sw_s2m";
      case TraceStage::SwFenceAbort: return "sw_fence_abort";
    }
    return "?";
}

RequestTracer::RequestTracer(std::uint64_t sampleEvery, std::size_t ringCap,
                             std::uint32_t tailK)
    : sampleEvery_(sampleEvery), ringCap_(ringCap)
{
    if (tailK > 0)
        tail_ = std::make_unique<TailCapture>(tailK);
}

RequestTracer::~RequestTracer() = default;

std::unique_ptr<RequestTracer>
RequestTracer::fromOptions(const ObservabilityOptions &obs)
{
    if (obs.traceSampleEvery == 0 && obs.tailK == 0)
        return nullptr;
    return std::make_unique<RequestTracer>(obs.traceSampleEvery,
                                           defaultRingCap, obs.tailK);
}

TraceSpan *
RequestTracer::maybeStart(std::uint16_t source, MemCmd cmd, Addr addr,
                          Tick at)
{
    bool sampled = false;
    if (sampleEvery_ != 0) {
        ++seen_;
        // Countdown, not modulo: this runs at every request issue on
        // the hot path, and a u64 division per request is measurable
        // at pool scale. Starts at 1 so the first request is sampled,
        // matching the (seen % N == 0) rule this replaces.
        if (--countdown_ == 0) {
            countdown_ = sampleEvery_;
            sampled = true;
        }
    }
    // Tail mode spans *every* demand read: the requests that are the
    // p99 are almost never the 1-in-N sampled ones.
    const bool tail = tail_ != nullptr && cmd == MemCmd::Read;
    if (!sampled && !tail)
        return nullptr;
    std::unique_ptr<TraceSpan> span;
    if (!free_.empty()) {
        span = std::move(free_.back());
        free_.pop_back();
        span->marks.clear();
    } else {
        span = std::make_unique<TraceSpan>();
    }
    span->id = nextId_++;
    span->source = source;
    span->cmd = cmd;
    span->addr = addr;
    span->start = at;
    span->end = 0;
    span->sampled = sampled;
    span->openIdx = static_cast<std::uint32_t>(open_.size());
    TraceSpan *raw = span.get();
    open_.push_back(std::move(span));
    return raw;
}

void
RequestTracer::finish(TraceSpan *span, Tick at)
{
    CXLMEMO_ASSERT(span != nullptr, "finishing a null span");
    span->end = at;
    const std::size_t idx = span->openIdx;
    CXLMEMO_ASSERT(idx < open_.size() && open_[idx].get() == span,
                   "span finished twice or never opened");
    std::unique_ptr<TraceSpan> done = std::move(open_[idx]);
    // Swap-remove (O(1) via the span's stored slot index): span
    // completion order is timing-dependent anyway; exports sort
    // nothing and viewers order by timestamp.
    if (idx != open_.size() - 1) {
        open_[idx] = std::move(open_.back());
        open_[idx]->openIdx = static_cast<std::uint32_t>(idx);
    }
    open_.pop_back();

    if (tail_ && done->cmd == MemCmd::Read)
        tail_->consider(*done);

    if (!done->sampled) {
        // Tail-only span: considered above, never exported or ringed
        // (the ring stays the sampled flight recorder). Recycle it.
        free_.push_back(std::move(done));
        return;
    }
    if (ringCap_ > 0) {
        if (ring_.size() == ringCap_)
            ring_.pop_front();
        ring_.push_back(*done);
    }
    if (completed_.size() < maxCompleted_)
        completed_.push_back(std::move(*done));
    free_.push_back(std::move(done));
}

namespace
{

/** One Chrome complete ("X") event. ts/dur are microseconds with 6
 *  decimals, i.e. the raw tick count split at 10^6 -- formatted in
 *  integer arithmetic because %.6f is the dominant cost of exporting
 *  a large trace (one export can carry tens of thousands of events). */
void
appendEvent(std::string &out, bool &first, const char *name, int pid,
            unsigned tid, Tick ts, Tick dur, std::uint64_t id, Addr addr,
            const char *stage)
{
    if (!first)
        out += ",\n";
    first = false;
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu.%06llu,"
        "\"dur\":%llu.%06llu,\"pid\":%d,\"tid\":%u,"
        "\"args\":{\"id\":%llu,\"addr\":%llu,\"stage\":\"%s\"}}",
        name, static_cast<unsigned long long>(ts / 1000000),
        static_cast<unsigned long long>(ts % 1000000),
        static_cast<unsigned long long>(dur / 1000000),
        static_cast<unsigned long long>(dur % 1000000), pid, tid,
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(addr), stage);
    out += buf;
}

} // namespace

void
appendSpanEvents(std::string &out, bool &first, const SpanRecord &span,
                 const char *name, const char *kind, int pid,
                 unsigned tid, std::uint64_t idBase, int fabricPid)
{
    const std::uint64_t id = idBase | span.id;
    appendEvent(out, first, name, pid, tid, span.start,
                span.end - span.start, id, span.addr, kind);
    for (std::size_t i = 0; i < span.marks.size(); ++i) {
        const StageMark &m = span.marks[i];
        const Tick until =
            i + 1 < span.marks.size() ? span.marks[i + 1].at : span.end;
        const char *stage = traceStageName(m.stage);
        appendEvent(out, first, stage,
                    isFabricStage(m.stage) ? fabricPid : pid, tid, m.at,
                    until > m.at ? until - m.at : 0, id, span.addr,
                    stage);
    }
}

void
RequestTracer::appendTraceEvents(std::string &out, int pid, bool &first,
                                 std::uint64_t idBase,
                                 int fabricPid) const
{
    for (const TraceSpan &span : completed_)
        appendSpanEvents(out, first, span, memCmdName(span.cmd), "span",
                         pid, span.source, idBase,
                         fabricPid < 0 ? pid : fabricPid);
}

namespace
{

void
appendSpanLine(std::string &out, const TraceSpan &s, bool open, Tick now)
{
    char buf[192];
    const char *last =
        s.marks.empty() ? "issue" : traceStageName(s.marks.back().stage);
    if (open) {
        std::snprintf(buf, sizeof(buf),
                      "    open id=%llu src=%u %s addr=0x%llx "
                      "age=%.1fns stuck_in=%s\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned>(s.source), memCmdName(s.cmd),
                      static_cast<unsigned long long>(s.addr),
                      static_cast<double>(now - s.start) / tickPerNs,
                      last);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "    done id=%llu src=%u %s addr=0x%llx "
                      "lat=%.1fns last=%s\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned>(s.source), memCmdName(s.cmd),
                      static_cast<unsigned long long>(s.addr),
                      static_cast<double>(s.end - s.start) / tickPerNs,
                      last);
    }
    out += buf;
}

} // namespace

std::string
RequestTracer::postMortem(Tick now) const
{
    std::string out;
    if (sampleEvery_ > 0) {
        out += "  flight recorder (sample 1/"
               + std::to_string(sampleEvery_) + "):\n";
        out += "   in-flight spans: " + std::to_string(open_.size())
               + "\n";
        for (const auto &p : open_)
            appendSpanLine(out, *p, true, now);
        out += "   last " + std::to_string(ring_.size())
               + " completed spans:\n";
        for (const TraceSpan &s : ring_)
            appendSpanLine(out, s, false, now);
    }
    if (tail_)
        out += tail_->table();
    return out;
}

} // namespace cxlmemo
