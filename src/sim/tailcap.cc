#include "sim/tailcap.hh"

#include <algorithm>
#include <cstdio>

namespace cxlmemo
{

const char *
tailRegimeName(TailRegime r)
{
    switch (r) {
      case TailRegime::Local:  return "local";
      case TailRegime::Remote: return "remote";
      case TailRegime::Cxl:    return "cxl";
      case TailRegime::Fabric: return "fabric";
      case TailRegime::NumRegimes: break;
    }
    return "?";
}

bool
tailWorse(const TailSpan &a, const TailSpan &b)
{
    // Latency first (worse == longer), then (tick, seq) tie-breaks so
    // the order is a strict total order over distinct spans: two
    // different spans of one capture can never compare equal, which
    // is what makes the top-K set insertion-order independent.
    const Tick la = a.latency(), lb = b.latency();
    if (la != lb)
        return la > lb;
    if (a.start != b.start)
        return a.start < b.start;
    if (a.id != b.id)
        return a.id < b.id;
    return a.source < b.source;
}

TailRegime
TailCapture::classify(const TraceSpan &span)
{
    bool cxl = false, remote = false;
    for (const StageMark &m : span.marks) {
        if (isFabricStage(m.stage))
            return TailRegime::Fabric;
        switch (m.stage) {
          case TraceStage::CxlM2s:
          case TraceStage::CxlCredit:
          case TraceStage::CxlIngress:
          case TraceStage::CxlEgress:
          case TraceStage::CxlS2m:
            cxl = true;
            break;
          case TraceStage::Upi:
            remote = true;
            break;
          default:
            break;
        }
    }
    if (cxl)
        return TailRegime::Cxl;
    if (remote)
        return TailRegime::Remote;
    return TailRegime::Local;
}

std::vector<TailStage>
TailCapture::stageBreakdown(const TailSpan &s)
{
    std::vector<TailStage> out;
    if (s.marks.empty()) {
        out.push_back({TraceStage::Issue,
                       static_cast<std::int64_t>(s.end)
                           - static_cast<std::int64_t>(s.start)});
        return out;
    }
    out.reserve(s.marks.size() + 1);
    // Telescoping differences: the head gap (if any), each mark to
    // the next, the last mark to span end. Signed, unclamped -- the
    // sum collapses to end - start exactly, which is the whole point.
    const auto head = static_cast<std::int64_t>(s.marks.front().at)
                      - static_cast<std::int64_t>(s.start);
    if (head != 0)
        out.push_back({TraceStage::Issue, head});
    for (std::size_t i = 0; i < s.marks.size(); ++i) {
        const std::int64_t until =
            i + 1 < s.marks.size()
                ? static_cast<std::int64_t>(s.marks[i + 1].at)
                : static_cast<std::int64_t>(s.end);
        out.push_back({s.marks[i].stage,
                       until
                           - static_cast<std::int64_t>(s.marks[i].at)});
    }
    return out;
}

bool
TailCapture::stackExact(const TailSpan &s)
{
    std::int64_t sum = 0;
    for (const TailStage &st : stageBreakdown(s))
        sum += st.ticks;
    return sum == static_cast<std::int64_t>(s.end)
                      - static_cast<std::int64_t>(s.start);
}

void
TailCapture::consider(const TraceSpan &span)
{
    if (k_ == 0)
        return;
    ++considered_;
    TailSpan cand;
    cand.id = span.id;
    cand.source = span.source;
    cand.cmd = span.cmd;
    cand.addr = span.addr;
    cand.start = span.start;
    cand.end = span.end;
    cand.regime = classify(span);
    auto &cls = classes_[static_cast<std::size_t>(cand.regime)];
    if (cls.size() == k_ && !tailWorse(cand, cls.back()))
        return; // not worse than the class floor -- the common case
    cand.marks = span.marks;
    const auto pos = std::lower_bound(
        cls.begin(), cls.end(), cand,
        [](const TailSpan &a, const TailSpan &b) {
            return tailWorse(a, b);
        });
    cls.insert(pos, std::move(cand));
    if (cls.size() > k_)
        cls.pop_back();
}

void
TailCapture::merge(const TailCapture &o)
{
    if (k_ == 0)
        k_ = o.k_;
    considered_ += o.considered_;
    if (o.k_ == 0)
        return;
    for (std::size_t r = 0; r < numTailRegimes; ++r) {
        if (o.classes_[r].empty())
            continue;
        std::vector<TailSpan> merged;
        merged.reserve(classes_[r].size() + o.classes_[r].size());
        std::merge(classes_[r].begin(), classes_[r].end(),
                   o.classes_[r].begin(), o.classes_[r].end(),
                   std::back_inserter(merged),
                   [](const TailSpan &a, const TailSpan &b) {
                       return tailWorse(a, b);
                   });
        if (merged.size() > k_)
            merged.resize(k_);
        classes_[r] = std::move(merged);
    }
}

void
TailCapture::reset()
{
    considered_ = 0;
    for (auto &cls : classes_)
        cls.clear();
}

std::uint64_t
TailCapture::held() const
{
    std::uint64_t n = 0;
    for (const auto &cls : classes_)
        n += cls.size();
    return n;
}

std::vector<const TailSpan *>
TailCapture::worstFirst() const
{
    std::vector<const TailSpan *> out;
    out.reserve(held());
    for (const auto &cls : classes_)
        for (const TailSpan &s : cls)
            out.push_back(&s);
    // stable_sort on a strict total order: ties are impossible within
    // one capture, and cross-capture full ties (merged sweep points)
    // keep their deterministic insertion order.
    std::stable_sort(out.begin(), out.end(),
                     [](const TailSpan *a, const TailSpan *b) {
                         return tailWorse(*a, *b);
                     });
    return out;
}

namespace
{

/** Dominant stage of a span: the largest aggregate positive
 *  contribution, earliest stage on ties. */
TailStage
dominantStage(const TailSpan &s)
{
    std::int64_t perStage[32] = {};
    for (const TailStage &st : TailCapture::stageBreakdown(s))
        perStage[static_cast<std::size_t>(st.stage)] += st.ticks;
    TailStage best{TraceStage::Issue, -1};
    for (std::size_t i = 0; i < 32; ++i) {
        if (perStage[i] > best.ticks) {
            best.stage = static_cast<TraceStage>(i);
            best.ticks = perStage[i];
        }
    }
    return best;
}

} // namespace

TailSummary
TailCapture::summary() const
{
    TailSummary t;
    t.k = k_;
    t.considered = considered_;
    const auto worst = worstFirst();
    t.held = worst.size();
    for (const TailSpan *s : worst)
        t.stackExact = t.stackExact && stackExact(*s);
    if (worst.empty())
        return t;
    const TailSpan &w = *worst.front();
    t.worstNs = nsFromTicks(w.latency());
    const std::size_t kth =
        std::min<std::size_t>(k_ > 0 ? k_ : 1, worst.size()) - 1;
    t.kthNs = nsFromTicks(worst[kth]->latency());
    t.regime = tailRegimeName(w.regime);
    const TailStage dom = dominantStage(w);
    t.stage = traceStageName(dom.stage);
    t.stageNs = static_cast<double>(dom.ticks) / tickPerNs;
    return t;
}

std::string
TailCapture::table() const
{
    std::string out = "  tail worst-K (K=" + std::to_string(k_)
                      + ", considered="
                      + std::to_string(considered_) + "):\n";
    std::size_t rank = 0;
    for (const TailSpan *s : worstFirst()) {
        const TailStage dom = dominantStage(*s);
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "    #%zu [%s] id=%llu src=%u %s addr=0x%llx "
                      "lat=%.1fns worst_in=%s(%.1fns) stack_exact=%d\n",
                      rank++, tailRegimeName(s->regime),
                      static_cast<unsigned long long>(s->id),
                      static_cast<unsigned>(s->source),
                      memCmdName(s->cmd),
                      static_cast<unsigned long long>(s->addr),
                      static_cast<double>(s->latency()) / tickPerNs,
                      traceStageName(dom.stage),
                      static_cast<double>(dom.ticks) / tickPerNs,
                      stackExact(*s) ? 1 : 0);
        out += buf;
    }
    return out;
}

void
TailCapture::appendTraceEvents(std::string &out, int pid, bool &first,
                               std::uint64_t idBase) const
{
    for (const TailSpan *s : worstFirst()) {
        const std::string name =
            std::string("tail:") + tailRegimeName(s->regime);
        appendSpanEvents(out, first, *s, name.c_str(), "tail", pid,
                         kTailTid, idBase, pid);
    }
}

} // namespace cxlmemo
