#include "harness.hh"

#include <chrono>
#include <cstdio>

namespace e2e
{

using namespace cxlmemo;

double
nowS()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch)
        .count();
}

void
Counters::add(const Counters &o)
{
    events += o.events;
    windows += o.windows;
    crossPosts += o.crossPosts;
    clampedPosts += o.clampedPosts;
    l1Accesses += o.l1Accesses;
    llcAccesses += o.llcAccesses;
    llcHits += o.llcHits;
    dramReqs += o.dramReqs;
    dramRowHits += o.dramRowHits;
    dramRowMisses += o.dramRowMisses;
    cxlReqs += o.cxlReqs;
    cxlRowHits += o.cxlRowHits;
    cxlRowMisses += o.cxlRowMisses;
    cxlStallTicks += o.cxlStallTicks;
    upiBytes += o.upiBytes;
    swReqs += o.swReqs;
    swCreditStallTicks += o.swCreditStallTicks;
}

void
Counters::foldInto(Digest &d) const
{
    for (std::uint64_t v :
         {l1Accesses, llcAccesses, llcHits, dramReqs, dramRowHits,
          dramRowMisses, cxlReqs, cxlRowHits, cxlRowMisses, cxlStallTicks,
          upiBytes, swReqs, swCreditStallTicks})
        d.add(v);
}

namespace
{

void
addDram(Counters &c, const DeviceStats &s)
{
    c.dramReqs += s.reads + s.writes;
    c.dramRowHits += s.rowHits;
    c.dramRowMisses += s.rowMisses;
}

} // namespace

Counters
readMachine(Machine &m)
{
    Counters c;
    if (const ParallelExecutor *ex = m.executor()) {
        c.windows = ex->windows();
        c.crossPosts = ex->crossPosts();
        c.clampedPosts = ex->clampedPosts();
    } else {
        c.events = m.eq().eventsExecuted();
    }
    for (std::uint32_t core = 0; core < m.numCores(); ++core) {
        const CacheStats &l1 =
            m.caches().l1Stats(static_cast<std::uint16_t>(core));
        c.l1Accesses += l1.hits + l1.misses;
    }
    const CacheStats &llc = m.caches().llcStats();
    c.llcAccesses = llc.hits + llc.misses;
    c.llcHits = llc.hits;
    addDram(c, m.localMem().stats());
    if (m.hasRemote()) {
        addDram(c, m.remoteMem().stats());
        c.upiBytes = m.remoteMem().bytesDown() + m.remoteMem().bytesUp();
    }
    if (m.hasCxl()) {
        const DeviceStats be = m.cxlDev().backendStats();
        c.cxlReqs = be.reads + be.writes;
        c.cxlRowHits = be.rowHits;
        c.cxlRowMisses = be.rowMisses;
        const CxlControllerStats &cs = m.cxlDev().controllerStats();
        c.cxlStallTicks = cs.readStallTicks + cs.writeStallTicks;
    }
    return c;
}

std::string
SpanLog::chromeJson() const
{
    std::string out = "{\"traceEvents\":[\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"bench_e2e\"}}";
    char buf[512];
    for (const Span &s : spans_) {
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                      s.name.c_str(), s.startS * 1e6,
                      (s.endS - s.startS) * 1e6, s.tid,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

Pass::Pass(SpanLog &log, std::uint64_t workloadSpan)
    : log_(log), workloadSpan_(workloadSpan), startS_(nowS())
{
}

void
Pass::addPoint(const std::string &label, double startS, double doneS,
               const Counters &c, Tick endTick)
{
    const double endS = nowS();
    if (doneS < startS)
        doneS = endS; // the call returned without a machine hook
    // Point ids are unique within a workload span: point[i] and its
    // point.run / point.teardown children share one id.
    const std::uint64_t id = workloadSpan_ * 1000 + ++nextPoint_;
    log_.add("point[" + std::to_string(nextPoint_ - 1) + "] " + label, id,
             workloadSpan_, startS, endS);
    log_.add("point.run", id, id, startS, doneS);
    log_.add("point.teardown", id, id, doneS, endS);
    counters_.add(c);
    c.foldInto(digest_);
    digest_.add(endTick);
    simTicks_ += endTick;
}

void
Pass::check(const std::string &name, double paper, double measured,
            bool ok)
{
    checks_.push_back({name, paper, measured, ok});
    if (!ok) {
        ++failed_;
        failures_.push_back("shape check failed: " + name);
    }
}

void
Pass::fail(const std::string &why)
{
    failures_.push_back(why);
}

void
Pass::end()
{
    wallS_ = nowS() - startS_;
    log_.add("workload", workloadSpan_, 0, startS_, startS_ + wallS_);
}

} // namespace e2e
