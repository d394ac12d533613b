/**
 * @file
 * Tests for the flight-recorder subsystem: log-bucket latency
 * histograms, request-lifecycle tracing, the interval-metrics
 * registry, mergeable running stats, and the machine-level wiring
 * (including the watchdog post-mortem integration).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "cpu/streams.hh"
#include "interconnect/switch.hh"
#include "memo/memo.hh"
#include "sim/chaos.hh"
#include "sim/fabric_attrib.hh"
#include "sim/histogram.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/statmerge.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

/* ------------------------- LatencyHistogram ---------------------- */

TEST(LatencyHistogram, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketOf(v), v);
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucketMidpoint(
                             LatencyHistogram::bucketOf(v)),
                         static_cast<double>(v));
    }
    h.record(7);
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(LatencyHistogram, RelativeErrorBounded)
{
    // Above the linear region the bucket midpoint must be within
    // 1/2^kSubBits of the recorded value.
    const double bound = 1.0 / (1u << LatencyHistogram::kSubBits);
    for (std::uint64_t v : {37ull, 1000ull, 123456ull, 987654321ull,
                            (1ull << 40) + 12345ull}) {
        const double mid = LatencyHistogram::bucketMidpoint(
            LatencyHistogram::bucketOf(v));
        EXPECT_LE(std::abs(mid - static_cast<double>(v)),
                  bound * static_cast<double>(v))
            << "value " << v;
    }
}

TEST(LatencyHistogram, ExactStatsAndApproxPercentiles)
{
    LatencyHistogram h;
    std::uint64_t sum = 0;
    for (std::uint64_t v = 1; v <= 1000; ++v) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / 1000.0);
    // ~3% relative error bound on interior percentiles.
    EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.04);
    EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.04);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
}

TEST(LatencyHistogram, MergeIsAssociative)
{
    auto fill = [](LatencyHistogram &h, std::uint64_t seed, int n) {
        std::uint64_t x = seed;
        for (int i = 0; i < n; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            h.record(x >> 40);
        }
    };
    LatencyHistogram a, b, c;
    fill(a, 1, 500);
    fill(b, 2, 300);
    fill(c, 3, 700);

    // (a + b) + c
    LatencyHistogram left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    LatencyHistogram bc = b;
    bc.merge(c);
    LatencyHistogram right = a;
    right.merge(bc);

    EXPECT_EQ(left.count(), right.count());
    EXPECT_EQ(left.sum(), right.sum());
    EXPECT_EQ(left.min(), right.min());
    EXPECT_EQ(left.max(), right.max());
    for (double p : {1.0, 25.0, 50.0, 75.0, 99.0})
        EXPECT_DOUBLE_EQ(left.percentile(p), right.percentile(p));

    // Merging equals recording everything into one histogram.
    LatencyHistogram all;
    fill(all, 1, 500);
    fill(all, 2, 300);
    fill(all, 3, 700);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_EQ(left.sum(), all.sum());
    EXPECT_DOUBLE_EQ(left.p99(), all.p99());
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity)
{
    LatencyHistogram a, empty;
    a.record(42);
    LatencyHistogram m = a;
    m.merge(empty);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_EQ(m.min(), 42u);
    EXPECT_EQ(m.max(), 42u);
    LatencyHistogram e2 = empty;
    e2.merge(a);
    EXPECT_EQ(e2.count(), 1u);
    EXPECT_EQ(e2.min(), 42u);
}

/* ------------------------- RequestTracer ------------------------- */

TEST(RequestTracer, SamplesExactlyOneInN)
{
    RequestTracer tr(4);
    int sampled = 0;
    for (int i = 0; i < 64; ++i) {
        TraceSpan *s = tr.maybeStart(0, MemCmd::Read, 0x1000 + i, i);
        if (s) {
            ++sampled;
            tr.finish(s, i + 10);
        }
    }
    EXPECT_EQ(sampled, 16);
    EXPECT_EQ(tr.seen(), 64u);
    EXPECT_EQ(tr.completedCount(), 16u);
    EXPECT_EQ(tr.openCount(), 0u);
}

TEST(RequestTracer, DisabledTracerNeverSamples)
{
    RequestTracer tr(0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(tr.maybeStart(0, MemCmd::Read, 0, i), nullptr);
}

TEST(RequestTracer, RingKeepsLastN)
{
    RequestTracer tr(1, /*ringCap=*/4);
    for (int i = 0; i < 10; ++i) {
        TraceSpan *s = tr.maybeStart(0, MemCmd::Read, i, i);
        ASSERT_NE(s, nullptr);
        tr.finish(s, i + 1);
    }
    EXPECT_EQ(tr.completedCount(), 10u);
    ASSERT_EQ(tr.ring().size(), 4u);
    // The ring holds the four most recent completions.
    EXPECT_EQ(tr.ring().front().id, 6u);
    EXPECT_EQ(tr.ring().back().id, 9u);
}

TEST(RequestTracer, PostMortemNamesStuckStage)
{
    RequestTracer tr(1);
    TraceSpan *s = tr.maybeStart(3, MemCmd::Read, 0xdead, 0);
    ASSERT_NE(s, nullptr);
    RequestTracer::mark(s, TraceStage::Cache, 100);
    RequestTracer::mark(s, TraceStage::CxlIngress, 2000);
    const std::string pm = tr.postMortem(ticksFromNs(500.0));
    EXPECT_NE(pm.find("flight recorder"), std::string::npos);
    EXPECT_NE(pm.find("in-flight spans: 1"), std::string::npos);
    EXPECT_NE(pm.find("stuck_in=cxl_ingress"), std::string::npos);
    EXPECT_NE(pm.find("addr=0xdead"), std::string::npos);
}

TEST(RequestTracer, JsonFragmentIsWellFormed)
{
    RequestTracer tr(1);
    TraceSpan *s = tr.maybeStart(1, MemCmd::Read, 64, 0);
    RequestTracer::mark(s, TraceStage::Issue, 0);
    RequestTracer::mark(s, TraceStage::Cache, 50);
    tr.finish(s, 300);

    std::string out;
    bool first = true;
    tr.appendTraceEvents(out, /*pid=*/7, first);
    EXPECT_FALSE(first);
    // Parent slice + one child per mark.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\":7"), std::string::npos);
    EXPECT_NE(out.find("\"stage\":\"span\""), std::string::npos);
    EXPECT_NE(out.find("\"stage\":\"cache\""), std::string::npos);
    // Three events -> two separators; braces balance.
    int depth = 0, events = 1;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] == '{')
            ++depth;
        else if (out[i] == '}')
            --depth;
        else if (out[i] == ',' && depth == 0)
            ++events;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(events, 3);
}

/* ------------------------- MetricsRegistry ----------------------- */

/** Parse long-format rows into (metric, kind) -> summed value. */
std::map<std::pair<std::string, std::string>, double>
sumRows(const std::string &rows)
{
    std::map<std::pair<std::string, std::string>, double> out;
    std::istringstream is(rows);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string t, name, kind, value;
        std::getline(ls, t, ',');
        std::getline(ls, name, ',');
        std::getline(ls, kind, ',');
        std::getline(ls, value, ',');
        out[{name, kind}] += std::stod(value);
    }
    return out;
}

TEST(MetricsRegistry, DeltasConserveTotals)
{
    MetricsRegistry r;
    std::uint64_t v = 0;
    r.addCounter("x.count", [&v] { return v; });
    double g = 1.5;
    r.addGauge("x.level", [&g] { return g; });

    v = 5;
    r.snapshot(ticksFromNs(1000.0));
    v = 12;
    g = 2.5;
    r.snapshot(ticksFromNs(2000.0));
    r.flush(ticksFromNs(3000.0));

    const auto sums = sumRows(r.rows());
    EXPECT_DOUBLE_EQ(sums.at({"x.count", "delta"}), 12.0);
    EXPECT_DOUBLE_EQ(sums.at({"x.count", "total"}), 12.0);
    // The timeline is a change log: the gauge is emitted at its
    // first sample and whenever it moves, so the unchanged flush
    // sample (2.5 again) is elided -- 1.5 + 2.5.
    EXPECT_DOUBLE_EQ(sums.at({"x.level", "gauge"}), 4.0);
    EXPECT_EQ(r.snapshots(), 3u);
}

TEST(MetricsRegistry, FlushIsIdempotent)
{
    MetricsRegistry r;
    std::uint64_t v = 7;
    r.addCounter("c", [&v] { return v; });
    r.flush(ticksFromNs(100.0));
    const std::string once = r.rows();
    r.flush(ticksFromNs(200.0));
    EXPECT_EQ(r.rows(), once);
}

TEST(MetricsSampler, StandsDownAtQuiesce)
{
    EventQueue eq;
    MetricsRegistry r;
    std::uint64_t v = 0;
    r.addCounter("c", [&v] { return v; });
    MetricsSampler sampler(eq, r, ticksFromNs(100.0));
    // Activity for 1 us -> ~10 snapshots, then the queue drains and
    // the sampler must not keep it alive.
    for (int i = 1; i <= 10; ++i)
        eq.scheduleIn(ticksFromNs(95.0 * i), [&v] { ++v; });
    sampler.arm();
    eq.run();
    EXPECT_FALSE(sampler.armed());
    EXPECT_GE(r.snapshots(), 5u);
}

/* -------------------------- observer clock ------------------------ */

TEST(ObserverClock, ObserversDoNotKeepEachOtherAlive)
{
    // A watchdog and a sampler on one queue: neither snapshot is work
    // for the other, so the run drains at its last real event and
    // both stand down, with no trailing snapshot.
    EventQueue eq;
    MetricsRegistry r;
    std::uint64_t v = 0;
    r.addCounter("c", [&v] { return v; });
    MetricsSampler sampler(eq, r, ticksFromNs(100.0));
    WatchdogParams wp;
    wp.interval = ticksFromNs(150.0);
    Watchdog dog(eq, wp);
    for (int i = 1; i <= 10; ++i)
        eq.scheduleIn(ticksFromNs(95.0 * i), [&v] { ++v; });
    sampler.arm();
    dog.arm();
    EXPECT_TRUE(eq.runUntil(ticksFromUs(100.0)));
    EXPECT_EQ(eq.curTick(), ticksFromNs(950.0));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(sampler.armed());
    EXPECT_FALSE(dog.armed());
    EXPECT_FALSE(dog.tripped());
    EXPECT_EQ(r.snapshots(), 9u);
}

/** Run a 64 KiB CXL load stream to quiesce under @p limit; returns
 *  whether it drained and the tick it ended at. */
std::pair<bool, Tick>
drainStream(MachineOptions mo)
{
    Machine m(Testbed::SingleSocketCxl, mo);
    auto t = m.makeThread(0);
    NumaBuffer buf =
        m.numa().alloc(64 * kiB, MemPolicy::membind(m.cxlNode()));
    t->start(std::make_unique<SequentialStream>(
                 buf, 0, 64 * kiB, 64 * kiB, MemOp::Kind::Load),
             m.eq().curTick(), [](Tick, Tick) {});
    m.rearmWatchdog();
    const bool drained = m.runUntil(ticksFromUs(10000.0));
    EXPECT_TRUE(t->finished());
    return {drained, m.eq().curTick()};
}

TEST(ObserverClock, MachineWithBothObserversDrainsAtItsLastEvent)
{
    for (const std::uint32_t st : {0u, 1u}) {
        MachineOptions dark;
        dark.simThreads = st;
        const auto ref = drainStream(dark);
        ASSERT_TRUE(ref.first);
        MachineOptions armed = dark;
        armed.watchdogInterval = ticksFromUs(2.0);
        armed.obs.metricsInterval = ticksFromNs(1500.0);
        const auto got = drainStream(armed);
        EXPECT_TRUE(got.first) << st << " sim-threads";
        EXPECT_EQ(got.second, ref.second) << st << " sim-threads";
    }
}

/* --------------------- machine-level wiring ---------------------- */

TEST(MachineObservability, DefaultBuildsNoObservers)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_EQ(m.tracer(), nullptr);
    EXPECT_EQ(m.metrics(), nullptr);
    EXPECT_EQ(m.localMem().latencyHistogram(), nullptr);
    EXPECT_EQ(m.cxlDev().latencyHistogram(), nullptr);
}

TEST(MachineObservability, HistogramsRecordDeviceLatency)
{
    memo::Options opts;
    opts.obs.latencyHistograms = true;
    std::uint64_t devSamples = 0;
    double p99ns = 0.0;
    opts.onMachineDone = [&](Machine &m) {
        const LatencyHistogram *h = m.cxlDev().latencyHistogram();
        ASSERT_NE(h, nullptr);
        devSamples = h->count();
        p99ns = h->p99() / tickPerNs;
    };
    memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 1,
                          opts);
    EXPECT_GT(devSamples, 100u);
    // CXL device access latency must be in a plausible range.
    EXPECT_GT(p99ns, 50.0);
    EXPECT_LT(p99ns, 5000.0);
}

TEST(MachineObservability, MetricsConservationOnRealRun)
{
    memo::Options opts;
    opts.obs.metricsInterval = ticksFromNs(500.0);
    std::string rows;
    opts.onMachineDone = [&rows](Machine &m) {
        m.flushMetrics();
        rows = m.metrics()->rows();
    };
    memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 1,
                          opts);
    ASSERT_FALSE(rows.empty());

    std::map<std::string, std::uint64_t> delta, total;
    std::istringstream is(rows);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string t, name, kind, value;
        std::getline(ls, t, ',');
        std::getline(ls, name, ',');
        std::getline(ls, kind, ',');
        std::getline(ls, value, ',');
        if (kind == "delta")
            delta[name] += std::stoull(value);
        else if (kind == "total")
            total[name] = std::stoull(value);
    }
    ASSERT_FALSE(total.empty());
    for (const auto &[name, tot] : total)
        EXPECT_EQ(delta[name], tot) << "metric " << name;
    // The timeline must actually contain interval samples, not just
    // the final flush.
    EXPECT_GT(delta.at("eq.events"), 0u);
}

TEST(MachineObservability, TraceCollectionDeterministicAcrossJobs)
{
    auto run = [](unsigned jobs) {
        SweepRunner pool(jobs);
        auto frags = pool.map(3, [](std::size_t i) {
            memo::Options o;
            o.obs.traceSampleEvery = 16;
            std::string json;
            o.onMachineDone = [&json, i](Machine &m) {
                bool first = true;
                m.tracer()->appendTraceEvents(
                    json, static_cast<int>(i), first);
            };
            memo::runLoadedLatency(memo::Target::Cxl,
                                   1 + static_cast<std::uint32_t>(i),
                                   o);
            return json;
        });
        std::string all;
        for (const std::string &f : frags)
            all += f;
        return all;
    };
    const std::string one = run(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, run(4));
}

/* --------------------- shared merge helpers ---------------------- */

/** The two statmerge rules every mergeable stats struct is built
 *  from. Counters fold with +=, one-shot timestamps with max; both
 *  are associative with identity 0, so any member list composed of
 *  them merges associatively -- the per-struct tests below then only
 *  need to exercise representative real structs. */
TEST(StatMerge, CounterAndTimestampRulesAreAssociative)
{
    struct S
    {
        std::uint64_t n = 0;
        Tick at = 0;
    };
    const auto merge = [](S into, const S &from) {
        mergeCounters(into, from, &S::n);
        mergeTimestamps(into, from, &S::at);
        return into;
    };
    const S a{3, 100}, b{5, 0}, c{7, 250};
    const S left = merge(merge(a, b), c);
    const S right = merge(a, merge(b, c));
    EXPECT_EQ(left.n, 15u);
    EXPECT_EQ(left.at, 250u);
    EXPECT_EQ(left.n, right.n);
    EXPECT_EQ(left.at, right.at);
    // Identity: merging a default S changes nothing.
    const S id = merge(a, S{});
    EXPECT_EQ(id.n, a.n);
    EXPECT_EQ(id.at, a.at);
}

TEST(StatMerge, SwitchPortStatsMergeIsAssociative)
{
    auto mk = [](std::uint64_t k, Tick down, Tick fence) {
        SwitchPortStats s;
        s.reqs = k;
        s.reads = k / 2;
        s.writes = k - k / 2;
        s.reqBytes = 64 * k;
        s.responses = k;
        s.poisoned = k / 7;
        s.aborted = k / 5;
        s.abortedInFlight = k / 11;
        s.droppedResponses = k / 13;
        s.creditStalls = 2 * k;
        s.creditStallTicks = 17 * k;
        s.heldWhileDown = k / 3;
        s.downs = k > 0 ? 1 : 0;
        s.retrains = k > 1 ? 1 : 0;
        s.downAt = down;
        s.upAt = down ? down + 500 : 0;
        s.fencedAt = fence;
        return s;
    };
    const SwitchPortStats a = mk(40, 1000, 0);
    const SwitchPortStats b = mk(7, 0, 9000);
    const SwitchPortStats c = mk(23, 4000, 0);

    SwitchPortStats left = a;
    left.merge(b);
    left.merge(c);
    SwitchPortStats bc = b;
    bc.merge(c);
    SwitchPortStats right = a;
    right.merge(bc);

    EXPECT_EQ(left.reqs, 70u);
    EXPECT_EQ(left.reqBytes, 64u * 70u);
    EXPECT_EQ(left.downAt, 4000u);  // later outage wins
    EXPECT_EQ(left.fencedAt, 9000u);
    for (auto m :
         {&SwitchPortStats::reqs, &SwitchPortStats::reads,
          &SwitchPortStats::writes, &SwitchPortStats::reqBytes,
          &SwitchPortStats::responses, &SwitchPortStats::poisoned,
          &SwitchPortStats::aborted, &SwitchPortStats::abortedInFlight,
          &SwitchPortStats::droppedResponses,
          &SwitchPortStats::creditStalls,
          &SwitchPortStats::creditStallTicks,
          &SwitchPortStats::heldWhileDown, &SwitchPortStats::downs,
          &SwitchPortStats::retrains})
        EXPECT_EQ(left.*m, right.*m);
    EXPECT_EQ(left.downAt, right.downAt);
    EXPECT_EQ(left.upAt, right.upAt);
    EXPECT_EQ(left.fencedAt, right.fencedAt);
}

TEST(StatMerge, ChaosStatsMergeIsAssociative)
{
    auto mk = [](std::uint64_t k, Tick at) {
        ChaosStats s;
        s.linkDowns = k;
        s.retrains = k;
        s.blockedMsgs = 3 * k;
        s.abortedReads = k / 2;
        s.poisonEvents = k / 3;
        s.pagesOfflined = k / 4;
        s.dataAtRiskBytes = 4096 * k;
        s.linkDownAt = at;
        s.removeAt = at ? at + 10 : 0;
        return s;
    };
    const ChaosStats a = mk(5, 700), b = mk(2, 0), c = mk(9, 300);
    ChaosStats left = a;
    left.merge(b);
    left.merge(c);
    ChaosStats bc = b;
    bc.merge(c);
    ChaosStats right = a;
    right.merge(bc);
    EXPECT_EQ(left.linkDowns, right.linkDowns);
    EXPECT_EQ(left.blockedMsgs, right.blockedMsgs);
    EXPECT_EQ(left.dataAtRiskBytes, right.dataAtRiskBytes);
    EXPECT_EQ(left.linkDownAt, right.linkDownAt);
    EXPECT_EQ(left.linkDownAt, 700u);
    EXPECT_EQ(left.removeAt, right.removeAt);
}

/** Drive a FabricBoard with synthetic accounting so the snapshot has
 *  every integer field populated. */
FabricSnapshot
fabricShard(std::uint64_t seed, Tick horizon)
{
    FabricBoard b(2, 1, 0);
    std::uint64_t x = seed;
    for (int i = 0; i < 20; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint32_t port = static_cast<std::uint32_t>(x & 1);
        const Tick t0 = (x >> 8) % (horizon / 2);
        const Tick q = (x >> 24) % 50;
        const Tick s = 10 + (x >> 32) % 40;
        b.beginRequest(port, t0);
        b.station(port, FabricStation::VoqWait)
            .passThrough(q, 0, 0, true, t0 + q);
        b.station(port, FabricStation::DevService)
            .passThrough(0, s, s, true, t0 + q + s);
        b.completeRequest(port, t0, t0 + q + s);
    }
    return b.snapshot(horizon);
}

void
expectSnapEq(const FabricSnapshot &l, const FabricSnapshot &r)
{
    ASSERT_EQ(l.ports.size(), r.ports.size());
    EXPECT_EQ(l.elapsed, r.elapsed);
    for (std::size_t p = 0; p < l.ports.size(); ++p) {
        EXPECT_EQ(l.ports[p].reqCount, r.ports[p].reqCount);
        EXPECT_EQ(l.ports[p].totalTicks, r.ports[p].totalTicks);
        for (std::size_t i = 0; i < numFabricStations; ++i) {
            const StationSnap &a = l.ports[p].st[i];
            const StationSnap &b = r.ports[p].st[i];
            EXPECT_EQ(a.enters, b.enters) << "port " << p << " st " << i;
            EXPECT_EQ(a.exits, b.exits);
            EXPECT_EQ(a.queueTicks, b.queueTicks);
            EXPECT_EQ(a.serviceTicks, b.serviceTicks);
            EXPECT_EQ(a.busyTicks, b.busyTicks);
            EXPECT_EQ(a.occIntegral, b.occIntegral);
            EXPECT_EQ(a.stackQueueTicks, b.stackQueueTicks);
            EXPECT_EQ(a.stackServiceTicks, b.stackServiceTicks);
        }
    }
}

TEST(StatMerge, FabricSnapshotMergeIsExactAndAssociative)
{
    const FabricSnapshot a = fabricShard(1, 10000);
    const FabricSnapshot b = fabricShard(2, 8000);
    const FabricSnapshot c = fabricShard(3, 12000);

    FabricSnapshot left = a;
    left.merge(b);
    left.merge(c);
    FabricSnapshot bc = b;
    bc.merge(c);
    FabricSnapshot right = a;
    right.merge(bc);
    expectSnapEq(left, right);
    EXPECT_EQ(left.elapsed, 30000u); // shard windows add

    // The cluster-wide roll-up is the same merge applied across
    // ports, so it distributes over the shard merge.
    FabricPortSnap roll = a.cluster();
    roll.merge(b.cluster());
    roll.merge(c.cluster());
    const FabricPortSnap whole = left.cluster();
    EXPECT_EQ(roll.reqCount, whole.reqCount);
    EXPECT_EQ(roll.totalTicks, whole.totalTicks);
    EXPECT_EQ(roll.stackTicks(), whole.stackTicks());
    EXPECT_TRUE(whole.decompositionExact());
}

/** Minimal wedged progress source used to trip the watchdog. */
class StuckSource : public ProgressSource
{
  public:
    std::string progressName() const override { return "stuck-dev"; }
    std::uint64_t progressRetired() const override { return 0; }
    std::uint64_t progressOutstanding() const override { return 1; }
    std::string progressDiagnosis() const override
    {
        return "    wedged\n";
    }
};

TEST(MachineObservability, WatchdogPostMortemIncludesFlightRecorder)
{
    MachineOptions mo;
    mo.obs.traceSampleEvery = 1;
    mo.watchdogInterval = ticksFromUs(1.0);
    Machine m(Testbed::SingleSocketCxl, mo);

    // Run a real stream so completed spans populate the ring.
    {
        auto t = m.makeThread(0);
        NumaBuffer buf =
            m.numa().alloc(64 * kiB, MemPolicy::membind(m.cxlNode()));
        t->start(std::make_unique<SequentialStream>(
                     buf, 0, 64 * kiB, 64 * kiB, MemOp::Kind::Load),
                 m.eq().curTick(), [](Tick, Tick) {});
        m.rearmWatchdog();
        m.eq().run();
        ASSERT_TRUE(t->finished());
    }
    ASSERT_NE(m.tracer(), nullptr);
    ASSERT_GT(m.tracer()->completedCount(), 0u);

    // Wedge the machine: outstanding work that can never retire trips
    // the deadlock detector once the queue drains.
    StuckSource stuck;
    m.watchdog()->watch(&stuck);
    std::string report;
    m.watchdog()->setOnTrip(
        [&report](const std::string &r) { report = r; });
    m.watchdog()->arm();
    m.eq().run();

    ASSERT_TRUE(m.watchdog()->tripped());
    EXPECT_NE(report.find("stuck-dev"), std::string::npos);
    // The flight recorder's last-N spans ride along in the report,
    // naming each request's last stage.
    EXPECT_NE(report.find("flight recorder"), std::string::npos);
    EXPECT_NE(report.find("done id="), std::string::npos);
    EXPECT_NE(report.find("last="), std::string::npos);
}

} // namespace
} // namespace cxlmemo
