/**
 * @file
 * Tests for the pooled-cluster scenario layer: PoolSpec grammar and
 * validation, clean-run completion, crash detection and fencing
 * (time-to-fence, quarantine -> scrub -> re-grant), the
 * machine-checked blast-radius invariant (victim digests identical
 * between the full disturbed run and a victim-only baseline),
 * byte-identical results at every --sim-threads count, exact --jobs
 * merges, the cross-host fairness regression pin, and the watchdog
 * post-mortem naming the stuck switch port.
 *
 * Fabric observability rides the same scenarios: exact per-port
 * latency decomposition with a Little's-law self-test, the cluster
 * bottleneck verdict, cross-host trace timelines (including the
 * fence-containment litmus), and the conserving metrics timeline --
 * all bit-identical when disabled and byte-identical at every
 * --sim-threads count.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "memo/memo.hh"
#include "system/cluster.hh"

namespace cxlmemo
{
namespace
{

using memo::runPool;

/** Small disturbed scenario used across the determinism tests. */
PoolSpec
drillSpec()
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=4,ops=1500,crash-host=1,crash-at-ns=20000,aggressor=3,"
        "credits=16,poison-host=2,poison-every=97",
        err);
    EXPECT_TRUE(sp.has_value()) << err;
    return *sp;
}

/* ----------------------------- PoolSpec -------------------------- */

TEST(PoolSpec, ParsesFullGrammar)
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=4,devices=2,capacity-mb=128,window-mb=32,credits=8,"
        "arb=fixed,ops=5000,read-frac=0.5,mlp=4,aggressor=3,"
        "crash-host=1,crash-at-ns=10000,fence-check-ns=1000,"
        "miss-threshold=3,scrub-ns-per-mb=50,contain=abort,"
        "poison-host=2,poison-every=10,port-down-host=0,"
        "port-down-at-ns=500,retrain-ns=750,seed=7",
        err);
    ASSERT_TRUE(sp.has_value()) << err;
    EXPECT_EQ(sp->hosts, 4u);
    EXPECT_EQ(sp->devices, 2u);
    EXPECT_EQ(sp->capacityMb, 128u);
    EXPECT_EQ(sp->windowMb, 32u);
    EXPECT_EQ(sp->credits, 8u);
    EXPECT_EQ(sp->arb, CxlSwitchParams::Arb::Fixed);
    EXPECT_EQ(sp->ops, 5000u);
    EXPECT_DOUBLE_EQ(sp->readFrac, 0.5);
    EXPECT_EQ(sp->aggressor, 3);
    EXPECT_EQ(sp->crashHost, 1);
    EXPECT_EQ(sp->contain, ContainPolicy::Abort);
    EXPECT_EQ(sp->poisonHost, 2);
    EXPECT_EQ(sp->portDownHost, 0);
    EXPECT_EQ(sp->seed, 7u);
    EXPECT_TRUE(sp->disturbed());
    EXPECT_EQ(sp->victimHost(), -1); // every host is disturbed
}

TEST(PoolSpec, ToStringRoundTrips)
{
    const PoolSpec sp = drillSpec();
    std::string err;
    const auto again = PoolSpec::parse(sp.toString(), err);
    ASSERT_TRUE(again.has_value()) << err << " <- " << sp.toString();
    EXPECT_EQ(again->toString(), sp.toString());
}

TEST(PoolSpec, RejectsBadInput)
{
    std::string err;
    EXPECT_FALSE(PoolSpec::parse("hosts=0", err).has_value());
    err.clear();
    EXPECT_FALSE(PoolSpec::parse("bogus-key=1", err).has_value());
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(PoolSpec::parse("hosts", err).has_value());
    err.clear();
    // Disturbances must be fully specified.
    EXPECT_FALSE(PoolSpec::parse("crash-host=1", err).has_value());
    err.clear();
    EXPECT_FALSE(PoolSpec::parse("poison-host=0", err).has_value());
    err.clear();
    // Windows must fit the pool.
    EXPECT_FALSE(
        PoolSpec::parse("hosts=4,capacity-mb=16,window-mb=8", err)
            .has_value());
    err.clear();
    // Aggressor index must name a real host.
    EXPECT_FALSE(PoolSpec::parse("hosts=2,aggressor=5", err)
                     .has_value());
    err.clear();
    // A value must fit its 32-bit field: 2^32 + 2 used to narrow to
    // 2 hosts.
    EXPECT_FALSE(PoolSpec::parse("hosts=4294967298", err).has_value());
    EXPECT_NE(err.find("hosts=4294967298"), std::string::npos);
    // The explicit -1 sentinel still disables a disturbance.
    const auto off = PoolSpec::parse("aggressor=-1", err);
    ASSERT_TRUE(off.has_value()) << err;
    EXPECT_EQ(off->aggressor, -1);
}

TEST(PoolSpec, DefaultSpecIsCleanAndValid)
{
    const PoolSpec sp;
    EXPECT_NO_THROW(sp.validate());
    EXPECT_FALSE(sp.disturbed());
    EXPECT_EQ(sp.victimHost(), 0);
    const PoolSpec base = drillSpec().isolationBaseline();
    EXPECT_FALSE(base.disturbed());
    EXPECT_NO_THROW(base.validate());
}

/* ----------------------------- clean run ------------------------- */

TEST(Pool, CleanRunCompletesEveryHost)
{
    PoolSpec sp;
    sp.hosts = 2;
    sp.ops = 1000;
    const auto r = runPool(sp);
    ASSERT_EQ(r.cluster.hosts.size(), 2u);
    for (const auto &h : r.cluster.hosts) {
        EXPECT_EQ(h.digest.ops, sp.ops);
        EXPECT_GT(h.digest.reads, 0u);
        EXPECT_GT(h.digest.writes, 0u);
        EXPECT_EQ(h.digest.poisoned, 0u);
        EXPECT_EQ(h.digest.aborted, 0u);
        EXPECT_FALSE(h.fenced);
        EXPECT_EQ(h.role, "normal");
        EXPECT_GT(h.gbps, 0.0);
        EXPECT_GT(h.readP99Ns, 0.0);
    }
    EXPECT_TRUE(r.cluster.ledgerOk);
    EXPECT_TRUE(r.isolationOk);
    EXPECT_LT(r.cluster.timeToFenceNs, 0.0); // nothing fenced
    EXPECT_NE(r.cluster.verdict.find("no-aggressor"),
              std::string::npos)
        << r.cluster.verdict;
}

/* ------------------------ crash and fencing ---------------------- */

TEST(Pool, CrashIsFencedAndCapacityRecovered)
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=3,ops=1500,crash-host=1,crash-at-ns=20000,"
        "fence-check-ns=2000,miss-threshold=2",
        err);
    ASSERT_TRUE(sp.has_value()) << err;
    const auto r = runPool(*sp);
    const auto &c = r.cluster;
    ASSERT_EQ(c.hosts.size(), 3u);
    EXPECT_TRUE(c.hosts[1].fenced);
    EXPECT_EQ(c.hosts[1].role, "crashed");
    EXPECT_LT(c.hosts[1].digest.ops, sp->ops); // died mid-run
    EXPECT_FALSE(c.hosts[0].fenced);
    EXPECT_FALSE(c.hosts[2].fenced);
    EXPECT_EQ(c.hosts[0].digest.ops, sp->ops);
    EXPECT_EQ(c.hosts[2].digest.ops, sp->ops);

    // Detection latency: the dead host misses `missThreshold` beat
    // periods, so the fence lands one check period after that window.
    EXPECT_GT(c.timeToFenceNs, 0.0);
    EXPECT_LE(c.timeToFenceNs,
              (sp->missThreshold + 2) * sp->fenceCheckNs);

    // Its capacity was quarantined, scrubbed, and re-granted.
    EXPECT_GT(c.quarantinedBytes, 0u);
    EXPECT_GT(c.recoveredBytes, 0u);
    EXPECT_LE(c.recoveredBytes, c.quarantinedBytes);
    EXPECT_TRUE(c.ledgerOk);
    EXPECT_TRUE(r.isolationOk);
    EXPECT_FALSE(c.watchdogTripped);
}

TEST(Pool, AbortContainmentAlsoConvergesAndConserves)
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=2,ops=1000,crash-host=1,crash-at-ns=5000,"
        "contain=abort",
        err);
    ASSERT_TRUE(sp.has_value()) << err;
    memo::Options o;
    o.watchdogInterval = ticksFromUs(100.0); // memo's --watchdog
    const auto r = runPool(*sp, o);
    EXPECT_TRUE(r.cluster.hosts[1].fenced);
    EXPECT_TRUE(r.cluster.ledgerOk);
    EXPECT_TRUE(r.isolationOk);
    EXPECT_FALSE(r.cluster.watchdogTripped) << r.cluster.watchdogReport;
    EXPECT_EQ(r.cluster.hosts[0].digest.ops, 1000u);
}

/* ------------------- blast-radius / determinism ------------------ */

TEST(Pool, IsolationInvariantVictimDigestMatchesSoloBaseline)
{
    // The built-in self-test: run the disturbed cluster and the
    // victim-only baseline; the victim's functional digest must be
    // byte-identical even though three other hosts crashed, flooded
    // and poisoned around it.
    const auto r = runPool(drillSpec());
    EXPECT_GE(r.victim, 0);
    EXPECT_TRUE(r.isolationOk);
    EXPECT_TRUE(r.cluster.ledgerOk);
}

TEST(Pool, ResultIsByteIdenticalAtEverySimThreadCount)
{
    // The parallel-engine contract (same as the single-machine one
    // from the domain-partitioned engine): every thread count >= 1
    // produces the same execution, so the *entire* result -- digests,
    // fencing timeline, verdict, end tick -- matches exactly.
    const PoolSpec sp = drillSpec();
    auto runAt = [&sp](std::uint32_t threads) {
        Cluster::Options o;
        o.simThreads = threads;
        Cluster c(sp, o);
        return c.run();
    };
    const ClusterResult ref = runAt(1);
    for (std::uint32_t t : {2u, 8u}) {
        const ClusterResult par = runAt(t);
        ASSERT_EQ(par.hosts.size(), ref.hosts.size());
        for (std::size_t h = 0; h < ref.hosts.size(); ++h) {
            EXPECT_EQ(par.hosts[h].digest, ref.hosts[h].digest)
                << "host " << h << " at sim-threads " << t;
            EXPECT_EQ(par.hosts[h].fenced, ref.hosts[h].fenced);
            EXPECT_DOUBLE_EQ(par.hosts[h].readP99Ns,
                             ref.hosts[h].readP99Ns);
        }
        EXPECT_DOUBLE_EQ(par.timeToFenceNs, ref.timeToFenceNs);
        EXPECT_EQ(par.quarantinedBytes, ref.quarantinedBytes);
        EXPECT_EQ(par.recoveredBytes, ref.recoveredBytes);
        EXPECT_EQ(par.verdict, ref.verdict);
        EXPECT_EQ(par.endTick, ref.endTick);
        EXPECT_TRUE(par.ledgerOk);
    }
}

TEST(Pool, UndisturbedDigestsAgreeAcrossEngines)
{
    // Classic (single queue) and parallel are different engines and
    // may interleave same-tick fabric arrivals differently, which
    // legitimately moves latency and any completion-order-coupled
    // stream (the poison shaper). What must NOT move is the
    // functional digest of a host nobody disturbs -- that is the
    // timing-independence half of the blast-radius argument, across
    // engines rather than across disturbances.
    const PoolSpec sp = drillSpec(); // poisons host 2, crashes host 1
    Cluster classic(sp, {});
    Cluster::Options po;
    po.simThreads = 2;
    Cluster parallel(sp, po);
    const auto a = classic.run();
    const auto b = parallel.run();
    EXPECT_EQ(a.hosts[0].digest, b.hosts[0].digest); // victim
    EXPECT_EQ(a.hosts[3].digest, b.hosts[3].digest); // aggressor
}

TEST(Pool, JobsMergeIsExact)
{
    const PoolSpec sp = drillSpec();
    const auto seq = runPool(sp, {}, 1);
    const auto par = runPool(sp, {}, 2);
    ASSERT_EQ(seq.cluster.hosts.size(), par.cluster.hosts.size());
    for (std::size_t h = 0; h < seq.cluster.hosts.size(); ++h)
        EXPECT_EQ(seq.cluster.hosts[h].digest,
                  par.cluster.hosts[h].digest);
    EXPECT_EQ(seq.isolationOk, par.isolationOk);
    EXPECT_EQ(seq.cluster.verdict, par.cluster.verdict);
}

TEST(Pool, DisturbingOneHostNeverChangesAnothersDigest)
{
    // Direct statement of the blast-radius invariant, without
    // runPool's solo-baseline machinery: host 0's digest is the same
    // whether host 1 crashes or not (only its latency may move).
    PoolSpec clean;
    clean.hosts = 2;
    clean.ops = 1000;
    std::string err;
    const auto crash = PoolSpec::parse(
        "hosts=2,ops=1000,crash-host=1,crash-at-ns=5000", err);
    ASSERT_TRUE(crash.has_value()) << err;
    Cluster a(clean, {});
    Cluster b(*crash, {});
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.hosts[0].digest, rb.hosts[0].digest);
    EXPECT_NE(ra.hosts[1].digest, rb.hosts[1].digest); // it died
}

/* ----------------------- poison routing -------------------------- */

TEST(Pool, PoisonLandsOnlyInTargetedHostsLedger)
{
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=3,ops=1500,poison-host=2,poison-every=50", err);
    ASSERT_TRUE(sp.has_value()) << err;
    const auto r = runPool(*sp);
    const auto &c = r.cluster;
    EXPECT_GT(c.hosts[2].digest.poisoned, 0u);
    EXPECT_NE(c.hosts[2].digest.ledgerHash,
              c.hosts[0].digest.ledgerHash);
    EXPECT_EQ(c.hosts[0].digest.poisoned, 0u);
    EXPECT_EQ(c.hosts[1].digest.poisoned, 0u);
    EXPECT_EQ(c.hosts[0].digest.ledgerHash,
              c.hosts[1].digest.ledgerHash); // both empty ledgers
    EXPECT_TRUE(r.isolationOk);
}

/* --------------------- fairness regression ----------------------- */

TEST(Pool, AggressorWithCreditsVictimTailStaysPinned)
{
    // Cross-host fairness pin: an nt-store flooding neighbor behind
    // per-port credit pools must not blow up the victim's read tail.
    // The bound is deliberately generous against the measured ~510 ns
    // p99; a fairness regression in arbitration or credit handling
    // shows up as a multiple, not a few percent.
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=2,ops=4000,aggressor=1,credits=8", err);
    ASSERT_TRUE(sp.has_value()) << err;
    const auto r = runPool(*sp);
    const auto &victim = r.cluster.hosts[0];
    EXPECT_EQ(victim.role, "victim");
    EXPECT_EQ(victim.digest.ops, 4000u);
    EXPECT_GT(victim.readP99Ns, 0.0);
    EXPECT_LT(victim.readP99Ns, 1000.0) << "victim p99 regressed";
    // The verdict names the aggressor and the victim port.
    EXPECT_NE(r.cluster.verdict.find("aggressor=host1"),
              std::string::npos)
        << r.cluster.verdict;
    EXPECT_NE(r.cluster.verdict.find("victim=host0"),
              std::string::npos)
        << r.cluster.verdict;
    // And the aggressor may not corrupt the victim's data while
    // degrading its latency.
    EXPECT_TRUE(r.isolationOk);
}

/* ------------------------ watchdog coverage ---------------------- */

TEST(Pool, WatchdogPostMortemNamesStuckPort)
{
    // Park port 0 in a never-ending retrain: its traffic is held,
    // the cluster stops making progress, and the watchdog's
    // post-mortem must name the stuck port and the waiting host.
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=2,ops=2000,port-down-host=0,port-down-at-ns=5000,"
        "retrain-ns=100000000",
        err);
    ASSERT_TRUE(sp.has_value()) << err;
    Cluster::Options o;
    o.watchdogInterval = ticksFromUs(20.0);
    o.limitUs = 500.0;
    Cluster c(*sp, o);
    const auto r = c.run();
    EXPECT_TRUE(r.watchdogTripped);
    EXPECT_NE(r.watchdogReport.find("port0"), std::string::npos)
        << r.watchdogReport;
    EXPECT_NE(r.watchdogReport.find("host0"), std::string::npos)
        << r.watchdogReport;
}

TEST(Pool, WatchdogStaysQuietOnAHealthyDrill)
{
    Cluster::Options o;
    o.watchdogInterval = ticksFromUs(50.0);
    Cluster c(drillSpec(), o);
    const auto r = c.run();
    EXPECT_FALSE(r.watchdogTripped) << r.watchdogReport;
    EXPECT_TRUE(r.ledgerOk);
}

TEST(Pool, BothObserversLetTheRunEndAtItsLastEvent)
{
    // Watchdog and metrics snapshots are observer events: armed
    // together they neither keep each other alive nor move the tick
    // the drained run ends at, on either engine.
    for (const std::uint32_t st : {0u, 2u}) {
        Cluster::Options o;
        o.simThreads = st;
        o.limitUs = 10000.0;
        Cluster dark(drillSpec(), o);
        const auto ref = dark.run();
        o.watchdogInterval = ticksFromUs(20.0);
        o.obs.metricsInterval = ticksFromNs(20000.0);
        Cluster armed(drillSpec(), o);
        const auto r = armed.run();
        EXPECT_EQ(r.endTick, ref.endTick) << st << " sim-threads";
        EXPECT_LT(r.endTick, ticksFromUs(o.limitUs));
        EXPECT_FALSE(r.watchdogTripped) << r.watchdogReport;
        EXPECT_FALSE(r.metricsRows.empty());
    }
}

/* -------------------- fabric attribution ------------------------- */

/** Field-exact comparison of two fabric snapshots (integer sums, so
 *  byte-identity across engines and thread counts is well-defined). */
void
expectFabricEq(const FabricSnapshot &l, const FabricSnapshot &r)
{
    ASSERT_EQ(l.ports.size(), r.ports.size());
    EXPECT_EQ(l.elapsed, r.elapsed);
    for (std::size_t p = 0; p < l.ports.size(); ++p) {
        EXPECT_EQ(l.ports[p].reqCount, r.ports[p].reqCount) << p;
        EXPECT_EQ(l.ports[p].totalTicks, r.ports[p].totalTicks) << p;
        for (std::size_t i = 0; i < numFabricStations; ++i) {
            const StationSnap &a = l.ports[p].st[i];
            const StationSnap &b = r.ports[p].st[i];
            EXPECT_EQ(a.enters, b.enters) << p << "/" << i;
            EXPECT_EQ(a.exits, b.exits) << p << "/" << i;
            EXPECT_EQ(a.queueTicks, b.queueTicks) << p << "/" << i;
            EXPECT_EQ(a.serviceTicks, b.serviceTicks) << p << "/" << i;
            EXPECT_EQ(a.busyTicks, b.busyTicks) << p << "/" << i;
            EXPECT_EQ(a.occIntegral, b.occIntegral) << p << "/" << i;
            EXPECT_EQ(a.stackQueueTicks, b.stackQueueTicks)
                << p << "/" << i;
            EXPECT_EQ(a.stackServiceTicks, b.stackServiceTicks)
                << p << "/" << i;
        }
    }
}

TEST(PoolFabric, CleanRunDecomposesToTheTick)
{
    // The §13 contract extended across the fabric: on a clean run
    // every port's station stack reconstructs its measured cross-
    // fabric latency exactly -- zero residual, in integer ticks --
    // and the credit/VOQ occupancy integrals pass Little's law.
    PoolSpec sp;
    sp.hosts = 3;
    sp.ops = 1500;
    memo::Options o;
    o.obs.attribution = true;
    const auto r = runPool(sp, o);
    const FabricSnapshot &f = r.cluster.fabric;
    ASSERT_TRUE(f.enabled());
    ASSERT_EQ(f.ports.size(), 3u);
    for (const FabricPortSnap &p : f.ports) {
        EXPECT_EQ(p.reqCount, sp.ops);
        EXPECT_GT(p.totalTicks, 0u);
        EXPECT_EQ(p.stackTicks(), p.totalTicks); // zero residual
        EXPECT_EQ(p.otherTicks(), 0u);
        EXPECT_TRUE(p.decompositionExact());
        EXPECT_TRUE(p.littleOk(f.elapsed));
    }
    EXPECT_TRUE(f.decompositionExact());
    EXPECT_TRUE(f.littleOk());
    // Cluster-wide roll-up is the same merge across ports.
    const FabricPortSnap all = f.cluster();
    EXPECT_EQ(all.reqCount, 3u * sp.ops);
    EXPECT_EQ(all.stackTicks(), all.totalTicks);
    EXPECT_TRUE(all.littleOk(f.elapsed));
    // The table names every station for the human report.
    const std::string tbl = f.table();
    EXPECT_NE(tbl.find("sw.voq_wait"), std::string::npos) << tbl;
    EXPECT_NE(tbl.find("sw.dev_service"), std::string::npos) << tbl;
}

TEST(PoolFabric, DisturbedRunKeepsResidualNonNegative)
{
    // Crashes, fences and port outages land in the residual, never
    // in a negative stack: the decomposition inequality holds for
    // every request including aborted and held-while-down ones.
    memo::Options o;
    o.obs.attribution = true;
    const auto r = runPool(drillSpec(), o);
    const FabricSnapshot &f = r.cluster.fabric;
    ASSERT_TRUE(f.enabled());
    EXPECT_TRUE(f.decompositionExact());
    EXPECT_TRUE(f.littleOk());
    EXPECT_GT(f.cluster().reqCount, 0u);
}

TEST(PoolFabric, DisabledPathIsBitIdentical)
{
    // Attribution must observe, never perturb: the simulated results
    // are identical with the board on or off, and the off run keeps
    // the exact pre-fabric verdict string (no fabric suffix).
    const PoolSpec sp = drillSpec();
    memo::Options on;
    on.obs.attribution = true;
    const auto a = runPool(sp, on);
    const auto b = runPool(sp);
    ASSERT_EQ(a.cluster.hosts.size(), b.cluster.hosts.size());
    for (std::size_t h = 0; h < a.cluster.hosts.size(); ++h)
        EXPECT_EQ(a.cluster.hosts[h].digest, b.cluster.hosts[h].digest);
    EXPECT_EQ(a.cluster.endTick, b.cluster.endTick);
    EXPECT_DOUBLE_EQ(a.cluster.timeToFenceNs, b.cluster.timeToFenceNs);
    EXPECT_FALSE(b.cluster.fabric.enabled());
    EXPECT_EQ(b.cluster.verdict.find("fabric="), std::string::npos)
        << b.cluster.verdict;
    // The armed run appends the fabric regime behind the unchanged
    // host-level verdict.
    EXPECT_EQ(a.cluster.verdict.compare(0, b.cluster.verdict.size(),
                                        b.cluster.verdict),
              0)
        << a.cluster.verdict;
    EXPECT_NE(a.cluster.verdict.find(" fabric="), std::string::npos)
        << a.cluster.verdict;
}

TEST(PoolFabric, SnapshotByteIdenticalAtEverySimThreadCount)
{
    const PoolSpec sp = drillSpec();
    auto runAt = [&sp](std::uint32_t threads) {
        Cluster::Options o;
        o.simThreads = threads;
        o.obs.attribution = true;
        Cluster c(sp, o);
        return c.run();
    };
    const ClusterResult ref = runAt(1);
    ASSERT_TRUE(ref.fabric.enabled());
    for (std::uint32_t t : {2u, 8u}) {
        const ClusterResult par = runAt(t);
        expectFabricEq(par.fabric, ref.fabric);
        EXPECT_EQ(par.verdict, ref.verdict);
    }
}

TEST(PoolFabric, VerdictNamesAggressorHostAndHotPort)
{
    // The PR 8 fairness scenario, now with the fabric regime behind
    // it: the share test still names the aggressor host, and the
    // fabric tier names its congested port.
    std::string err;
    const auto sp = PoolSpec::parse(
        "hosts=2,ops=4000,aggressor=1,credits=8", err);
    ASSERT_TRUE(sp.has_value()) << err;
    memo::Options o;
    o.obs.attribution = true;
    const auto r = runPool(*sp, o);
    const std::string &v = r.cluster.verdict;
    EXPECT_NE(v.find("aggressor=host1"), std::string::npos) << v;
    EXPECT_NE(v.find("victim=host0"), std::string::npos) << v;
    EXPECT_NE(v.find(" fabric="), std::string::npos) << v;
    EXPECT_NE(v.find("hot=port1"), std::string::npos) << v;
    EXPECT_EQ(r.cluster.fabric.hotPort(), 1u);
}

/* ---------------------- cross-host tracing ----------------------- */

TEST(PoolTrace, RequiresClassicEngine)
{
    PoolSpec sp;
    sp.hosts = 2;
    Cluster::Options o;
    o.simThreads = 2;
    o.obs.traceSampleEvery = 1;
    EXPECT_THROW(Cluster(sp, o), std::invalid_argument);
}

TEST(PoolTrace, TimelineSpansIssueToResponseAcrossTracks)
{
    PoolSpec sp;
    sp.hosts = 2;
    sp.ops = 300;
    memo::Options o;
    o.obs.traceSampleEvery = 1;
    const auto r = runPool(sp, o);
    const std::string &j = r.cluster.traceJson;
    ASSERT_FALSE(j.empty());
    // One named track per host plus the fabric track.
    EXPECT_NE(j.find("\"process_name\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"fabric\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"host0\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"host1\""), std::string::npos);
    // The switch path is staged on the fabric track: port ingress,
    // VOQ, crossbar, device service, egress, response delivery.
    for (const char *stage :
         {"sw_m2s", "sw_voq", "sw_xbar", "sw_dev", "sw_egress",
          "sw_s2m"})
        EXPECT_NE(j.find(stage), std::string::npos) << stage;
    // A clean run never aborts anything.
    EXPECT_EQ(j.find("sw_fence_abort"), std::string::npos);
}

TEST(PoolTrace, VictimSpansNeverCarryAnotherHostsFence)
{
    // Litmus for span containment: flood host 1 behind a one-credit
    // gate so a standing queue exists, fence its port mid-flight, and
    // let host 0 read concurrently. Host 1's spans end in
    // sw_fence_abort; host 0's spans must never contain that stage
    // (tid on fabric events is the owning port).
    std::string err;
    const auto sp = PoolSpec::parse("hosts=2,credits=1", err);
    ASSERT_TRUE(sp.has_value()) << err;
    Cluster::Options o;
    o.obs.traceSampleEvery = 1;
    Cluster c(*sp, o);
    for (std::uint64_t i = 0; i < 8; ++i)
        c.inject(1, MemCmd::Write, 64 * i, i, nullptr);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.inject(0, MemCmd::Read, 64 * i, 0, nullptr);
    c.fabricQueue().schedule(ticksFromNs(60.0), [&c]() {
        c.fabric().fencePort(1, ContainPolicy::Abort);
    });
    c.runFabricUntil(ticksFromUs(100.0));

    const std::string j = c.traceJson();
    ASSERT_FALSE(j.empty());
    ASSERT_NE(j.find("sw_fence_abort"), std::string::npos) << j;
    std::istringstream is(j);
    std::string line;
    bool fencedHost1 = false;
    while (std::getline(is, line)) {
        if (line.find("sw_fence_abort") == std::string::npos)
            continue;
        EXPECT_EQ(line.find("\"tid\":0"), std::string::npos) << line;
        if (line.find("\"tid\":1") != std::string::npos)
            fencedHost1 = true;
    }
    EXPECT_TRUE(fencedHost1) << j;
}

/* ----------------------- fabric metrics -------------------------- */

TEST(PoolMetrics, TimelineConservesEveryCounter)
{
    // The interval timeline's deltas must sum to the final totals for
    // every fabric counter (exact conservation, same contract as the
    // machine-level registry).
    memo::Options o;
    o.obs.metricsInterval = ticksFromNs(1000.0);
    const auto r = runPool(drillSpec(), o);
    const std::string &rows = r.cluster.metricsRows;
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
    // Per-port switch counters and the pool ledger both report.
    EXPECT_GT(total.at("sw.p0.reqs"), 0u);
    EXPECT_GT(total.at("sw.p3.reqs"), 0u);
    EXPECT_GT(total.at("pool.granted_bytes_total"), 0u);
    // Gauges ride the same timeline.
    EXPECT_NE(rows.find("pool.free_bytes,gauge"), std::string::npos);
    EXPECT_NE(rows.find("sw.p0.voq_depth,gauge"), std::string::npos);
    EXPECT_NE(rows.find("pool.time_to_fence_ns,gauge"),
              std::string::npos);
}

TEST(PoolMetrics, RowsIdenticalAcrossSimThreadCounts)
{
    const PoolSpec sp = drillSpec();
    auto rowsAt = [&sp](std::uint32_t threads) {
        Cluster::Options o;
        o.simThreads = threads;
        o.obs.metricsInterval = ticksFromNs(1000.0);
        Cluster c(sp, o);
        return c.run().metricsRows;
    };
    const std::string ref = rowsAt(1);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(rowsAt(2), ref);
    EXPECT_EQ(rowsAt(8), ref);
}

} // namespace
} // namespace cxlmemo
