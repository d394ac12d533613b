/**
 * @file
 * Tests for the conservative parallel executor: window/lookahead
 * semantics, cross-domain determinism at every thread count, delivery
 * flooring, fences, and run-limit behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "memo/memo.hh"
#include "sim/attribution.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/qos.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

constexpr Tick kLookahead = ticksFromNs(10);

/** A rank-ordered set of domains logging (tick, domain, tag) into
 *  per-domain journals (no shared mutable state across threads). */
struct Rig
{
    explicit Rig(std::uint32_t numDomains)
        : queues(numDomains), journal(numDomains)
    {
        for (auto &q : queues)
            ptrs.push_back(&q);
    }

    /** The full execution trace, concatenated in rank order. */
    std::string
    trace() const
    {
        std::string out;
        for (std::uint32_t d = 0; d < journal.size(); ++d)
            for (const auto &line : journal[d])
                out += std::to_string(d) + ":" + line + "\n";
        return out;
    }

    void
    log(std::uint32_t domain, Tick at, const std::string &tag)
    {
        journal[domain].push_back(std::to_string(at) + ":" + tag);
    }

    std::vector<EventQueue> queues;
    std::vector<std::vector<std::string>> journal;
    std::vector<EventQueue *> ptrs;
};

TEST(ParallelEngine, RejectsDegenerateConfigurations)
{
    EventQueue eq;
    EXPECT_THROW(ParallelExecutor({}, kLookahead, 1),
                 std::invalid_argument);
    EXPECT_THROW(ParallelExecutor({&eq}, 0, 1), std::invalid_argument);
    EXPECT_THROW(ParallelExecutor({&eq, nullptr}, kLookahead, 1),
                 std::invalid_argument);
}

TEST(ParallelEngine, SingleDomainMatchesPlainRun)
{
    Rig rig(1);
    ParallelExecutor ex(rig.ptrs, kLookahead, 1);
    for (Tick t : {Tick(5), ticksFromNs(7), ticksFromUs(3)})
        rig.queues[0].schedule(t, [&rig, t] { rig.log(0, t, "e"); });
    EXPECT_TRUE(ex.run());
    EXPECT_EQ(rig.queues[0].eventsExecuted(), 3u);
    EXPECT_EQ(ex.curTick(), ticksFromUs(3));
    // Idle-skip: far gaps must not cost one window per lookahead.
    EXPECT_LT(ex.windows(), 20u);
}

TEST(ParallelEngine, CrossDomainPingPongKeepsLatency)
{
    // Two domains exchange a message with latency 2L; delivery ticks
    // must be exactly when requested (no flooring on genuine paths).
    Rig rig(2);
    ParallelExecutor ex(rig.ptrs, kLookahead, 2);
    const Tick lat = 2 * kLookahead;
    int hops = 0;
    std::function<void(std::uint32_t, Tick)> hop =
        [&](std::uint32_t at_domain, Tick when) {
            rig.log(at_domain, when, "hop");
            if (++hops >= 8)
                return;
            const std::uint32_t next = 1 - at_domain;
            ex.post(at_domain, next, when + lat,
                    [&hop, next](Tick t) { hop(next, t); });
        };
    rig.queues[0].schedule(ticksFromNs(1), [&] {
        hop(0, rig.queues[0].curTick());
    });
    EXPECT_TRUE(ex.run());
    EXPECT_EQ(hops, 8);
    EXPECT_EQ(ex.clampedPosts(), 0u);
    EXPECT_EQ(ex.crossPosts(), 7u);
    // Hop k lands at 1ns + k * 2L, alternating domains.
    for (int k = 0; k < 8; ++k) {
        const Tick at = ticksFromNs(1) + k * lat;
        EXPECT_EQ(rig.journal[k % 2][k / 2],
                  std::to_string(at) + ":hop");
    }
}

TEST(ParallelEngine, ShortPathsAreFlooredDeterministically)
{
    // A 1-tick cross-domain path is shorter than the lookahead; the
    // executor must floor it at the window end and count the clamp.
    Rig rig(2);
    ParallelExecutor ex(rig.ptrs, kLookahead, 2);
    Tick delivered = 0;
    rig.queues[0].schedule(ticksFromNs(2), [&] {
        ex.post(0, 1, ticksFromNs(2) + 1,
                [&](Tick t) { delivered = t; });
    });
    EXPECT_TRUE(ex.run());
    EXPECT_EQ(ex.clampedPosts(), 1u);
    // The posting window starts at the first event tick (2 ns).
    EXPECT_EQ(delivered, ticksFromNs(2) + kLookahead);
}

std::string
randomWorkloadTrace(std::uint32_t threads, std::uint64_t *windows = nullptr)
{
    // Four domains, each running a self-rescheduling chain that posts
    // randomized cross-domain messages with latency >= L. Domain-local
    // RNGs keep the workload itself deterministic.
    constexpr std::uint32_t D = 4;
    Rig rig(D);
    ParallelExecutor ex(rig.ptrs, kLookahead, threads);
    std::vector<Rng> rng;
    for (std::uint32_t d = 0; d < D; ++d)
        rng.emplace_back(1000 + d);

    std::function<void(std::uint32_t, int)> step =
        [&](std::uint32_t d, int n) {
            const Tick now = rig.queues[d].curTick();
            rig.log(d, now, "step" + std::to_string(n));
            if (n >= 40)
                return;
            // Local follow-up inside the current window.
            rig.queues[d].scheduleIn(rng[d].below(kLookahead), [&rig, d] {
                rig.log(d, rig.queues[d].curTick(), "local");
            });
            const std::uint32_t dst = rng[d].below(D);
            const Tick lat = kLookahead + rng[d].below(3 * kLookahead);
            ex.post(d, dst, now + lat, [&step, dst, n](Tick) {
                step(dst, n + 1);
            });
        };
    for (std::uint32_t d = 0; d < D; ++d)
        rig.queues[d].schedule(ticksFromNs(1 + d), [&step, d] {
            step(d, 0);
        });
    EXPECT_TRUE(ex.run());
    EXPECT_EQ(ex.clampedPosts(), 0u);
    if (windows)
        *windows = ex.windows();
    return rig.trace();
}

TEST(ParallelEngine, RandomWorkloadIsIdenticalAtEveryThreadCount)
{
    std::uint64_t windows1 = 0;
    const std::string ref = randomWorkloadTrace(1, &windows1);
    EXPECT_FALSE(ref.empty());
    for (std::uint32_t threads : {2u, 3u, 4u, 8u}) {
        std::uint64_t windowsN = 0;
        EXPECT_EQ(randomWorkloadTrace(threads, &windowsN), ref)
            << "trace diverged at threads=" << threads;
        // The window schedule itself must be thread-count invariant.
        EXPECT_EQ(windowsN, windows1) << "at threads=" << threads;
    }
}

TEST(ParallelEngine, SameTickCrossPostsMergeInRankOrder)
{
    // Three domains post to domain 0 at the same tick within the same
    // window; delivery order must be source rank, then post order --
    // regardless of which worker finishes first.
    for (std::uint32_t threads : {1u, 4u}) {
        Rig rig(4);
        ParallelExecutor ex(rig.ptrs, kLookahead, threads);
        const Tick when = ticksFromNs(2) + 2 * kLookahead;
        for (std::uint32_t d = 1; d < 4; ++d) {
            rig.queues[d].schedule(ticksFromNs(2), [&, d] {
                for (int i = 0; i < 2; ++i)
                    ex.post(d, 0, when, [&rig, d, i](Tick t) {
                        rig.log(0, t,
                                "from" + std::to_string(d)
                                    + "." + std::to_string(i));
                    });
            });
        }
        EXPECT_TRUE(ex.run());
        std::vector<std::string> want;
        for (std::uint32_t d = 1; d < 4; ++d)
            for (int i = 0; i < 2; ++i)
                want.push_back(std::to_string(when) + ":from"
                               + std::to_string(d) + "."
                               + std::to_string(i));
        EXPECT_EQ(rig.journal[0], want);
    }
}

TEST(ParallelEngine, FencesSeeAllDomainsQuiesced)
{
    // Each domain bumps a private counter on a dense event chain; a
    // fence at F reads all counters. The conservative guarantee makes
    // the observed sum exact: every event before F has executed, none
    // at or after F has.
    for (std::uint32_t threads : {1u, 4u}) {
        constexpr std::uint32_t D = 4;
        Rig rig(D);
        ParallelExecutor ex(rig.ptrs, kLookahead, threads);
        std::vector<std::uint64_t> count(D, 0);
        for (std::uint32_t d = 0; d < D; ++d) {
            // One event per ns for 100 ns.
            for (Tick t = 1; t <= 100; ++t)
                rig.queues[d].schedule(ticksFromNs(t),
                                       [&count, d] { ++count[d]; });
        }
        const Tick fence = ticksFromNs(50) + 1; // between events
        std::uint64_t seen = 0;
        rig.queues[0].schedule(fence, [&] {
            for (std::uint32_t d = 0; d < D; ++d)
                seen += count[d];
        });
        ex.addFence(fence);
        EXPECT_TRUE(ex.run());
        EXPECT_EQ(seen, 50u * D);
        for (std::uint32_t d = 0; d < D; ++d)
            EXPECT_EQ(count[d], 100u);
    }
}

TEST(ParallelEngine, PendingCountsStagedCrossPosts)
{
    // A cross-domain message staged in an outbox but not yet
    // delivered is still pending work. A watchdog that samples
    // pending() between windows must not mistake "every queue
    // drained, message parked in an outbox" for a deadlock -- that
    // is exactly the cluster's crash-fencing window, where a host's
    // last completions are in flight across the fabric boundary.
    Rig rig(2);
    ParallelExecutor ex(rig.ptrs, kLookahead, 2);
    std::size_t pendingAtStage = 0;
    rig.queues[0].schedule(ticksFromNs(1), [&] {
        ex.post(0, 1, ticksFromNs(1) + 3 * kLookahead,
                [&rig](Tick t) { rig.log(1, t, "delivered"); });
        // The sending domain's own queue is empty and the target
        // queue has not seen the message yet; only the outbox knows.
        pendingAtStage = ex.pending();
    });
    EXPECT_TRUE(ex.run());
    EXPECT_GE(pendingAtStage, 1u);
    EXPECT_EQ(rig.journal[1].size(), 1u);
    EXPECT_EQ(ex.pending(), 0u);
}

TEST(ParallelEngine, RunLimitIsInclusiveAndResumable)
{
    Rig rig(2);
    ParallelExecutor ex(rig.ptrs, kLookahead, 2);
    std::vector<int> fired;
    rig.queues[0].schedule(ticksFromNs(5), [&] { fired.push_back(1); });
    rig.queues[1].schedule(ticksFromNs(20), [&] { fired.push_back(2); });
    rig.queues[0].schedule(ticksFromNs(20) + 1,
                           [&] { fired.push_back(3); });
    EXPECT_FALSE(ex.run(ticksFromNs(20)));
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(ex.curTick(), ticksFromNs(20));
    EXPECT_EQ(rig.queues[0].curTick(), rig.queues[1].curTick());
    EXPECT_TRUE(ex.run());
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, ManyDomainsFewThreads)
{
    // More domains than workers: round-robin assignment must still
    // execute everything exactly once.
    Rig rig(13);
    ParallelExecutor ex(rig.ptrs, kLookahead, 3);
    std::uint64_t total = 0;
    std::vector<std::uint64_t> hits(13, 0);
    for (std::uint32_t d = 0; d < 13; ++d)
        for (int i = 0; i < 25; ++i)
            rig.queues[d].schedule(ticksFromNs(1 + i * 3),
                                   [&hits, d] { ++hits[d]; });
    EXPECT_TRUE(ex.run());
    for (std::uint32_t d = 0; d < 13; ++d)
        total += hits[d];
    EXPECT_EQ(total, 13u * 25u);
}

/* ------------------- Machine-level determinism ------------------- */

/** Short windows keep whole-machine runs test-sized. */
memo::Options
parOpts(std::uint32_t simThreads)
{
    memo::Options o;
    o.warmupUs = 20.0;
    o.measureUs = 60.0;
    o.simThreads = simThreads;
    return o;
}

/** Full machine stats dump for one sweep point at @p simThreads. */
struct PointDump
{
    double gbps = 0.0;
    std::string stats;
};

TEST(MachineParallel, Fig3PointIsByteIdenticalAtEveryThreadCount)
{
    PointDump ref;
    for (std::uint32_t st : {1u, 2u, 8u, 32u}) {
        memo::Options o = parOpts(st);
        PointDump d;
        o.onMachineDone = [&d](Machine &m) { d.stats = m.statsString(); };
        d.gbps = memo::runSeqBandwidth(memo::Target::Cxl,
                                       MemOp::Kind::Load, 4, o);
        ASSERT_FALSE(d.stats.empty()) << st << " sim-threads";
        EXPECT_NE(d.stats.find("engine: domains"), std::string::npos);
        if (st == 1) {
            ref = d;
            continue;
        }
        EXPECT_EQ(d.stats, ref.stats) << st << " sim-threads";
        EXPECT_EQ(d.gbps, ref.gbps) << st << " sim-threads";
    }
}

TEST(MachineParallel, RemoteSocketPathIsThreadCountInvariant)
{
    PointDump ref;
    for (std::uint32_t st : {1u, 8u}) {
        memo::Options o = parOpts(st);
        PointDump d;
        o.onMachineDone = [&d](Machine &m) { d.stats = m.statsString(); };
        d.gbps = memo::runSeqBandwidth(memo::Target::Ddr5Remote,
                                       MemOp::Kind::Load, 4, o);
        if (st == 1) {
            ref = d;
            continue;
        }
        EXPECT_EQ(d.stats, ref.stats) << st << " sim-threads";
        EXPECT_EQ(d.gbps, ref.gbps) << st << " sim-threads";
    }
}

TEST(MachineParallel, FaultStreamIsThreadCountInvariant)
{
    std::string err;
    const auto fs = FaultSpec::parse(
        "crc=1e-4,timeout=1e-5,poison=2e-3,seed=7", err);
    ASSERT_TRUE(fs.has_value()) << err;

    PointDump ref;
    RasStats refRas;
    for (std::uint32_t st : {1u, 8u, 32u}) {
        memo::Options o = parOpts(st);
        o.faults = *fs;
        PointDump d;
        RasStats rs;
        o.onMachineDone = [&d, &rs](Machine &m) {
            d.stats = m.statsString();
            if (const RasStats *s = m.rasStats())
                rs = *s;
        };
        d.gbps = memo::runRandBandwidth(memo::Target::Cxl,
                                        MemOp::Kind::Load, 8, 16 * kiB,
                                        o);
        if (st == 1) {
            ref = d;
            refRas = rs;
            // The point of this configuration is an *active* fault
            // stream: no events would mean vacuous invariance.
            EXPECT_GT(rs.crcErrors, 0u);
            EXPECT_GT(rs.poisonInjected, 0u);
            continue;
        }
        EXPECT_EQ(d.stats, ref.stats) << st << " sim-threads";
        EXPECT_EQ(d.gbps, ref.gbps) << st << " sim-threads";
        EXPECT_EQ(rs.crcErrors, refRas.crcErrors) << st;
        EXPECT_EQ(rs.poisonInjected, refRas.poisonInjected) << st;
        EXPECT_EQ(rs.poisonDelivered, refRas.poisonDelivered) << st;
    }
}

TEST(MachineParallel, QosThrottleIsThreadCountInvariant)
{
    std::string err;
    const auto qs = QosSpec::parse("credits=24,policy=aimd", err);
    ASSERT_TRUE(qs.has_value()) << err;

    PointDump ref;
    for (std::uint32_t st : {1u, 8u}) {
        memo::Options o = parOpts(st);
        o.qos = *qs;
        PointDump d;
        QosStats q;
        o.onMachineDone = [&d, &q](Machine &m) {
            d.stats = m.statsString();
            if (auto s = m.qosStats())
                q = *s;
        };
        d.gbps = memo::runSeqBandwidth(memo::Target::Cxl,
                                       MemOp::Kind::NtStore, 16, o);
        EXPECT_TRUE(q.ledgerOk) << st << " sim-threads";
        if (st == 1) {
            ref = d;
            continue;
        }
        EXPECT_EQ(d.stats, ref.stats) << st << " sim-threads";
        EXPECT_EQ(d.gbps, ref.gbps) << st << " sim-threads";
    }
}

TEST(MachineParallel, AttributionShardsMergeExactly)
{
    memo::Options o = parOpts(8);
    o.obs.attribution = true;
    AttribSnapshot snap;
    bool seen = false;
    o.onMachineDone = [&](Machine &m) {
        ASSERT_NE(m.attribution(), nullptr);
        snap.merge(m.attribSnapshot());
        seen = true;
    };
    memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 8, o);
    ASSERT_TRUE(seen);
    EXPECT_GT(snap.reqCount, 100u);
    EXPECT_TRUE(snap.decompositionExact());
    EXPECT_EQ(snap.stackTicks() + snap.otherTicks(), snap.totalTicks);
}

TEST(MachineParallel, MetricsConservationAtEightSimThreads)
{
    memo::Options o = parOpts(8);
    o.obs.metricsInterval = ticksFromNs(500.0);
    std::string rows;
    o.onMachineDone = [&rows](Machine &m) {
        m.flushMetrics();
        rows = m.metrics()->rows();
    };
    memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 4, o);
    ASSERT_FALSE(rows.empty());

    // Every counter's interval deltas must sum to its final total --
    // the interval sampler runs at executor fences, so a shard update
    // slipping past a snapshot would break this.
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
    EXPECT_GT(delta.at("sim.windows"), 0u);
    EXPECT_GT(delta.at("sim.cross_posts"), 0u);
    EXPECT_EQ(delta.at("sim.clamped_posts"), 0u);
}

TEST(MachineParallel, ChaosScheduleIsThreadCountInvariant)
{
    // The full failure lifecycle -- link down/retrain/step-up, device
    // hot-remove/re-add and poison-driven page offlining -- must be
    // byte-identical at every parallel thread count: all chaos events
    // fire on the device's own domain queue, and host-side reactions
    // are scheduled at statically-known ticks.
    memo::Options base = parOpts(1);
    base.chaos.linkDownAtNs = 25000;
    base.chaos.removeAtNs = 45000;
    base.chaos.readdAtNs = 55000;
    base.chaos.offlineThreshold = 2;
    base.faults.readPoisonRate = 0.01;
    base.faults.seed = 5;

    PointDump ref;
    for (std::uint32_t st : {1u, 2u, 8u}) {
        memo::Options o = base;
        o.simThreads = st;
        PointDump d;
        o.onMachineDone = [&d](Machine &m) {
            // statsString includes the chaos summary line, so the
            // comparison covers every lifecycle counter.
            d.stats = m.statsString();
        };
        d.gbps = memo::runSeqBandwidth(memo::Target::Cxl,
                                       MemOp::Kind::Load, 4, o);
        ASSERT_NE(d.stats.find("chaos:"), std::string::npos);
        if (st == 1) {
            ref = d;
            // The schedule must actually have fired -- invariance of
            // a no-op run would be vacuous.
            EXPECT_NE(d.stats.find("link-downs=1"), std::string::npos);
            EXPECT_NE(d.stats.find("removals=1"), std::string::npos);
            continue;
        }
        EXPECT_EQ(d.stats, ref.stats) << st << " sim-threads";
        EXPECT_EQ(d.gbps, ref.gbps) << st << " sim-threads";
    }
}

TEST(MachineParallel, ChaosEventsCrossToWatchdogAtFences)
{
    // Lifecycle announcements originate in the device domain and are
    // relayed to the host-side watchdog via cross-posts; the recorded
    // event log must be identical at every thread count, and a chaos
    // event landing mid-run must appear in the watchdog's snapshot
    // state without tripping it.
    std::vector<std::string> ref;
    for (std::uint32_t st : {1u, 2u, 8u}) {
        memo::Options o = parOpts(st);
        o.chaos.linkDownAtNs = 25000;
        o.chaos.removeAtNs = 45000;
        o.chaos.readdAtNs = 55000;
        o.watchdogInterval = ticksFromUs(30.0); // several snapshot fences during the run
        std::vector<std::string> events;
        bool tripped = true;
        o.onMachineDone = [&](Machine &m) {
            ASSERT_NE(m.watchdog(), nullptr);
            events = m.watchdog()->events();
            tripped = m.watchdog()->tripped();
        };
        memo::runSeqBandwidth(memo::Target::Cxl, MemOp::Kind::Load, 2,
                              o);
        ASSERT_FALSE(events.empty()) << st << " sim-threads";
        EXPECT_FALSE(tripped) << st << " sim-threads";
        auto contains = [&events](const char *needle) {
            for (const std::string &e : events)
                if (e.find(needle) != std::string::npos)
                    return true;
            return false;
        };
        EXPECT_TRUE(contains("link DOWN")) << st;
        EXPECT_TRUE(contains("hot-remove")) << st;
        EXPECT_TRUE(contains("re-add")) << st;
        if (st == 1) {
            ref = events;
            continue;
        }
        EXPECT_EQ(events, ref) << st << " sim-threads";
    }
}

TEST(MachineParallel, TracingIsRejectedInParallelMode)
{
    memo::Options o = parOpts(2);
    o.obs.traceSampleEvery = 16;
    EXPECT_THROW(memo::runSeqBandwidth(memo::Target::Cxl,
                                       MemOp::Kind::Load, 1, o),
                 std::invalid_argument);
}

} // namespace
} // namespace cxlmemo
