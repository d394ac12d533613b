/**
 * @file
 * Tests for the failure-lifecycle (chaos) layer: ChaosSpec parsing
 * and validation, a property-style fuzz pass over all four spec
 * parsers (fault, QoS, chaos, pool), the link DOWN/retrain FSM, the degrade-window re-arm cap,
 * device hot-remove/re-add with both containment policies, the
 * per-page memory-failure ledger, NUMA-node offlining and the chaos
 * drill harness.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/streams.hh"
#include "cxl/link.hh"
#include "memo/memo.hh"
#include "sim/chaos.hh"
#include "sim/fault.hh"
#include "sim/lifecycle.hh"
#include "sim/qos.hh"
#include "sim/rng.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

/* -------------------------- ChaosSpec ---------------------------- */

TEST(ChaosSpec, ParsesFullGrammar)
{
    std::string err;
    const auto spec = ChaosSpec::parse(
        "link-down-at-ns=50000,retrain-ns=1500,step-up-ns=2500,"
        "crc-burst=8,remove-at-ns=80000,readd-at-ns=90000,"
        "contain=abort,abort-ns=300,offline-threshold=3,"
        "max-offline-pages=16,seed=9",
        err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->linkDownAtNs, 50000u);
    EXPECT_DOUBLE_EQ(spec->retrainNs, 1500.0);
    EXPECT_DOUBLE_EQ(spec->stepUpNs, 2500.0);
    EXPECT_EQ(spec->crcBurstTrigger, 8u);
    EXPECT_EQ(spec->removeAtNs, 80000u);
    EXPECT_EQ(spec->readdAtNs, 90000u);
    EXPECT_EQ(spec->contain, ContainPolicy::Abort);
    EXPECT_DOUBLE_EQ(spec->abortNs, 300.0);
    EXPECT_EQ(spec->offlineThreshold, 3u);
    EXPECT_EQ(spec->maxOfflinePages, 16u);
    EXPECT_EQ(spec->seed, 9u);
    EXPECT_TRUE(spec->enabled());
}

TEST(ChaosSpec, EmptySpecIsDisabled)
{
    std::string err;
    const auto spec = ChaosSpec::parse("", err);
    ASSERT_TRUE(spec.has_value());
    EXPECT_FALSE(spec->enabled());
    EXPECT_FALSE(ChaosSpec{}.enabled());
}

TEST(ChaosSpec, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(ChaosSpec::parse("link-down-at-ns", err).has_value());
    EXPECT_NE(err.find("key=value"), std::string::npos);
    EXPECT_FALSE(ChaosSpec::parse("bogus=1", err).has_value());
    EXPECT_FALSE(ChaosSpec::parse("retrain-ns=x", err).has_value());
    EXPECT_FALSE(ChaosSpec::parse("contain=maybe", err).has_value());
    EXPECT_NE(err.find("poison|abort"), std::string::npos);
    EXPECT_FALSE(ChaosSpec::parse("retrain-ns=0", err).has_value());
    // readd needs remove, and must follow it.
    EXPECT_FALSE(ChaosSpec::parse("readd-at-ns=5", err).has_value());
    EXPECT_FALSE(
        ChaosSpec::parse("remove-at-ns=9,readd-at-ns=5", err)
            .has_value());
    EXPECT_FALSE(
        ChaosSpec::parse("max-offline-pages=0", err).has_value());
    // A value must fit its 32-bit field instead of being clamped.
    EXPECT_FALSE(
        ChaosSpec::parse("crc-burst=99999999999", err).has_value());
    EXPECT_NE(err.find("crc-burst=99999999999"), std::string::npos);
    EXPECT_FALSE(ChaosSpec::parse("link-down-at-ns=-5", err).has_value());
}

TEST(ChaosSpec, ValidateThrowsOnBadValues)
{
    ChaosSpec s;
    s.retrainNs = -1.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = ChaosSpec{};
    s.readdAtNs = 10; // re-add without a remove
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = ChaosSpec{};
    s.removeAtNs = 20;
    s.readdAtNs = 10; // re-add before the remove
    EXPECT_THROW(s.validate(), std::invalid_argument);
    EXPECT_NO_THROW(ChaosSpec{}.validate());
}

/**
 * Property-style fuzz over all four spec parsers: whatever the
 * input, parse() must either return a spec or set an error -- never
 * crash, never throw (ASan-clean by CI's chaos-smoke job). Inputs
 * are built from a deterministic RNG so a failure reproduces.
 */
TEST(SpecFuzz, MalformedSpecsNeverCrashAnyParser)
{
    const std::vector<std::string> atoms = {
        "crc",       "poison",   "credits", "policy",
        "link-down-at-ns", "retrain-ns", "remove-at-ns", "contain",
        "offline-threshold", "seed",  "degrade", "burst",
        "hosts", "devices", "capacity-mb", "window-mb", "aggressor",
        "crash-host", "crash-at-ns", "fence-check-ns", "arb", "rr",
        "0",  "1",  "-1", "1e-4", "2.5", "1e309", "nan", "x",
        "4294967298", "-4294967280",
        "poison|abort", "aimd",   "abort",   "",
        "=",  ",",  "==", ",,",   " ",   "\t",   "%s",  "\xff",
    };
    Rng rng(20260808);
    for (int round = 0; round < 2000; ++round) {
        std::string input;
        const std::uint64_t pieces = rng.below(8);
        for (std::uint64_t p = 0; p < pieces; ++p) {
            input += atoms[rng.below(atoms.size())];
            const std::uint64_t glue = rng.below(4);
            if (glue == 0)
                input += '=';
            else if (glue == 1)
                input += ',';
        }
        std::string err;
        const auto fs = FaultSpec::parse(input, err);
        EXPECT_TRUE(fs.has_value() || !err.empty()) << input;
        err.clear();
        const auto qs = QosSpec::parse(input, err);
        EXPECT_TRUE(qs.has_value() || !err.empty()) << input;
        err.clear();
        const auto cs = ChaosSpec::parse(input, err);
        EXPECT_TRUE(cs.has_value() || !err.empty()) << input;
        // A spec that parses must also validate (parse() enforces
        // the same ranges validate() checks).
        if (cs) {
            EXPECT_NO_THROW(cs->validate()) << input;
        }
        err.clear();
        const auto ps = PoolSpec::parse(input, err);
        EXPECT_TRUE(ps.has_value() || !err.empty()) << input;
        if (ps) {
            EXPECT_NO_THROW(ps->validate()) << input;
        }
    }
}

/* -------------------------- ChaosStats --------------------------- */

TEST(ChaosStats, MergeAddsCountersAndMaxesTimestamps)
{
    ChaosStats a;
    a.linkDowns = 1;
    a.blockedMsgs = 10;
    a.linkDownAt = 100;
    a.pagesOfflined = 2;
    ChaosStats b;
    b.linkDowns = 2;
    b.blockedMsgs = 5;
    b.linkDownAt = 50;
    b.dataAtRiskBytes = 4096;
    ChaosStats ab = a;
    ab.merge(b);
    EXPECT_EQ(ab.linkDowns, 3u);
    EXPECT_EQ(ab.blockedMsgs, 15u);
    EXPECT_EQ(ab.linkDownAt, 100u); // timestamps keep the latest
    EXPECT_EQ(ab.pagesOfflined, 2u);
    EXPECT_EQ(ab.dataAtRiskBytes, 4096u);
    // Associative: (a+b)+b == a+(b+b) for the counter fields.
    ChaosStats bb = b;
    bb.merge(b);
    ChaosStats a_bb = a;
    a_bb.merge(bb);
    ChaosStats ab_b = ab;
    ab_b.merge(b);
    EXPECT_EQ(a_bb.linkDowns, ab_b.linkDowns);
    EXPECT_EQ(a_bb.blockedMsgs, ab_b.blockedMsgs);
    EXPECT_NE(ab.summary().find("link-downs=3"), std::string::npos);
}

/* ------------------------ link lifecycle ------------------------- */

CxlLinkParams
testLink()
{
    CxlLinkParams p;
    p.rawGBps = 64.0;
    p.flitEfficiency = 0.5; // effective 32 GB/s: easy arithmetic
    p.propagation = ticksFromNs(10.0);
    return p;
}

TEST(LinkLifecycle, DownLinkBlocksUntilRetrain)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    LinkLifecycle lc;
    dir.setLifecycle(&lc);
    // Healthy: 64 B at 32 GB/s = 2 ns serialization + 10 ns prop.
    EXPECT_EQ(dir.transmit(64), ticksFromNs(12.0));
    // Link DOWN until t=100: the message naks into the replay buffer
    // and serializes only after retrain completes.
    lc.downUntil = ticksFromNs(100.0);
    EXPECT_EQ(dir.transmit(64), ticksFromNs(112.0));
    EXPECT_EQ(lc.blockedMsgs, 1u);
    EXPECT_EQ(lc.detectAt, ticksFromNs(2.0)); // when it would've gone
    // The next message queues behind the first *after* retrain, so it
    // is serialized normally -- only genuinely blocked messages count.
    EXPECT_EQ(dir.transmit(64), ticksFromNs(114.0));
    EXPECT_EQ(lc.blockedMsgs, 1u);
    EXPECT_EQ(lc.detectAt, ticksFromNs(2.0));
}

TEST(LinkLifecycle, CeilingBurstFiresOnceThenDisarms)
{
    LinkLifecycle lc;
    lc.ceilingBurst = 3;
    Tick firedAt = 0;
    int fired = 0;
    lc.onCeilingBurst = [&](Tick at) {
        ++fired;
        firedAt = at;
    };
    lc.noteCeilingError(10);
    lc.noteCeilingError(20);
    EXPECT_EQ(fired, 0);
    lc.noteCeilingError(30);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(firedAt, 30u);
    // Disarmed: further errors never re-fire until re-armed.
    for (Tick t = 40; t < 100; t += 10)
        lc.noteCeilingError(t);
    EXPECT_EQ(fired, 1);
}

TEST(LinkLifecycle, SetDegradeLevelClampsAndRestores)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    dir.setDegradeLevel(7);
    EXPECT_EQ(dir.degradeLevel(), 2u);
    EXPECT_DOUBLE_EQ(dir.effectiveRawGBps(), 64.0 / 4.0);
    dir.setDegradeLevel(1);
    EXPECT_DOUBLE_EQ(dir.effectiveRawGBps(), 64.0 / 2.0);
    dir.setDegradeLevel(0);
    EXPECT_DOUBLE_EQ(dir.effectiveRawGBps(), 64.0);
}

/**
 * Satellite regression: the degradation counter is capped at one
 * downgrade per observation window and re-arms when the window
 * expires. A dense error burst (crc=1 forces an LLR round on every
 * flit) used to double-downgrade straight to the ceiling; now the
 * first window takes exactly one level, the next window the second.
 */
TEST(LinkLifecycle, DegradeWindowReArmCapsOneDowngradePerWindow)
{
    FaultSpec fs;
    fs.crcPerFlit = 1.0; // every flit fails every round: maxLlrRounds
    fs.degradeBurst = 2; // two errors in one window downgrade once
    fs.degradeWindow = ticksFromUs(100.0); // one burst = one window
    FaultInjector inj(fs);
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink(), &inj);
    LinkLifecycle lc;
    dir.setLifecycle(&lc);
    lc.ceilingBurst = 4;
    int outages = 0;
    lc.onCeilingBurst = [&](Tick) { ++outages; };

    // One message = 1 flit = 64 LLR rounds = 64 errors, all inside
    // the first 100 us window: exactly ONE downgrade (the bug was 2).
    dir.transmit(64);
    EXPECT_EQ(dir.degradeLevel(), 1u);
    EXPECT_EQ(inj.stats().linkDegradations, 1u);
    EXPECT_EQ(outages, 0);

    // Advance past the window; the counter re-arms and the next burst
    // takes the second (final) level.
    eq.schedule(ticksFromUs(500.0), [] {});
    eq.run();
    dir.transmit(64);
    EXPECT_EQ(dir.degradeLevel(), 2u);
    EXPECT_EQ(inj.stats().linkDegradations, 2u);

    // At the ceiling further error bursts feed the lifecycle outage
    // trigger instead of degrading (there is no level 3).
    dir.transmit(64);
    EXPECT_EQ(dir.degradeLevel(), 2u);
    EXPECT_EQ(inj.stats().linkDegradations, 2u);
    EXPECT_GE(outages, 1);
}

/* ---------------------- page-failure ledger ---------------------- */

TEST(MemoryFailureHandler, OfflinesPageAtThresholdAndFiresHooks)
{
    MemoryFailureHandler fh(/*threshold=*/2, /*maxPages=*/8);
    std::vector<Addr> offlined;
    fh.addOfflineHook([&](Addr page, Tick) -> std::uint64_t {
        offlined.push_back(page);
        return 1000; // "migrated" bytes, accumulated by the handler
    });
    const Addr a = 0x1234'5678;
    const Addr pageOfA = a & ~(MemoryFailureHandler::pageBytes - 1);
    fh.notePoison(a, 10);
    EXPECT_FALSE(fh.isOffline(a));
    // Second hit on the *same page* (different line) crosses the
    // threshold.
    fh.notePoison(a + 64, 20);
    EXPECT_TRUE(fh.isOffline(a));
    EXPECT_TRUE(fh.isOffline(pageOfA));
    ASSERT_EQ(offlined.size(), 1u);
    EXPECT_EQ(offlined[0], pageOfA);
    const ChaosStats &cs = fh.stats();
    EXPECT_EQ(cs.poisonEvents, 2u);
    EXPECT_EQ(cs.pagesOfflined, 1u);
    EXPECT_EQ(cs.offlinedBytes, MemoryFailureHandler::pageBytes);
    EXPECT_EQ(cs.migratedBytes, 1000u);
    // Re-reports on an offlined page are counted but never re-offline.
    fh.notePoison(a, 30);
    EXPECT_EQ(fh.stats().poisonEvents, 3u);
    EXPECT_EQ(fh.stats().pagesOfflined, 1u);
    EXPECT_EQ(offlined.size(), 1u);
}

TEST(MemoryFailureHandler, MaxPagesCapsTheLedger)
{
    MemoryFailureHandler fh(/*threshold=*/1, /*maxPages=*/2);
    for (int p = 0; p < 5; ++p)
        fh.notePoison(Addr(p) * MemoryFailureHandler::pageBytes, p);
    EXPECT_EQ(fh.stats().pagesOfflined, 2u);
    EXPECT_TRUE(fh.isOffline(0));
    EXPECT_TRUE(fh.isOffline(MemoryFailureHandler::pageBytes));
    EXPECT_FALSE(fh.isOffline(2 * MemoryFailureHandler::pageBytes));
}

TEST(MemoryFailureHandler, ZeroThresholdIsInert)
{
    MemoryFailureHandler fh(0, 64);
    bool fired = false;
    fh.addOfflineHook([&](Addr, Tick) -> std::uint64_t {
        fired = true;
        return 0;
    });
    for (int i = 0; i < 100; ++i)
        fh.notePoison(Addr(i) * 64, i);
    EXPECT_FALSE(fired);
    EXPECT_EQ(fh.stats().poisonEvents, 0u);
    EXPECT_EQ(fh.trackedPages(), 0u);
}

/* ----------------------- NUMA node offline ----------------------- */

TEST(NumaOffline, MembindAllocationsRedirectWhileOffline)
{
    Machine m(Testbed::SingleSocketCxl, MachineOptions{});
    NumaBuffer before =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.cxlNode()));
    EXPECT_EQ(nodeOfPaddr(before.translate(0)), m.cxlNode());
    const std::uint64_t cxlBytes = m.numa().allocatedOn(m.cxlNode());
    EXPECT_GE(cxlBytes, 1 * miB);

    m.numa().setNodeOnline(m.cxlNode(), false);
    EXPECT_FALSE(m.numa().nodeOnline(m.cxlNode()));
    // A membind to the offline node redirects to an online one
    // rather than handing out unreachable memory.
    NumaBuffer during =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.cxlNode()));
    EXPECT_NE(nodeOfPaddr(during.translate(0)), m.cxlNode());

    // Re-add restores the capacity *empty*.
    m.numa().setNodeOnline(m.cxlNode(), true);
    EXPECT_TRUE(m.numa().nodeOnline(m.cxlNode()));
    EXPECT_EQ(m.numa().allocatedOn(m.cxlNode()), 0u);
    NumaBuffer after =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.cxlNode()));
    EXPECT_EQ(nodeOfPaddr(after.translate(0)), m.cxlNode());
}

TEST(NumaOffline, InterleaveSkipsOfflineNodes)
{
    Machine m(Testbed::SingleSocketCxl, MachineOptions{});
    m.numa().setNodeOnline(m.cxlNode(), false);
    NumaBuffer buf = m.numa().alloc(
        1 * miB,
        MemPolicy::weighted({m.localNode(), m.cxlNode()}, {1, 1}));
    for (std::uint64_t off = 0; off < buf.size(); off += pageBytes)
        EXPECT_NE(nodeOfPaddr(buf.translate(off)), m.cxlNode())
            << "offset " << off;
}

/* ------------------- machine-level chaos runs -------------------- */

/** Drive @p count CXL-line loads through a fresh thread on @p m. */
ThreadStats
loadCxlLines(Machine &m, int count)
{
    NumaBuffer buf =
        m.numa().alloc(4 * miB, MemPolicy::membind(m.cxlNode()));
    std::vector<MemOp> ops;
    for (int i = 0; i < count; ++i)
        ops.push_back({MemOp::Kind::Load,
                       buf.translate(std::uint64_t(i) * 4096), 0});
    HwThread t(m.caches(), 0, m.coreParams());
    t.start(std::make_unique<ListStream>(std::move(ops)),
            m.eq().curTick(), {});
    m.run();
    EXPECT_TRUE(t.finished());
    return t.stats();
}

TEST(MachineChaos, DisabledSpecIsBitIdenticalToSeed)
{
    auto run = [](const ChaosSpec &c) {
        MachineOptions o;
        o.chaos = c;
        Machine m(Testbed::SingleSocketCxl, o);
        loadCxlLines(m, 64);
        return m.statsString();
    };
    const std::string seed = run(ChaosSpec{});
    EXPECT_EQ(seed, run(ChaosSpec{}));
    // A disabled chaos spec builds no injector and no handler: the
    // stats dump carries no chaos line at all.
    EXPECT_EQ(seed.find("chaos:"), std::string::npos);
    EXPECT_EQ(seed.find("ras:"), std::string::npos);
}

TEST(MachineChaos, ScheduledLinkDownRetrainsAndStepsBackUp)
{
    MachineOptions o;
    o.chaos.linkDownAtNs = 1000;
    o.chaos.retrainNs = 2000.0;
    o.chaos.stepUpNs = 3000.0;
    Machine m(Testbed::SingleSocketCxl, o);
    loadCxlLines(m, 512);
    const ChaosStats cs = m.chaosStats();
    EXPECT_EQ(cs.linkDowns, 1u);
    EXPECT_EQ(cs.retrains, 1u);
    EXPECT_EQ(cs.widthStepUps, 2u);
    EXPECT_GT(cs.blockedMsgs, 0u);
    EXPECT_EQ(cs.linkDownAt, ticksFromNs(1000.0));
    // Retrain completes exactly retrainNs after the outage; full
    // width returns after two step-ups on top of that.
    EXPECT_EQ(cs.linkUpAt - cs.linkDownAt, ticksFromNs(2000.0));
    EXPECT_EQ(cs.linkFullWidthAt - cs.linkDownAt, ticksFromNs(8000.0));
    EXPECT_GE(cs.linkDetectAt, cs.linkDownAt);
    EXPECT_NE(m.statsString().find("chaos:"), std::string::npos);
}

TEST(MachineChaos, HotRemovePoisonContainmentKeepsInvariant)
{
    MachineOptions o;
    o.chaos.removeAtNs = 2000;
    o.chaos.contain = ContainPolicy::Poison;
    Machine m(Testbed::SingleSocketCxl, o);
    const ThreadStats ts = loadCxlLines(m, 256);
    const ChaosStats cs = m.chaosStats();
    EXPECT_EQ(cs.removals, 1u);
    EXPECT_EQ(cs.readds, 0u);
    EXPECT_GT(cs.abortedReads, 0u);
    EXPECT_EQ(cs.abortedBytes, cs.abortedReads * cachelineBytes);
    EXPECT_GE(cs.removeDetectAt, cs.removeAt);
    // Poison containment: aborted reads complete with a poison
    // indication the consumer sees.
    EXPECT_GT(ts.poisonedLoads, 0u);
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_GT(rs->poisonInjected, 0u);
    // The exhaustive poison ledger: every injected poison is
    // consumed by a fill, delivered to a non-caching consumer, or
    // contained by the abort policy.
    EXPECT_EQ(rs->poisonInjected, rs->poisonConsumed
                                      + rs->poisonDelivered
                                      + rs->poisonContained);
}

TEST(MachineChaos, HotRemoveAbortContainmentNeverDeliversPoison)
{
    MachineOptions o;
    o.chaos.removeAtNs = 2000;
    o.chaos.contain = ContainPolicy::Abort;
    Machine m(Testbed::SingleSocketCxl, o);
    const ThreadStats ts = loadCxlLines(m, 256);
    const ChaosStats cs = m.chaosStats();
    EXPECT_GT(cs.abortedReads, 0u);
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    // Abort containment: the data is never seen, so no poison
    // reaches any consumer -- it is all counted as contained.
    EXPECT_EQ(ts.poisonedLoads, 0u);
    EXPECT_GT(rs->poisonContained, 0u);
    EXPECT_EQ(rs->poisonInjected, rs->poisonConsumed
                                      + rs->poisonDelivered
                                      + rs->poisonContained);
}

TEST(MachineChaos, ReaddRestoresServiceAndFiresHotplugHook)
{
    MachineOptions o;
    o.chaos.removeAtNs = 2000;
    o.chaos.readdAtNs = 4000;
    Machine m(Testbed::SingleSocketCxl, o);
    std::vector<std::pair<Tick, bool>> hotplug;
    m.setCxlHotplugHook([&](Tick at, bool online) {
        hotplug.emplace_back(at, online);
    });
    loadCxlLines(m, 64);
    const ChaosStats cs = m.chaosStats();
    EXPECT_EQ(cs.removals, 1u);
    EXPECT_EQ(cs.readds, 1u);
    EXPECT_EQ(cs.readdAt - cs.removeAt, ticksFromNs(2000.0));
    ASSERT_EQ(hotplug.size(), 2u);
    EXPECT_FALSE(hotplug[0].second);
    EXPECT_TRUE(hotplug[1].second);
    EXPECT_LT(hotplug[0].first, hotplug[1].first);
    // After the re-add the node serves allocations again, empty.
    EXPECT_TRUE(m.numa().nodeOnline(m.cxlNode()));
}

TEST(MachineChaos, PoisonFeedsLedgerAndOfflinesPages)
{
    MachineOptions o;
    o.chaos.offlineThreshold = 1;
    o.chaos.maxOfflinePages = 8;
    o.faults.readPoisonRate = 0.2;
    o.faults.seed = 11;
    Machine m(Testbed::SingleSocketCxl, o);
    loadCxlLines(m, 256);
    ASSERT_NE(m.failureHandler(), nullptr);
    const ChaosStats cs = m.chaosStats();
    EXPECT_GT(cs.poisonEvents, 0u);
    EXPECT_GT(cs.pagesOfflined, 0u);
    EXPECT_LE(cs.pagesOfflined, 8u);
    EXPECT_EQ(cs.offlinedBytes,
              cs.pagesOfflined * MemoryFailureHandler::pageBytes);
    // Only CXL-side consumed poison feeds the ledger, and consumed
    // poison is what the RAS layer counted.
    const RasStats *rs = m.rasStats();
    ASSERT_NE(rs, nullptr);
    EXPECT_LE(cs.poisonEvents, rs->poisonConsumed);
}

TEST(MachineChaos, LifecycleEventsLandInWatchdogLog)
{
    MachineOptions o;
    o.chaos.linkDownAtNs = 1000;
    o.chaos.removeAtNs = 5000;
    o.chaos.readdAtNs = 8000;
    o.watchdogInterval = ticksFromUs(100.0);
    Machine m(Testbed::SingleSocketCxl, o);
    loadCxlLines(m, 256);
    ASSERT_NE(m.watchdog(), nullptr);
    const auto &events = m.watchdog()->events();
    ASSERT_FALSE(events.empty());
    auto contains = [&](const char *needle) {
        for (const std::string &e : events)
            if (e.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(contains("link DOWN"));
    EXPECT_TRUE(contains("hot-remove"));
    EXPECT_TRUE(contains("re-add"));
}

/* --------------------------- the drill --------------------------- */

memo::Options
fastDrill()
{
    memo::Options o;
    o.chaos.linkDownAtNs = 10000;
    o.chaos.retrainNs = 1000.0;
    o.chaos.stepUpNs = 1000.0;
    o.chaos.removeAtNs = 20000;
    o.chaos.readdAtNs = 25000;
    o.chaos.offlineThreshold = 2;
    return o;
}

TEST(Drill, ReportsLifecycleTimingsAndKeepsInvariant)
{
    const memo::DrillResult r = memo::runDrill(2, fastDrill());
    EXPECT_GT(r.healthyGBps, 0.0);
    EXPECT_GT(r.degradedGBps, 0.0);
    EXPECT_GT(r.recoveredGBps, 0.0);
    // Degraded-width traffic is slower than healthy traffic.
    EXPECT_LT(r.degradedGBps, r.healthyGBps);
    // MTTR figures come straight from the schedule: retrain plus two
    // step-ups; removal to re-add.
    EXPECT_DOUBLE_EQ(r.linkMttrNs, 3000.0);
    EXPECT_DOUBLE_EQ(r.removeMttrNs, 5000.0);
    EXPECT_GE(r.linkDetectNs, 0.0);
    EXPECT_GT(r.chaos.abortedReads, 0u);
    EXPECT_GT(r.chaos.dataAtRiskBytes, 0u);
    EXPECT_GT(r.evacuatedBytes, 0u);
    EXPECT_TRUE(r.invariantOk);
}

TEST(Drill, IsDeterministic)
{
    const memo::DrillResult a = memo::runDrill(1, fastDrill());
    const memo::DrillResult b = memo::runDrill(1, fastDrill());
    EXPECT_EQ(a.healthyGBps, b.healthyGBps);
    EXPECT_EQ(a.degradedGBps, b.degradedGBps);
    EXPECT_EQ(a.recoveredGBps, b.recoveredGBps);
    EXPECT_EQ(a.chaos.abortedReads, b.chaos.abortedReads);
    EXPECT_EQ(a.chaos.pagesOfflined, b.chaos.pagesOfflined);
    EXPECT_EQ(a.chaos.dataAtRiskBytes, b.chaos.dataAtRiskBytes);
    EXPECT_EQ(a.ras.poisonInjected, b.ras.poisonInjected);
}

// A custom schedule as memo takes it: an early outage, a hot-remove
// under abort containment and a re-add, over a heavy seeded poison
// stream that drives page offlining. The poison ledger must balance
// with the drill's watchdog armed and quiet.
TEST(Drill, CustomAbortScheduleKeepsInvariant)
{
    std::string err;
    const auto chaos = ChaosSpec::parse(
        "link-down-at-ns=20000,retrain-ns=1000,step-up-ns=1000,"
        "remove-at-ns=40000,readd-at-ns=50000,contain=abort,"
        "offline-threshold=2",
        err);
    ASSERT_TRUE(chaos.has_value()) << err;
    const auto faults = FaultSpec::parse("poison=1e-2,seed=9", err);
    ASSERT_TRUE(faults.has_value()) << err;
    memo::Options o;
    o.chaos = *chaos;
    o.faults = *faults;
    const memo::DrillResult r = memo::runDrill(2, o);
    EXPECT_TRUE(r.invariantOk);
    EXPECT_FALSE(r.watchdogTripped);
    EXPECT_GT(r.chaos.abortedReads, 0u);
    EXPECT_GT(r.chaos.pagesOfflined, 0u);
}

} // namespace
} // namespace cxlmemo
