/**
 * @file
 * Chaos drill: a deterministic failure-lifecycle exercise against the
 * CXL device. A load flood provides steady pressure while the scripted
 * schedule takes the link down (retrain + width step-up), hot-removes
 * and re-adds the device, and poison feeds the page-offlining ledger.
 * Throughput is sampled in windows aligned with the schedule so the
 * healthy / degraded / recovered regimes are measured separately, and
 * the chaos counters yield time-to-detect and MTTR.
 */

#include "memo/memo.hh"

#include <algorithm>
#include <memory>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

constexpr std::uint64_t regionBytes = 32 * miB;
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;

/** The default drill script (used when the caller supplies none). */
ChaosSpec
defaultDrillSchedule()
{
    ChaosSpec c;
    c.linkDownAtNs = 60000;  // 60 us: link drops mid-flood
    c.retrainNs = 2000.0;    // blocks 2 us, re-enters degraded
    c.stepUpNs = 3000.0;     // +3 us per width level back up
    c.removeAtNs = 100000;   // 100 us: device yanked
    c.readdAtNs = 130000;    // 130 us: re-added, capacity empty
    c.contain = ContainPolicy::Poison;
    c.offlineThreshold = 2;  // 2 consumed poisons offline a page
    return c;
}

} // namespace

DrillResult
runDrill(std::uint32_t threads, const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one drill thread");
    Options o = opts;
    if (!o.chaos.enabled())
        o.chaos = defaultDrillSchedule();
    // The offlining leg needs a poison stream to feed the ledger.
    if (!o.faults.enabled() && o.chaos.offlineThreshold > 0)
        o.faults.readPoisonRate = 0.01;
    if (o.watchdogInterval == 0) // the drill always logs lifecycle events
        o.watchdogInterval = ticksFromUs(100.0);

    auto m = makeMachine(Target::Cxl, o, o.prefetchEnabled);

    const std::uint64_t workBytes = std::uint64_t(threads) * regionBytes;
    NumaBuffer work =
        m->numa().alloc(workBytes, MemPolicy::membind(m->cxlNode()));
    // DRAM landing zone for everything migrated off the device.
    NumaBuffer refuge =
        m->numa().alloc(workBytes, MemPolicy::membind(m->localNode()));

    DrillResult res;

    // Page offlining reaction: migrate the offlined page's live data
    // to DRAM with DSA (the paper's guideline for bulk movement).
    if (auto *fh = m->failureHandler()) {
        fh->addOfflineHook([&m, &work, &refuge](Addr page,
                                                Tick) -> std::uint64_t {
            const std::uint64_t p = work.pageOf(page);
            if (p == NumaBuffer::npos)
                return 0;
            DsaDescriptor d;
            d.src = &work;
            d.dst = &refuge;
            d.srcOffset = p * pageBytes;
            d.dstOffset = p * pageBytes;
            d.bytes = pageBytes;
            m->dsa().submit(d, nullptr);
            return pageBytes;
        });
    }

    // Hot-remove reaction: record data-at-risk (everything still
    // resident on the dying node) and evacuate it via DSA. The
    // evacuation races the removal -- exactly the exposure the
    // data-at-risk figure quantifies.
    m->setCxlHotplugHook([&](Tick, bool online) {
        if (online)
            return;
        res.chaos.dataAtRiskBytes =
            m->numa().allocatedOn(m->cxlNode());
        res.dataAtRiskBytes = res.chaos.dataAtRiskBytes;
        DsaDescriptor d;
        d.src = &work;
        d.dst = &refuge;
        d.bytes = work.size();
        if (m->dsa().submit(d, nullptr))
            res.evacuatedBytes += work.size();
    });

    Flood flood(*m, threads, [&](std::uint32_t t) {
        return std::make_unique<SequentialStream>(
            work, std::uint64_t(t) * regionBytes, regionBytes, endlessBytes,
            MemOp::Kind::Load);
    });

    const ChaosSpec &c = m->chaosSpec();
    const Tick down = ticksFromNs(static_cast<double>(c.linkDownAtNs));
    const Tick remove = ticksFromNs(static_cast<double>(c.removeAtNs));
    const Tick readd = ticksFromNs(static_cast<double>(c.readdAtNs));

    // Healthy window: the second half of the pre-failure runway.
    if (down > 0)
        res.healthyGBps = flood.gbps({down / 2, down});
    else if (remove > 0)
        res.healthyGBps = flood.gbps({remove / 2, remove});

    // Degraded window: from the outage until full width should be
    // back (retrain + two step-ups), bounded away from the removal.
    if (down > 0) {
        Tick degEnd = down + ticksFromNs(c.retrainNs + 2.0 * c.stepUpNs);
        if (remove > 0)
            degEnd = std::min(degEnd, remove);
        res.degradedGBps = flood.gbps({down, degEnd});
    }

    // Recovered window: well after the re-add settled.
    if (readd > 0) {
        res.recoveredGBps = flood.gbps({readd + ticksFromUs(10.0),
                                         readd + ticksFromUs(40.0)});
    } else {
        const Tick tail =
            std::max({down, remove, ticksFromUs(o.warmupUs)});
        res.recoveredGBps = flood.gbps({tail + ticksFromUs(10.0),
                                         tail + ticksFromUs(40.0)});
    }

    // Let in-flight recovery work (aborts, migrations) finish. The
    // flood streams are endless, so run a bounded tail rather than
    // draining the queue.
    m->runUntil(m->eq().curTick() + ticksFromUs(10.0));

    const ChaosStats cs = m->chaosStats();
    res.chaos.dataAtRiskBytes =
        std::max(res.chaos.dataAtRiskBytes, res.dataAtRiskBytes);
    {
        const std::uint64_t dar = res.chaos.dataAtRiskBytes;
        res.chaos = cs;
        res.chaos.dataAtRiskBytes = dar;
    }
    if (cs.linkDowns > 0) {
        if (cs.linkDetectAt >= cs.linkDownAt)
            res.linkDetectNs =
                nsFromTicks(cs.linkDetectAt - cs.linkDownAt);
        if (cs.linkFullWidthAt >= cs.linkDownAt)
            res.linkMttrNs =
                nsFromTicks(cs.linkFullWidthAt - cs.linkDownAt);
    }
    if (cs.removals > 0) {
        if (cs.removeDetectAt >= cs.removeAt)
            res.removeDetectNs =
                nsFromTicks(cs.removeDetectAt - cs.removeAt);
        if (cs.readdAt >= cs.removeAt)
            res.removeMttrNs = nsFromTicks(cs.readdAt - cs.removeAt);
    }

    if (const RasStats *rs = m->rasStats()) {
        res.ras = *rs;
        res.invariantOk =
            rs->poisonInjected == rs->poisonConsumed
                                      + rs->poisonDelivered
                                      + rs->poisonContained;
    }
    res.watchdogTripped = m->watchdog() && m->watchdog()->tripped();
    if (o.onMachineDone)
        o.onMachineDone(*m);
    return res;
}

} // namespace memo
} // namespace cxlmemo
