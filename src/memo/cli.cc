/**
 * @file
 * Running a parsed memo command line. Output is driven by two tables:
 * the column lists (each mode's base columns, and one list plus one
 * human line per optional tier) from which the CSV header, every CSV
 * row and memo diff's row key are generated, and the mode table that
 * one sweep loop runs. Parsing lives in cli_parse.cc.
 */

#include "memo/cli.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "memo/diff.hh"
#include "sim/attribution.hh"
#include "sim/fabric_attrib.hh"
#include "sim/histogram.hh"
#include "sim/sweep.hh"
#include "sim/tailcap.hh"
#include "sim/trace.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

const char *
opName(MemOp::Kind k)
{
    switch (k) {
      case MemOp::Kind::Load:
        return "load";
      case MemOp::Kind::Store:
        return "store";
      case MemOp::Kind::NtStore:
        return "nt-store";
      default:
        return "?";
    }
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/** One sweep point's (or, in pool mode, one host's) results: the
 *  mode's own numbers plus every tier's data. Indexed by sweep
 *  position, so output is identical for any --jobs value. */
struct PointResult
{
    double value = 0.0;     //!< the mode's headline GB/s or ns
    LatencyResult lat;      //!< latency mode
    LoadedLatencyDist dist; //!< loaded mode with optional tiers on
    DrillResult drill;      //!< drill mode
    const HostReport *host = nullptr; //!< pool mode: this row's host
    const PoolResult *pool = nullptr; //!< pool mode: the whole run

    RasStats ras;
    QosStats qos;
    LatencyHistogram hist; //!< target-device (pool: host read) latency
    /** hist's unit in ns: device histograms record ticks, the pool's
     *  per-host read histograms record ns already. */
    double histToNs = 1.0 / tickPerNs;
    AttribSnapshot attrib; //!< latency-accounting roll-up
    TailCapture tailcap;   //!< worst-K outliers (exact merge)
    TailSummary tail;      //!< tailcap's roll-up (pool: the host's)
    std::string traceJson;   //!< comma-separated Chrome trace events
    std::string metricsRows; //!< long-format metrics timeline rows
};

/** What one output row reads: the invocation, its sweep position and
 *  that position's results. */
struct Row
{
    const CliConfig &cfg;
    std::size_t i;
    const PointResult &p;
};

/** The result struct a field column of type @p S reads. */
template <typename S>
const S &
part(const Row &r)
{
    if constexpr (std::is_same_v<S, LatencyResult>)
        return r.p.lat;
    else if constexpr (std::is_same_v<S, LoadedLatencyDist>)
        return r.p.dist;
    else if constexpr (std::is_same_v<S, DrillResult>)
        return r.p.drill;
    else if constexpr (std::is_same_v<S, ChaosStats>)
        return r.p.drill.chaos;
    else if constexpr (std::is_same_v<S, RasStats>)
        return r.p.ras;
    else if constexpr (std::is_same_v<S, QosStats>)
        return r.p.qos;
    else if constexpr (std::is_same_v<S, TailSummary>)
        return r.p.tail;
    else if constexpr (std::is_base_of_v<S, AttribSnapshot>)
        return r.p.attrib;
    else if constexpr (std::is_same_v<S, HostReport>)
        return *r.p.host;
    else if constexpr (std::is_same_v<S, HostDigest>)
        return r.p.host->digest;
    else
        return r.p.pool->cluster;
}

/** Print one CSV cell: flags as 0/1, integers exactly, reals with
 *  @p digits decimals, strings as they are. */
template <typename T>
void
printCell(const T &v, int digits)
{
    if constexpr (std::is_same_v<T, bool>)
        std::printf("%d", v ? 1 : 0);
    else if constexpr (std::is_floating_point_v<T>)
        std::printf("%.*f", digits, v);
    else if constexpr (std::is_integral_v<T>)
        std::printf("%llu", static_cast<unsigned long long>(v));
    else
        std::fputs(std::string(v).c_str(), stdout);
}

/** One CSV column: its header name, its cell, and whether it
 *  identifies what the row measured (memo diff matches rows on
 *  those). */
struct Column
{
    std::string name;
    std::function<void(const Row &)> cell;
    bool identity = false;
};

template <typename Get>
Column
col(std::string name, Get get, int digits = 0, bool identity = false)
{
    return {std::move(name),
            [get, digits](const Row &r) { printCell(get(r), digits); },
            identity};
}

/** A column printing one member of a result struct. */
template <typename S, typename T>
Column
field(std::string name, T S::*member, int digits = 0, bool identity = false)
{
    return col(std::move(name),
               [member](const Row &r) { return part<S>(r).*member; },
               digits, identity);
}

/** An optional CSV tier: its columns plus the human-readable line
 *  that stands for them without --csv (nullptr: none). */
struct Tier
{
    std::vector<Column> columns;
    void (*line)(const Row &) = nullptr;
};

const Tier &
rasTier()
{
    static const Tier t{
        {field("crc_errors", &RasStats::crcErrors),
         field("link_retries", &RasStats::linkRetries),
         field("timeouts", &RasStats::timeouts),
         field("host_retries", &RasStats::hostRetries),
         field("drain_stalls", &RasStats::drainStalls),
         field("dram_stalls", &RasStats::dramStalls),
         field("poison_injected", &RasStats::poisonInjected),
         field("poison_consumed", &RasStats::poisonConsumed),
         field("poison_delivered", &RasStats::poisonDelivered),
         field("poison_contained", &RasStats::poisonContained),
         field("degradations", &RasStats::linkDegradations)},
        [](const Row &r) {
            std::printf("  ras: %s\n", r.p.ras.summary().c_str());
        }};
    return t;
}

const Tier &
qosTier()
{
    static const Tier t{
        {col("credit_stalls",
             [](const Row &r) {
                 return r.p.qos.rdCreditStalls + r.p.qos.wrCreditStalls;
             }),
         col("credit_stall_ns",
             [](const Row &r) { return r.p.qos.creditStallTicks / tickPerNs; }),
         col("throttle_ns",
             [](const Row &r) {
                 return r.p.qos.throttleDelayTicks / tickPerNs;
             }),
         field("devload", &QosStats::devLoad, 3),
         field("rate", &QosStats::rate, 3),
         field("ledger_ok", &QosStats::ledgerOk)},
        [](const Row &r) {
            std::printf("  qos: %s\n", r.p.qos.summary().c_str());
        }};
    return t;
}

const Tier &
histTier()
{
    // Every cell scales the histogram's recorded unit to ns.
    const auto ns = [](double (LatencyHistogram::*stat)() const) {
        return [stat](const Row &r) {
            return (r.p.hist.*stat)() * r.p.histToNs;
        };
    };
    static const Tier t{
        {col("lat_n", [](const Row &r) { return r.p.hist.count(); }),
         col("lat_avg_ns", ns(&LatencyHistogram::mean), 1),
         col("lat_p50_ns", ns(&LatencyHistogram::p50), 1),
         col("lat_p99_ns", ns(&LatencyHistogram::p99), 1),
         col("lat_max_ns",
             [](const Row &r) {
                 return static_cast<double>(r.p.hist.max()) * r.p.histToNs;
             },
             1)},
        [](const Row &r) {
            const LatencyHistogram &h = r.p.hist;
            const double s = r.p.histToNs;
            if (h.empty()) {
                std::printf("  lat: no samples\n");
                return;
            }
            std::printf("  lat: n=%llu  avg %.1f  p50 %.1f  p99 %.1f  "
                        "max %.1f ns\n",
                        ull(h.count()), h.mean() * s, h.p50() * s,
                        h.p99() * s, static_cast<double>(h.max()) * s);
        }};
    return t;
}

/** Per-station queue/service/utilization triplets plus the stack
 *  summary -- one triplet per StationId, in enum order. */
const Tier &
attribTier()
{
    static const Tier t = [] {
        Tier tier;
        std::vector<Column> &cols = tier.columns;
        for (std::size_t i = 0; i < numStations; ++i) {
            const auto id = static_cast<StationId>(i);
            const std::string c = "attrib_" + stationColumn(stationName(id));
            cols.push_back(col(c + "_q_ns", [id](const Row &r) {
                return r.p.attrib.componentQueueNs(id);
            }, 2));
            cols.push_back(col(c + "_s_ns", [id](const Row &r) {
                return r.p.attrib.componentServiceNs(id);
            }, 2));
            cols.push_back(col(c + "_util", [id](const Row &r) {
                return r.p.attrib.util(id);
            }, 4));
        }
        cols.push_back(field("attrib_reqs", &AttribSnapshot::reqCount));
        cols.push_back(col("attrib_total_ns", [](const Row &r) {
            return r.p.attrib.avgTotalNs();
        }, 2));
        cols.push_back(col("attrib_other_ns", [](const Row &r) {
            return r.p.attrib.otherNs();
        }, 2));
        cols.push_back(col("attrib_little_ok", [](const Row &r) {
            return r.p.attrib.littleOk();
        }));
        cols.push_back(col("attrib_bottleneck", [](const Row &r) {
            return stationName(r.p.attrib.bottleneck());
        }));
        tier.line = [](const Row &r) {
            std::printf("  attrib: %s\n", r.p.attrib.verdict().c_str());
        };
        return tier;
    }();
    return t;
}

const Tier &
tailTier()
{
    static const Tier t{
        {field("tail_k", &TailSummary::k),
         field("tail_n", &TailSummary::held),
         field("tail_considered", &TailSummary::considered),
         field("tail_worst_ns", &TailSummary::worstNs, 1),
         field("tail_kth_ns", &TailSummary::kthNs, 1),
         field("tail_regime", &TailSummary::regime),
         field("tail_stage", &TailSummary::stage),
         field("tail_stage_ns", &TailSummary::stageNs, 1),
         field("tail_stack_exact", &TailSummary::stackExact)},
        [](const Row &r) {
            const TailSummary &t = r.p.tail;
            if (t.held == 0) {
                std::printf("  tail: no demand reads considered\n");
                return;
            }
            std::printf("  tail: worst %.1f ns [%s] worst_in=%s(%.1f ns)  "
                        "kth %.1f ns  held %llu (K=%u/class)  "
                        "considered %llu  stack_exact=%d\n",
                        t.worstNs, t.regime.c_str(), t.stage.c_str(),
                        t.stageNs, t.kthNs, ull(t.held), t.k,
                        ull(t.considered), t.stackExact ? 1 : 0);
        }};
    return t;
}

/** Fabric-attribution tier of the pool CSV: per-port (== per-row)
 *  switch-station triplets plus the cross-fabric stack summary, one
 *  triplet per FabricStation in enum order. It has no per-row human
 *  line; pool mode prints the whole fabric table instead. */
const Tier &
fabricTier()
{
    static const Tier t = [] {
        const auto elapsed = [](const Row &r) {
            return r.p.pool->cluster.fabric.elapsed;
        };
        const auto port = [](const Row &r) -> const FabricPortSnap & {
            return r.p.pool->cluster.fabric.ports[r.p.host->host];
        };
        Tier tier;
        std::vector<Column> &cols = tier.columns;
        for (std::size_t i = 0; i < numFabricStations; ++i) {
            const auto id = static_cast<FabricStation>(i);
            const std::string c = stationColumn(fabricStationName(id));
            cols.push_back(col(c + "_q_ns", [=](const Row &r) {
                return port(r).componentQueueNs(id);
            }, 2));
            cols.push_back(col(c + "_s_ns", [=](const Row &r) {
                return port(r).componentServiceNs(id);
            }, 2));
            cols.push_back(col(c + "_util", [=](const Row &r) {
                return port(r).at(id).util(elapsed(r));
            }, 4));
        }
        cols.push_back(col("fabric_reqs", [=](const Row &r) {
            return port(r).reqCount;
        }));
        cols.push_back(col("fabric_total_ns", [=](const Row &r) {
            return port(r).avgTotalNs();
        }, 2));
        cols.push_back(col("fabric_other_ns", [=](const Row &r) {
            return port(r).otherNs();
        }, 2));
        cols.push_back(col("fabric_little_ok", [=](const Row &r) {
            return port(r).littleOk(elapsed(r));
        }));
        cols.push_back(col("fabric_decomp_exact", [=](const Row &r) {
            return port(r).decompositionExact();
        }));
        return tier;
    }();
    return t;
}

/** Which optional tiers an invocation asked for. */
struct TierFlags
{
    bool ras, qos, hist, attrib, tail;

    bool any() const { return ras || qos || hist || attrib || tail; }
};

/**
 * The tiers a row carries, in column order. In --csv form a machine
 * row carries the RAS, QoS and histogram tiers together as soon as
 * any optional tier is on (zeros for the inactive ones), so the
 * column set is stable across configurations; human form prints only
 * the lines asked for. Report mode always carries attribution and
 * prints its breakdown table instead of the `attrib:` line. Pool rows
 * are their own kind: per-host histogram and tail tiers, and the
 * fabric tier under --attrib.
 */
std::vector<const Tier *>
activeTiers(CliMode mode, const TierFlags &f, bool csv)
{
    std::vector<const Tier *> out;
    const auto add = [&out](const Tier &t, bool on) {
        if (on)
            out.push_back(&t);
    };
    if (mode == CliMode::Pool) {
        add(histTier(), f.hist);
        add(tailTier(), f.tail);
        add(fabricTier(), csv && f.attrib);
        return out;
    }
    const bool report = mode == CliMode::Report;
    add(rasTier(), csv ? f.any() : f.ras);
    add(qosTier(), csv ? f.any() : f.qos);
    add(histTier(), csv ? f.any() : f.hist);
    add(attribTier(), csv ? f.attrib || report : f.attrib && !report);
    add(tailTier(), f.tail);
    return out;
}

/* --------------------------- the modes --------------------------- */

/** One mode: its base CSV columns, its sweep points, how to run point
 *  i, and its human-readable line. */
struct Mode
{
    CliMode mode;
    std::vector<Column> base;
    std::size_t (*points)(const CliConfig &);
    void (*run)(const CliConfig &, std::size_t i, const Options &,
                PointResult &);
    void (*human)(const Row &);
    /** The variant used once any optional tier is on (nullptr: this
     *  one). */
    const Mode *withTiers = nullptr;
};

std::size_t
onePoint(const CliConfig &)
{
    return 1;
}

std::size_t
threadPoints(const CliConfig &c)
{
    return c.threads.size();
}

std::uint32_t
threadsAt(const Row &r)
{
    return r.cfg.threads[r.i];
}

/** Rand-mode points are (block, threads) pairs, block-major. */
std::uint64_t
randBlock(const CliConfig &c, std::size_t i)
{
    return c.blockBytes[i / c.threads.size()];
}

std::uint32_t
randThreads(const CliConfig &c, std::size_t i)
{
    return c.threads[i % c.threads.size()];
}

void
drillHuman(const Row &r)
{
    const DrillResult &d = r.p.drill;
    const ChaosStats &c = d.chaos;
    std::printf("CXL drill, %2u threads:\n", threadsAt(r));
    std::printf("  throughput: healthy %.2f -> degraded %.2f -> recovered "
                "%.2f GB/s\n",
                d.healthyGBps, d.degradedGBps, d.recoveredGBps);
    if (c.linkDowns > 0) {
        std::printf("  link: detected down in %.1f ns, full width back "
                    "after %.1f ns (%llu retrain%s, %llu step-up%s)\n",
                    d.linkDetectNs, d.linkMttrNs, ull(c.retrains),
                    c.retrains == 1 ? "" : "s", ull(c.widthStepUps),
                    c.widthStepUps == 1 ? "" : "s");
    }
    if (c.removals > 0) {
        std::printf("  device: removal detected in %.1f ns, re-added "
                    "after %.1f ns; aborted %llu reads / %llu writes "
                    "(%llu B)\n",
                    d.removeDetectNs, d.removeMttrNs, ull(c.abortedReads),
                    ull(c.abortedWrites), ull(c.abortedBytes));
        std::printf("  containment: %llu B at risk, %llu B evacuated via "
                    "DSA\n",
                    ull(c.dataAtRiskBytes), ull(d.evacuatedBytes));
    }
    if (c.pagesOfflined > 0 || c.poisonEvents > 0) {
        std::printf("  pages: %llu offlined (%llu B), %llu B migrated "
                    "(%llu poison events)\n",
                    ull(c.pagesOfflined), ull(c.offlinedBytes),
                    ull(c.migratedBytes), ull(c.poisonEvents));
    }
    std::printf("  poison invariant: %s%s\n",
                d.invariantOk ? "OK" : "VIOLATED",
                d.watchdogTripped ? " (watchdog tripped)" : "");
}

/** Every mode that prints rows, in the order their identity columns
 *  form memo diff's row key. Pool has no points/run: one cluster run
 *  yields all its rows (see runPoolMode). */
const std::vector<Mode> &
modes()
{
    static const Column target = col(
        "target", [](const Row &r) { return targetName(r.cfg.target); }, 0,
        true);
    static const Column op =
        col("op", [](const Row &r) { return opName(r.cfg.op); }, 0, true);
    static const Column threads = col("threads", threadsAt, 0, true);
    const auto value = [](const char *name, int digits) {
        return col(name, [](const Row &r) { return r.p.value; }, digits);
    };

    static const Mode seq{
        CliMode::Seq,
        {target, op, threads, value("gbps", 2)},
        threadPoints,
        [](const CliConfig &c, std::size_t i, const Options &o,
           PointResult &p) {
            p.value = runSeqBandwidth(c.target, c.op, c.threads[i], o);
        },
        [](const Row &r) {
            std::printf("%s %s seq, %2u threads: %7.2f GB/s\n",
                        targetName(r.cfg.target), opName(r.cfg.op),
                        threadsAt(r), r.p.value);
        }};
    // Report is seq with attribution forced on (see
    // CliConfig::observability); printRows swaps its `attrib:` line
    // for the breakdown table.
    static const Mode report = [] {
        Mode m = seq;
        m.mode = CliMode::Report;
        return m;
    }();

    // With any optional tier on, loaded mode's interesting signal is
    // the tail: it reports the windowed distribution instead of one
    // long-run average.
    static const Mode loadedDist{
        CliMode::Loaded,
        {target, threads, field("avg_ns", &LoadedLatencyDist::avgNs, 1),
         field("p50_ns", &LoadedLatencyDist::p50Ns, 1),
         field("p99_ns", &LoadedLatencyDist::p99Ns, 1)},
        threadPoints,
        [](const CliConfig &c, std::size_t i, const Options &o,
           PointResult &p) {
            p.dist = runLoadedLatencyDist(c.target, c.threads[i], o);
        },
        [](const Row &r) {
            const LoadedLatencyDist &d = r.p.dist;
            std::printf("%s loaded latency, %2u threads: avg %7.1f  p50 "
                        "%7.1f  p99 %7.1f ns\n",
                        targetName(r.cfg.target), threadsAt(r), d.avgNs,
                        d.p50Ns, d.p99Ns);
        }};

    static const std::vector<Mode> table = {
        {CliMode::Latency,
         {target, field("ld", &LatencyResult::loadNs, 1),
          field("st+wb", &LatencyResult::storeWbNs, 1),
          field("nt-st", &LatencyResult::ntStoreNs, 1),
          field("ptr-chase", &LatencyResult::ptrChaseNs, 1)},
         onePoint,
         [](const CliConfig &c, std::size_t, const Options &o,
            PointResult &p) { p.lat = runLatency(c.target, o); },
         [](const Row &r) {
             const LatencyResult &l = r.p.lat;
             std::printf("%s latency (ns): ld %.1f  st+wb %.1f  nt-st "
                         "%.1f  ptr-chase %.1f\n",
                         targetName(r.cfg.target), l.loadNs, l.storeWbNs,
                         l.ntStoreNs, l.ptrChaseNs);
         }},
        seq,
        {CliMode::Rand,
         {target, op,
          col("block", [](const Row &r) { return randBlock(r.cfg, r.i); },
              0, true),
          col("threads", [](const Row &r) { return randThreads(r.cfg, r.i); },
              0, true),
          value("gbps", 2)},
         [](const CliConfig &c) {
             return c.blockBytes.size() * c.threads.size();
         },
         [](const CliConfig &c, std::size_t i, const Options &o,
            PointResult &p) {
             p.value = runRandBandwidth(c.target, c.op, randThreads(c, i),
                                        randBlock(c, i), o);
         },
         [](const Row &r) {
             std::printf("%s %s rand %6lluB blocks, %2u threads: %7.2f "
                         "GB/s\n",
                         targetName(r.cfg.target), opName(r.cfg.op),
                         ull(randBlock(r.cfg, r.i)), randThreads(r.cfg, r.i),
                         r.p.value);
         }},
        {CliMode::Chase,
         {target,
          col("wss", [](const Row &r) { return r.cfg.wssBytes[r.i]; }, 0,
              true),
          value("ns", 1)},
         [](const CliConfig &c) { return c.wssBytes.size(); },
         // One machine per WSS point (single-element sweeps) so the
         // decomposition -- and therefore the output -- is the same
         // for every job count.
         [](const CliConfig &c, std::size_t i, const Options &o,
            PointResult &p) {
             p.value = runPtrChaseWssSweep(c.target, {c.wssBytes[i]}, o)[0];
         },
         [](const Row &r) {
             std::printf("%s chase wss %10llu B: %7.1f ns\n",
                         targetName(r.cfg.target),
                         ull(r.cfg.wssBytes[r.i]), r.p.value);
         }},
        {CliMode::Copy,
         {col("path", [](const Row &r) { return copyPathName(r.cfg.path); },
              0, true),
          col("method",
              [](const Row &r) { return copyMethodName(r.cfg.method); }, 0,
              true),
          col("batch", [](const Row &r) { return r.cfg.batch; }, 0, true),
          value("gbps", 2)},
         onePoint,
         [](const CliConfig &c, std::size_t, const Options &o,
            PointResult &p) {
             p.value = runCopyBandwidth(c.path, c.method, c.batch, 4 * kiB,
                                        o);
         },
         [](const Row &r) {
             std::printf("%s via %s (batch %u): %.2f GB/s\n",
                         copyPathName(r.cfg.path),
                         copyMethodName(r.cfg.method), r.cfg.batch,
                         r.p.value);
         }},
        {CliMode::Loaded,
         {target, threads, value("ns", 1)},
         threadPoints,
         [](const CliConfig &c, std::size_t i, const Options &o,
            PointResult &p) {
             p.value = runLoadedLatency(c.target, c.threads[i], o);
         },
         [](const Row &r) {
             std::printf("%s loaded latency, %2u threads: %7.1f ns\n",
                         targetName(r.cfg.target), threadsAt(r), r.p.value);
         },
         &loadedDist},
        report,
        {CliMode::Drill,
         {threads, field("healthy_gbps", &DrillResult::healthyGBps, 2),
          field("degraded_gbps", &DrillResult::degradedGBps, 2),
          field("recovered_gbps", &DrillResult::recoveredGBps, 2),
          field("link_detect_ns", &DrillResult::linkDetectNs, 1),
          field("link_mttr_ns", &DrillResult::linkMttrNs, 1),
          field("remove_detect_ns", &DrillResult::removeDetectNs, 1),
          field("remove_mttr_ns", &DrillResult::removeMttrNs, 1),
          field("data_at_risk_bytes", &ChaosStats::dataAtRiskBytes),
          field("evacuated_bytes", &DrillResult::evacuatedBytes),
          field("pages_offlined", &ChaosStats::pagesOfflined),
          field("offlined_bytes", &ChaosStats::offlinedBytes),
          field("migrated_bytes", &ChaosStats::migratedBytes),
          field("aborted_reads", &ChaosStats::abortedReads),
          field("aborted_writes", &ChaosStats::abortedWrites),
          field("invariant_ok", &DrillResult::invariantOk)},
         threadPoints,
         [](const CliConfig &c, std::size_t i, const Options &o,
            PointResult &p) { p.drill = runDrill(c.threads[i], o); },
         drillHuman},
        // Per-host rows plus run-level fencing/isolation columns,
        // repeated on every row so the file is self-contained.
        {CliMode::Pool,
         {field("host", &HostReport::host, 0, true),
          field("port", &HostReport::host, 0, true),
          field("role", &HostReport::role, 0, true),
          field("ops", &HostDigest::ops), field("gbps", &HostReport::gbps, 2),
          field("read_avg_ns", &HostReport::readAvgNs, 1),
          field("read_p99_ns", &HostReport::readP99Ns, 1),
          field("poisoned", &HostDigest::poisoned),
          field("aborted", &HostDigest::aborted),
          field("fenced", &HostReport::fenced),
          col("granted_mb",
              [](const Row &r) { return r.p.host->grantedBytes / miB; }),
          {"digest",
           [](const Row &r) {
               std::printf("%016llx%016llx", ull(r.p.host->digest.valueHash),
                           ull(r.p.host->digest.ledgerHash));
           }},
          field("time_to_fence_ns", &ClusterResult::timeToFenceNs, 1),
          col("quarantined_mb",
              [](const Row &r) {
                  return r.p.pool->cluster.quarantinedBytes / miB;
              }),
          col("recovered_mb",
              [](const Row &r) {
                  return r.p.pool->cluster.recoveredBytes / miB;
              }),
          field("ledger_ok", &ClusterResult::ledgerOk),
          col("isolation_ok",
              [](const Row &r) { return r.p.pool->isolationOk; }),
          field("verdict", &ClusterResult::verdict)},
         nullptr,
         nullptr,
         [](const Row &r) {
             const HostReport &h = *r.p.host;
             std::printf("  host%u [%s]%s: %llu ops, %.2f GB/s, read "
                         "avg/p99 %.1f/%.1f ns, poisoned %llu, aborted "
                         "%llu, window %llu MiB\n",
                         h.host, h.role.c_str(), h.fenced ? " FENCED" : "",
                         ull(h.digest.ops), h.gbps, h.readAvgNs,
                         h.readP99Ns, ull(h.digest.poisoned),
                         ull(h.digest.aborted), ull(h.grantedBytes / miB));
         }},
    };
    return table;
}

const Mode &
findMode(CliMode mode, bool tiers)
{
    for (const Mode &m : modes())
        if (m.mode == mode)
            return tiers && m.withTiers ? *m.withTiers : m;
    throw std::logic_error("memo: mode without a table entry");
}

/** Print @p pts as CSV (one header, then rows) or as human lines. */
void
printRows(const CliConfig &cfg, const TierFlags &f,
          const std::vector<PointResult> &pts)
{
    const Mode &mode = findMode(cfg.mode, f.any());
    const std::vector<const Tier *> tiers =
        activeTiers(cfg.mode, f, cfg.csv);
    if (cfg.csv) {
        std::printf("%s\n", csvHeader(cfg.mode, f.ras, f.qos, f.hist,
                                      f.attrib, f.tail).c_str());
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Row row{cfg, i, pts[i]};
        if (cfg.csv) {
            const char *sep = "";
            const auto cells = [&](const std::vector<Column> &cols) {
                for (const Column &c : cols) {
                    std::fputs(sep, stdout);
                    c.cell(row);
                    sep = ",";
                }
            };
            cells(mode.base);
            for (const Tier *t : tiers)
                cells(t->columns);
            std::printf("\n");
            continue;
        }
        mode.human(row);
        for (const Tier *t : tiers)
            if (t->line)
                t->line(row);
        if (cfg.mode == CliMode::Report)
            std::fputs(pts[i].attrib.table().c_str(), stdout);
    }
}

/* --------------------- collection and sinks ---------------------- */

/** Merge the latency histogram of the device hosting @p target on
 *  @p m (nullopt target: every device the machine has -- the copy
 *  mode touches several). */
void
mergeHistograms(Machine &m, std::optional<Target> target,
                LatencyHistogram &out)
{
    const auto add = [&](Target t, const LatencyHistogram *h) {
        if (h && (!target || *target == t))
            out.merge(*h);
    };
    add(Target::Ddr5Local, m.localMem().latencyHistogram());
    if (m.hasRemote())
        add(Target::Ddr5Remote, m.remoteMem().latencyHistogram());
    if (m.hasCxl())
        add(Target::Cxl, m.cxlDev().latencyHistogram());
}

/**
 * Per-point harvest, invoked on the experiment machine right before
 * it is destroyed: RAS/QoS counters, trace events, the metrics
 * timeline and the latency histogram. @p pid distinguishes sweep
 * points in the merged trace.
 */
void
collectPoint(Machine &m, std::optional<Target> target, int pid,
             bool collectObs, PointResult &p)
{
    if (const RasStats *rs = m.rasStats())
        p.ras = *rs;
    if (auto qs = m.qosStats())
        p.qos = *qs;
    // Merge (not assign): a point that builds several machines
    // accumulates one exact roll-up. attribSnapshot() folds in the
    // per-domain shard boards of the parallel engine.
    if (m.attribution())
        p.attrib.merge(m.attribSnapshot());
    if (!collectObs)
        return;
    if (RequestTracer *tr = m.tracer()) {
        bool first = p.traceJson.empty();
        tr->appendTraceEvents(p.traceJson, pid, first);
        if (TailCapture *tc = tr->tailCapture()) {
            // Exact associative merge: a point that builds several
            // machines accumulates one top-K union; the outliers also
            // land on the trace's dedicated tail track when exported.
            p.tailcap.merge(*tc);
            tc->appendTraceEvents(p.traceJson, pid, first);
        }
    }
    if (MetricsRegistry *mr = m.metrics()) {
        m.flushMetrics();
        p.metricsRows = mr->rows();
    }
    mergeHistograms(m, target, p.hist);
}

std::FILE *
openOutput(const std::string &path, const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "memo: cannot write %s file %s\n", what,
                     path.c_str());
    }
    return f;
}

/** End-of-run file output shared by every mode: the per-point trace
 *  fragments merged into one Chrome trace-event JSON document
 *  ({"traceEvents": [...]}), and the per-point metrics timelines
 *  concatenated with each row prefixed by its sweep-point index
 *  (schema: point,time_ns,metric,kind,value). */
int
finishRun(const CliConfig &cfg, const std::vector<PointResult> &pts)
{
    bool ok = true;
    if (!cfg.traceOut.empty()) {
        std::FILE *f = openOutput(cfg.traceOut, "trace");
        ok = f != nullptr;
        if (f) {
            std::fputs("{\"traceEvents\":[", f);
            const char *sep = "";
            for (const PointResult &p : pts) {
                if (p.traceJson.empty())
                    continue;
                std::fputs(sep, f);
                std::fputs(p.traceJson.c_str(), f);
                sep = ",\n";
            }
            std::fputs("]}\n", f);
            std::fclose(f);
        }
    }
    if (!cfg.metricsOut.empty()) {
        std::FILE *f = openOutput(cfg.metricsOut, "metrics");
        ok = f != nullptr && ok;
        if (f) {
            std::fprintf(f, "point,%s\n", MetricsRegistry::csvHeader());
            for (std::size_t i = 0; i < pts.size(); ++i) {
                std::istringstream rows(pts[i].metricsRows);
                for (std::string line; std::getline(rows, line);)
                    std::fprintf(f, "%zu,%s\n", i, line.c_str());
            }
            std::fclose(f);
        }
    }
    return ok ? 0 : 1;
}

} // namespace

std::string
csvHeader(CliMode mode, bool ras, bool qos, bool hist, bool attrib,
          bool tail)
{
    if (mode == CliMode::Diff || mode == CliMode::Help)
        return "";
    const TierFlags f{ras, qos, hist, attrib, tail};
    std::string header;
    const auto names = [&header](const std::vector<Column> &cols) {
        for (const Column &c : cols)
            header += (header.empty() ? "" : ",") + c.name;
    };
    names(findMode(mode, f.any()).base);
    for (const Tier *t : activeTiers(mode, f, true))
        names(t->columns);
    return header;
}

std::vector<std::string>
csvIdentityColumns()
{
    std::vector<std::string> ids;
    for (const Mode &m : modes())
        for (const Column &c : m.base)
            if (c.identity
                && std::find(ids.begin(), ids.end(), c.name) == ids.end())
                ids.push_back(c.name);
    return ids;
}

namespace
{

/** Run a sweep mode: map its points through SweepRunner, print them,
 *  write the file sinks. */
int
runSweep(const CliConfig &cfg, const Options &opts, const TierFlags &f)
{
    const Mode &mode = findMode(cfg.mode, f.any());
    // The histogram source: the target device; copy touches several
    // (merge them all), the drill always floods the CXL device.
    const std::optional<Target> histTarget =
        cfg.mode == CliMode::Copy    ? std::nullopt
        : cfg.mode == CliMode::Drill ? std::optional(Target::Cxl)
                                     : std::optional(cfg.target);
    const bool collect = opts.obs.enabled();
    // Every point gets its own hook writing into its own PointResult,
    // so SweepRunner workers share no mutable state.
    const std::vector<PointResult> pts =
        SweepRunner(cfg.jobs).map(mode.points(cfg), [&](std::size_t i) {
            PointResult p;
            Options o = opts;
            if (collect || f.any()) {
                o.onMachineDone = [&p, i, histTarget, collect](Machine &m) {
                    collectPoint(m, histTarget, static_cast<int>(i),
                                 collect, p);
                };
            }
            mode.run(cfg, i, o, p);
            p.tail = p.tailcap.summary();
            return p;
        });
    printRows(cfg, f, pts);
    return finishRun(cfg, pts);
}

int
runPoolMode(const CliConfig &cfg, const Options &opts, const TierFlags &f)
{
    const PoolResult r = runPool(cfg.poolSpec, opts, cfg.jobs);
    const ClusterResult &c = r.cluster;
    std::vector<PointResult> rows(c.hosts.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].host = &c.hosts[i];
        rows[i].pool = &r;
        rows[i].hist = c.hosts[i].readHist;
        rows[i].histToNs = 1.0;
        rows[i].tail = c.hosts[i].tail;
    }
    if (!cfg.csv) {
        std::printf("pooled cluster: %s\n",
                    cfg.poolSpec.toString().c_str());
    }
    printRows(cfg, f, rows);
    if (!cfg.csv) {
        if (c.timeToFenceNs >= 0.0) {
            std::printf("  fencing: dead host fenced in %.1f ns; %llu MiB "
                        "quarantined, %llu MiB re-granted to survivors\n",
                        c.timeToFenceNs, ull(c.quarantinedBytes / miB),
                        ull(c.recoveredBytes / miB));
        }
        std::printf("  ledger: %s", c.ledgerOk ? "conserved" : "VIOLATED");
        if (r.victim >= 0 && cfg.poolSpec.disturbed()) {
            std::printf("; isolation (host%d): %s", r.victim,
                        r.isolationOk ? "OK" : "VIOLATED");
        }
        std::printf("\n  verdict: %s\n", c.verdict.c_str());
        if (c.fabric.enabled()) {
            std::printf("  fabric attribution:\n%s",
                        c.fabric.table().c_str());
        }
        if (c.watchdogTripped) {
            std::printf("  watchdog tripped:\n%s\n",
                        c.watchdogReport.c_str());
        }
    }
    // The disturbed cluster is the run's single "point" for the
    // trace/metrics sinks (the baseline runs dark, see runPool).
    std::vector<PointResult> sink(1);
    sink[0].traceJson = c.traceJson;
    sink[0].metricsRows = c.metricsRows;
    const int fileRc = finishRun(cfg, sink);
    // Invariant violations are a failing exit: CI smoke drills rely on
    // it the way the poison-conservation checks do.
    const bool ok = c.ledgerOk && r.isolationOk && !c.watchdogTripped;
    return ok ? fileRc : 1;
}

int
runDiff(const CliConfig &cfg)
{
    std::string text[2];
    for (int k = 0; k < 2; ++k) {
        const std::string &path = k == 0 ? cfg.diffA : cfg.diffB;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f) {
            std::fprintf(stderr, "memo: cannot read %s\n", path.c_str());
            return 1;
        }
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text[k].append(buf, n);
        std::fclose(f);
    }
    DiffOptions dopts;
    dopts.thresholdPct = cfg.diffThresholdPct;
    dopts.json = cfg.diffJson;
    const DiffReport rep = diffRuns(text[0], text[1], dopts);
    if (!rep.ok) {
        std::fprintf(stderr, "memo: %s\n", rep.error.c_str());
        return 1;
    }
    std::fputs(cfg.diffJson ? diffReportJson(rep).c_str()
                            : diffReportText(rep).c_str(),
               stdout);
    return 0;
}

int
runCli(const CliConfig &cfg)
{
    if (cfg.mode == CliMode::Help) {
        std::fputs(cliUsage().c_str(), stdout);
        return 0;
    }
    if (cfg.mode == CliMode::Diff)
        return runDiff(cfg);

    Options opts;
    opts.prefetch = cfg.prefetch;
    opts.seed = cfg.seed;
    opts.faults = cfg.faults;
    opts.qos = cfg.qos;
    opts.chaos = cfg.chaos;
    opts.watchdogUs = cfg.watchdogUs;
    opts.simThreads = cfg.simThreads;
    opts.obs = cfg.observability();
    // The drill always has RAS counters (it arms a poison stream for
    // the offlining leg even with no --fault-spec), so its rows always
    // carry the optional tiers.
    const TierFlags f{cfg.faults.enabled() || cfg.mode == CliMode::Drill,
                      cfg.qos.enabled(), cfg.histograms,
                      opts.obs.attribution, opts.obs.tailK > 0};
    return cfg.mode == CliMode::Pool ? runPoolMode(cfg, opts, f)
                                     : runSweep(cfg, opts, f);
}

} // namespace

int
memoCliMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string error;
    const auto cfg = parseCli(args, error);
    if (!cfg) {
        // One line, stderr, nonzero exit: scripts and CI can grep it
        // without wading through the usage text.
        std::fprintf(stderr, "memo: %s (try --help)\n", error.c_str());
        return 2;
    }
    return runCli(*cfg);
}

} // namespace memo
} // namespace cxlmemo
