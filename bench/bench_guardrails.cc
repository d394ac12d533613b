/**
 * @file
 * Overhead guardrails: every observability and robustness layer is
 * held to one contract -- arming it must not change the simulated
 * result ("observe, never perturb"), and must cost less than its
 * wall-clock budget.
 *
 * The layers are rows of one table: {name, workload, dark runner,
 * armed runner, budget or record-only}. A runner executes the workload
 * in one configuration and returns the fingerprint of its simulated
 * result. One paired timer drives every row: a discarded warm-up, then
 * per rep a dark run immediately followed by an armed run, and the
 * reported overhead is the best (lowest) armed/dark ratio. Adjacent
 * pairs see the same machine load, so drift on a shared box cancels
 * instead of folding into the estimate. Every armed fingerprint must
 * equal its dark one.
 *
 * The parallel_st<N> rows pair the domain-partitioned engine at one
 * worker (dark) with N workers (armed), N = 1 .. hardware threads, on
 * a 32-thread fig. 3 point. They record the speedup rather than
 * enforce it (it is a property of the host); parallel_st1 pairs the
 * engine with itself, so its overhead is the timer's noise floor.
 *
 * Writes BENCH_guardrails.json; exits 1 on any violation and 2 on a
 * bad argument.
 *
 *   bench_guardrails [--reps N] [--out BENCH_guardrails.json]
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "memo/memo.hh"
#include "system/cluster.hh"

namespace
{

using namespace cxlmemo;

/** Runs a workload in one configuration; returns the fingerprint of
 *  the simulated result. */
using Runner = std::function<std::string()>;

constexpr double kRecordOnly = -1.0;

struct Row
{
    std::string name;
    std::string workload;
    Runner dark;
    Runner armed;
    double budgetPct; //!< kRecordOnly: overhead recorded, not enforced
};

/** Exact text of a double, so equal fingerprints mean equal bits. */
std::string
exact(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v << ';';
    return os.str();
}

/** fig. 3 CXL load bandwidth at each of @p threads; with @p stats the
 *  fingerprint also carries every machine's full stats dump. */
Runner
seqLoad(std::vector<std::uint32_t> threads, memo::Options opts,
        bool stats = false)
{
    return [threads, opts, stats] {
        std::string fp;
        memo::Options o = opts;
        if (stats)
            o.onMachineDone = [&fp](Machine &m) { fp += m.statsString(); };
        for (std::uint32_t t : threads)
            fp += exact(memo::runSeqBandwidth(memo::Target::Cxl,
                                              MemOp::Kind::Load, t, o));
        return fp;
    };
}

/** Loaded CXL read latency at 8 threads. */
Runner
loadedCxl(ObservabilityOptions obs)
{
    return [obs] {
        memo::Options o;
        o.obs = obs;
        return exact(memo::runLoadedLatency(memo::Target::Cxl, 8, o));
    };
}

/** One pooled cluster run to quiescence; the fingerprint is every
 *  host's digest and, with @p timeline, the fencing time and end tick.
 *  The verdict is left out: attribution appends the fabric regime
 *  behind the unchanged host verdict. */
Runner
cluster(PoolSpec spec, Cluster::Options opts, bool timeline)
{
    return [spec, opts, timeline] {
        Cluster c(spec, opts);
        const ClusterResult r = c.run();
        std::ostringstream os;
        for (const HostReport &h : r.hosts)
            os << h.host << ':' << h.digest.ops << ':' << h.digest.reads
               << ':' << h.digest.writes << ':' << h.digest.bytes << ':'
               << h.digest.poisoned << ':' << h.digest.aborted << ':'
               << std::hex << h.digest.valueHash << ':'
               << h.digest.ledgerHash << std::dec << ':' << h.fenced
               << ';';
        if (timeline)
            os << r.timeToFenceNs << ';' << r.endTick;
        return os.str();
    };
}

std::vector<Row>
guardrailTable()
{
    constexpr double kBudgetPct = 5.0;
    std::vector<Row> rows;

    memo::Options attrib;
    attrib.obs.attribution = true;
    rows.push_back({"attrib", "seq cxl load threads=8,16,24",
                    seqLoad({8, 16, 24}, {}), seqLoad({8, 16, 24}, attrib),
                    kBudgetPct});

    memo::Options shortWindow;
    shortWindow.warmupUs = 20.0;
    shortWindow.measureUs = 80.0;
    // Every chaos event lands far past the measurement horizon, so the
    // armed run pays for the lifecycle checks without a failure firing.
    memo::Options chaos = shortWindow;
    chaos.chaos.linkDownAtNs = 1000000000;
    chaos.chaos.removeAtNs = 1000000000;
    chaos.chaos.readdAtNs = 1000000001;
    chaos.chaos.crcBurstTrigger = 1000000;
    chaos.chaos.offlineThreshold = 1000000;
    rows.push_back({"chaos_armed_idle", "seq cxl load threads=8 (20+80 us)",
                    seqLoad({8}, shortWindow), seqLoad({8}, chaos),
                    kBudgetPct});

    // Pool robustness armed, nothing failing: credits above the
    // per-class in-flight demand, a 4x faster fence checker and the
    // watchdog. The faster checker moves the tick the run quiesces
    // at, so only the host digests must match.
    PoolSpec clean;
    clean.hosts = 4;
    PoolSpec credited = clean;
    credited.credits = 2 * clean.mlp;
    credited.fenceCheckNs = 500.0;
    Cluster::Options watchdog;
    watchdog.watchdogUs = 100.0;
    rows.push_back({"pool_armed_idle", clean.toString(),
                    cluster(clean, {}, false),
                    cluster(credited, watchdog, false), kBudgetPct});

    // Fabric observability on the full drill: aggressor flood, host
    // crash, fencing and poison.
    PoolSpec drill;
    drill.hosts = 4;
    drill.ops = 8000;
    drill.crashHost = 1;
    drill.crashAtNs = 40000.0;
    drill.aggressor = 3;
    drill.credits = 16;
    drill.poisonHost = 2;
    drill.poisonEvery = 97;
    Cluster::Options fAttrib, fMetrics, fTrace, fAll;
    fAttrib.obs.attribution = true;
    fMetrics.obs.metricsInterval = ticksFromNs(1000.0);
    fTrace.obs.traceSampleEvery = 64;
    fAll.obs = fAttrib.obs;
    fAll.obs.metricsInterval = fMetrics.obs.metricsInterval;
    fAll.obs.traceSampleEvery = fTrace.obs.traceSampleEvery;
    for (const auto &[name, o] :
         {std::pair{"fabric_attrib", fAttrib},
          std::pair{"fabric_metrics", fMetrics},
          std::pair{"fabric_trace_1in64", fTrace},
          std::pair{"fabric_all_armed", fAll}})
        rows.push_back({name, drill.toString(), cluster(drill, {}, true),
                        cluster(drill, o, true), kBudgetPct});

    // Worst-K capture examines every completed demand read. The last
    // row budgets what it adds on top of the histogram and interval
    // metrics layers it rides, which carry their own budgets.
    ObservabilityOptions k8, k64, histMetrics;
    k8.tailK = 8;
    k64.tailK = 64;
    histMetrics.latencyHistograms = true;
    histMetrics.metricsInterval = ticksFromNs(1000.0);
    ObservabilityOptions histMetricsK8 = histMetrics;
    histMetricsK8.tailK = 8;
    const std::string loaded = "loaded cxl threads=8";
    rows.push_back({"tail_k8", loaded, loadedCxl({}), loadedCxl(k8),
                    kBudgetPct});
    rows.push_back({"tail_k64", loaded, loadedCxl({}), loadedCxl(k64),
                    kBudgetPct});
    rows.push_back({"tail_over_hist_metrics", loaded,
                    loadedCxl(histMetrics), loadedCxl(histMetricsK8),
                    kBudgetPct});

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    memo::Options oneWorker = shortWindow;
    oneWorker.simThreads = 1;
    for (unsigned n = 1; n <= hw; ++n) {
        memo::Options workers = shortWindow;
        workers.simThreads = n;
        rows.push_back({"parallel_st" + std::to_string(n),
                        "seq cxl load threads=32 (20+80 us)",
                        seqLoad({32}, oneWorker, true),
                        seqLoad({32}, workers, true), kRecordOnly});
    }
    return rows;
}

double
timed(const Runner &run, std::string &fingerprint)
{
    const auto t0 = std::chrono::steady_clock::now();
    fingerprint = run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Outcome
{
    double darkS = 0.0;  //!< dark time of the best pair
    double armedS = 0.0; //!< armed time of the best pair
    double pct = 0.0;    //!< best armed/dark ratio, as overhead
    bool identical = true;
};

Outcome
measure(const Row &row, int reps)
{
    Outcome out;
    std::string dark, armed;
    timed(row.dark, dark); // warm-up, discarded
    double bestRatio = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double td = timed(row.dark, dark);
        const double ta = timed(row.armed, armed);
        out.identical = out.identical && armed == dark;
        if (i == 0 || ta / td < bestRatio) {
            bestRatio = ta / td;
            out.darkS = td;
            out.armedS = ta;
        }
    }
    out.pct = (bestRatio - 1.0) * 100.0;
    return out;
}

int
badArgs(const std::string &msg)
{
    std::fprintf(stderr,
                 "bench_guardrails: %s (usage: bench_guardrails "
                 "[--reps N] [--out PATH])\n",
                 msg.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cxlmemo;

    int reps = 5;
    std::string out = "BENCH_guardrails.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg != "--reps" && arg != "--out")
            return badArgs("unknown argument '" + arg + "'");
        if (i + 1 >= argc)
            return badArgs(arg + " needs a value");
        const char *value = argv[++i];
        if (arg == "--out") {
            out = value;
            continue;
        }
        char *end = nullptr;
        const long n = std::strtol(value, &end, 10);
        if (end == value || *end != '\0' || n < 1 || n > INT_MAX)
            return badArgs("--reps needs an integer >= 1, got '"
                           + std::string(value) + "'");
        reps = static_cast<int>(n);
    }

    bench::banner("BENCH guardrails",
                  "armed-layer overhead and result identity");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("%-24s %10s %10s %9s %7s  %s\n", "row", "dark_ms",
                "armed_ms", "overhead%", "budget", "result");

    std::ostringstream json;
    json << std::fixed << std::setprecision(3)
         << "{\n  \"bench\": \"guardrails\",\n  \"reps\": " << reps
         << ",\n  \"hw_threads\": " << hw << ",\n  \"rows\": [";
    bool ok = true;
    const std::vector<Row> table = guardrailTable();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Row &row = table[i];
        const Outcome m = measure(row, reps);
        const bool enforced = row.budgetPct != kRecordOnly;
        char budget[16] = "record";
        if (enforced)
            std::snprintf(budget, sizeof(budget), "%.1f", row.budgetPct);
        std::printf("%-24s %10.2f %10.2f %9.2f %7s  %s\n",
                    row.name.c_str(), m.darkS * 1e3, m.armedS * 1e3,
                    m.pct, budget,
                    m.identical ? "identical" : "CHANGED");
        if (!m.identical) {
            std::fprintf(stderr, "FAIL: %s changed the simulated result\n",
                         row.name.c_str());
            ok = false;
        }
        if (enforced && m.pct > row.budgetPct) {
            std::fprintf(stderr,
                         "FAIL: %s overhead %.2f%% exceeds the %s%% "
                         "budget\n",
                         row.name.c_str(), m.pct, budget);
            ok = false;
        }
        json << (i ? "," : "") << "\n    {\"name\": \"" << row.name
             << "\", \"workload\": \"" << row.workload
             << "\", \"dark_ms\": " << m.darkS * 1e3
             << ", \"armed_ms\": " << m.armedS * 1e3
             << ", \"overhead_pct\": " << m.pct << ", \"budget_pct\": ";
        if (enforced)
            json << budget;
        else
            json << "null, \"speedup\": " << m.darkS / m.armedS;
        json << ", \"fingerprint_equal\": "
             << (m.identical ? "true" : "false") << "}";
    }
    json << "\n  ],\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";

    std::ofstream f(out);
    if (!(f << json.str())) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    bench::note(("wrote " + out).c_str());
    if (ok)
        bench::note("guardrails hold: every armed result identical, "
                    "every budgeted row in budget");
    return ok ? 0 : 1;
}
