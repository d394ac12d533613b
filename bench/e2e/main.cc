/**
 * @file
 * bench_e2e: runs one benchmark workload in this process and prints
 * one JSON object as the last line of standard output.
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale F] [--out DIR]
 *
 * Set-up (every Machine/Cluster the workload builds, built and
 * destroyed repeatedly) is timed first, outside the timed phase. Then
 * whole passes over the workload repeat for S seconds (at least one).
 * The end-to-end figures are medians over the passes.
 * With --trace 1, traced and untraced passes alternate, the first
 * traced pass supplies the per-layer counters, the layer kernels run,
 * and the spans go to DIR/trace_<workload>.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hh"

namespace
{

using namespace e2e;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 20.0;
    bool trace = false;
    double scale = 1.0;
    std::string outDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scale F] "
                 "[--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--scale")
                a.scale = std::stod(v);
            else if (flag == "--out")
                a.outDir = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds >= 0.0) || !(a.scale > 0.0 && a.scale <= 1.0))
        usage("--seconds must be >= 0 and --scale in (0, 1]");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** Set-up cost of one build spec: median host seconds per build. */
struct SetupResult
{
    BuildSpec spec;
    std::uint32_t k = 0;
    double medianS = 0.0;
};

std::vector<SetupResult>
measureSetup(const Workload &w, const PassInputs &in, SpanLog &log)
{
    // Build and destroy each object until the total reaches the
    // budget (at least 3 builds), then take the median build.
    const double budgetS = std::max(0.05, 0.5 * in.scale);
    std::vector<SetupResult> out;
    for (BuildSpec &spec : w.builds(in)) {
        std::vector<double> times;
        double total = 0.0;
        while (times.size() < 3 || total < budgetS) {
            const double start = nowS();
            spec.buildAndDestroy();
            const double end = nowS();
            log.add("setup.build " + spec.label, 0, 0, start, end, 3);
            times.push_back(end - start);
            total += end - start;
        }
        const auto k = static_cast<std::uint32_t>(times.size());
        out.push_back({std::move(spec), k, median(times)});
    }
    return out;
}

/** Summary of one finished pass. */
struct PassSummary
{
    double wallS;
    double simNs;
    std::uint64_t digest;
};

/** How a pass runs: untraced, traced, or with the observability
 *  layers off (the dark rerun behind obs.armed_overhead_pct). */
enum class Kind
{
    Dark,
    Traced,
    ObsOff,
};

/** Everything the timed phase produced. */
struct Passes
{
    std::map<Kind, std::vector<PassSummary>> byKind;
    std::uint32_t attempted = 0;
    std::uint32_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Check> checks; //!< of the first pass
    Counters counters;         //!< of the first traced (or only) kind

    std::vector<double>
    walls(Kind kind) const
    {
        std::vector<double> out;
        if (auto it = byKind.find(kind); it != byKind.end())
            for (const PassSummary &p : it->second)
                out.push_back(p.wallS);
        return out;
    }
};

/**
 * Repeat rounds of whole passes for @p seconds (at least one round).
 * Untraced runs repeat Dark passes; traced runs rotate Traced,
 * Dark and, for workloads with observability layers, ObsOff passes.
 * The first Traced pass records its spans into @p traceLog.
 */
Passes
runPasses(const Workload &w, const PassInputs &in, double seconds,
          bool trace, SpanLog &traceLog)
{
    std::vector<Kind> cycle = {Kind::Dark};
    if (trace) {
        cycle = {Kind::Traced, Kind::Dark};
        if (w.observability)
            cycle.push_back(Kind::ObsOff);
    }
    const Kind counted = cycle.front();

    Passes out;
    SpanLog dark(false);
    const double start = nowS();
    std::uint64_t spanId = 0;
    std::uint32_t rounds = 0;
    double elapsed = 0.0;
    // Start another round only if one more, at the average round time
    // so far, ends within the budget: a run never overruns it by a
    // whole pass (the first round always runs).
    do {
        ++rounds;
        for (Kind kind : cycle) {
            PassInputs pin = in;
            pin.obsArmed = kind != Kind::ObsOff;
            const bool first = out.byKind[kind].empty();
            Pass pass(kind == Kind::Traced && first ? traceLog : dark,
                      ++spanId);
            w.run(pass, pin);
            pass.end();
            out.attempted += pass.attempted();
            out.failed += std::min(pass.failed(), pass.attempted());
            out.failures.insert(out.failures.end(),
                                pass.failures().begin(),
                                pass.failures().end());
            if (out.checks.empty())
                out.checks = pass.checks();
            if (kind == counted && first)
                out.counters = pass.counters();
            out.byKind[kind].push_back(
                {pass.wallS(), pass.simNs(), pass.digest().value()});
        }
        elapsed = nowS() - start;
    } while (elapsed * (rounds + 1) / rounds <= seconds);
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct LayerMetric
{
    const char *name;
    double value;
};

/** The per-layer metrics of a traced run (units in BENCHMARK.json). */
std::vector<LayerMetric>
layerMetrics(const Passes &p, const KernelResults &k,
             const std::vector<SetupResult> &setup)
{
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    double machineS = 0.0, clusterS = 0.0;
    double machines = 0.0, clusters = 0.0;
    for (const SetupResult &s : setup) {
        (s.spec.cluster ? clusterS : machineS) += s.spec.perPass * s.medianS;
        (s.spec.cluster ? clusters : machines) += s.spec.perPass;
    }
    const double wallS = median(p.walls(Kind::Dark));
    const double wallNs = wallS * 1e9;
    const std::vector<double> off = p.walls(Kind::ObsOff);
    const double obsPct =
        off.empty() ? 0.0 : (wallS / median(off) - 1.0) * 100.0;
    const Counters &c = p.counters;
    return {
        {"sim.events", d(c.events)},
        {"sim.host_ns_per_event", ratio(wallNs, d(c.events))},
        {"sim.queue.kernel_ns_per_event", k.queueNsPerEvent},
        {"sim.parallel.windows", d(c.windows)},
        {"sim.parallel.cross_posts", d(c.crossPosts)},
        {"sim.parallel.clamped_posts", d(c.clampedPosts)},
        {"sim.parallel.host_ns_per_window", ratio(wallNs, d(c.windows))},
        {"sim.parallel.kernel_ns_per_window", k.parallelNsPerWindowT4},
        {"sim.parallel.kernel_speedup_t4", k.parallelSpeedupT4},
        {"cache.l1_accesses", d(c.l1Accesses)},
        {"cache.llc_accesses", d(c.llcAccesses)},
        {"cache.llc_hit_rate", ratio(d(c.llcHits), d(c.llcAccesses))},
        {"cache.kernel_ns_per_load", k.cacheNsPerLoad},
        {"mem.dram_reqs", d(c.dramReqs)},
        {"mem.row_hit_rate",
         ratio(d(c.dramRowHits), d(c.dramRowHits + c.dramRowMisses))},
        {"mem.kernel_ns_per_req", k.memNsPerReq},
        {"cxl.reqs", d(c.cxlReqs)},
        {"cxl.row_hit_rate",
         ratio(d(c.cxlRowHits), d(c.cxlRowHits + c.cxlRowMisses))},
        {"cxl.stall_ns", cxlmemo::nsFromTicks(c.cxlStallTicks)},
        {"cxl.kernel_ns_per_req", k.cxlNsPerReq},
        {"interconnect.upi_bytes", d(c.upiBytes)},
        {"interconnect.sw_reqs", d(c.swReqs)},
        {"interconnect.sw_credit_stall_ns",
         cxlmemo::nsFromTicks(c.swCreditStallTicks)},
        {"interconnect.kernel_ns_per_op", k.switchNsPerOp},
        {"system.machine_build_ms", ratio(machineS * 1e3, machines)},
        {"system.cluster_build_ms", ratio(clusterS * 1e3, clusters)},
        {"obs.armed_overhead_pct", obsPct},
        {"trace.overhead_pct",
         (median(p.walls(Kind::Traced)) / wallS - 1.0) * 100.0},
        {"est_host_share.sim", ratio(k.queueNsPerEvent * d(c.events), wallNs)},
        {"est_host_share.sim.parallel",
         ratio(k.parallelNsPerWindowT4 * d(c.windows), wallNs)},
        {"est_host_share.cache",
         ratio(k.cacheNsPerLoad * d(c.l1Accesses), wallNs)},
        {"est_host_share.mem", ratio(k.memNsPerReq * d(c.dramReqs), wallNs)},
        {"est_host_share.cxl", ratio(k.cxlNsPerReq * d(c.cxlReqs), wallNs)},
        {"est_host_share.interconnect",
         ratio(k.switchNsPerOp * d(c.swReqs), wallNs)},
    };
}

/** Comma-joined JSON array of @p items formatted by @p fmt. */
template <typename T, typename Fmt>
std::string
jsonList(const std::vector<T> &items, Fmt fmt)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + fmt(items[i]);
    return out + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (args.workload == cand.name)
            w = &cand;
    if (!w)
        usage("unknown workload " + args.workload);

    PassInputs in;
    in.seed = args.seed;
    in.scale = args.scale;

    SpanLog traceLog(args.trace);
    const std::vector<SetupResult> setup = measureSetup(*w, in, traceLog);
    double setupS = 0.0;
    for (const SetupResult &s : setup)
        setupS += s.spec.perPass * s.medianS;

    Passes p = runPasses(*w, in, args.seconds, args.trace, traceLog);

    // Every pass of every kind must reproduce one simulated digest:
    // tracing and the observability layers never change results.
    const std::uint64_t digest = p.byKind[Kind::Dark].front().digest;
    bool stable = true;
    for (const auto &[kind, list] : p.byKind)
        for (const PassSummary &s : list)
            stable = stable && s.digest == digest;
    if (!stable) {
        p.failures.push_back("sim digest differs between passes");
        ++p.failed;
    }

    std::vector<double> rates;
    for (const PassSummary &s : p.byKind[Kind::Dark])
        rates.push_back(s.simNs / s.wallS);

    std::vector<LayerMetric> layers;
    if (args.trace) {
        layers = layerMetrics(p, runKernels(traceLog, args.seed, args.scale),
                              setup);
        if (!args.outDir.empty()) {
            const std::string path =
                args.outDir + "/trace_" + args.workload + ".json";
            std::ofstream f(path);
            f << traceLog.chromeJson();
            if (!f) {
                std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                             path.c_str());
                return 1;
            }
        }
    }

    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::string out = "{\"workload\":" + jsonString(args.workload);
    out += ",\"seed\":" + std::to_string(args.seed);
    out += ",\"scale\":" + num(args.scale);
    out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
    out += ",\"wall_s\":" + num(median(p.walls(Kind::Dark)));
    out += ",\"sim_ns_per_s\":" + num(median(rates));
    out += ",\"setup_s\":" + num(setupS);
    out += ",\"peak_rss_mb\":" + num(peakRssMb());
    out += ",\"pass_wall_s\":" + jsonList(p.walls(Kind::Dark), num);
    out += ",\"builds\":" + jsonList(setup, [](const SetupResult &s) {
        return "{\"label\":" + jsonString(s.spec.label) + ",\"per_pass\":"
               + std::to_string(s.spec.perPass) + ",\"k\":"
               + std::to_string(s.k) + ",\"median_s\":" + num(s.medianS)
               + "}";
    });
    out += ",\"sim_digest\":\"" + std::string(hex) + "\"";
    out += ",\"digest_stable\":" + std::string(stable ? "true" : "false");
    out += ",\"ops_attempted\":" + std::to_string(p.attempted);
    out += ",\"ops_failed\":" + std::to_string(p.failed);
    out += ",\"failures\":" + jsonList(p.failures, jsonString);
    out += ",\"checks\":" + jsonList(p.checks, [](const Check &c) {
        return "{\"name\":" + jsonString(c.name) + ",\"paper\":"
               + num(c.paper) + ",\"measured\":" + num(c.measured)
               + ",\"ok\":" + (c.ok ? "true" : "false") + "}";
    });
    std::string layerJson;
    for (const LayerMetric &m : layers)
        layerJson += (layerJson.empty() ? "" : ",") + jsonString(m.name)
                     + ":" + num(m.value);
    out += ",\"layers\":{" + layerJson + "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
