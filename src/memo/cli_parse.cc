/**
 * @file
 * The memo command line's parser: one table of flags, each with the
 * function that applies its value to the CliConfig, walked once per
 * argument; then the cross-flag checks. Running a parsed CliConfig is
 * cli.cc's job.
 */

#include "memo/cli.hh"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace cxlmemo
{
namespace memo
{

namespace
{

/** One spelling of an enumerated flag value. */
template <typename T>
struct Named
{
    const char *name;
    T value;
};

const Named<Target> kTargets[] = {
    {"ddr5-l8", Target::Ddr5Local}, {"local", Target::Ddr5Local},
    {"dram", Target::Ddr5Local},    {"ddr5-r1", Target::Ddr5Remote},
    {"remote", Target::Ddr5Remote}, {"cxl", Target::Cxl},
};

const Named<MemOp::Kind> kOps[] = {
    {"load", MemOp::Kind::Load},        {"ld", MemOp::Kind::Load},
    {"store", MemOp::Kind::Store},      {"st", MemOp::Kind::Store},
    {"nt-store", MemOp::Kind::NtStore}, {"nt", MemOp::Kind::NtStore},
};

const Named<CliMode> kModes[] = {
    {"latency", CliMode::Latency}, {"seq", CliMode::Seq},
    {"rand", CliMode::Rand},       {"chase", CliMode::Chase},
    {"copy", CliMode::Copy},       {"loaded", CliMode::Loaded},
    {"report", CliMode::Report},   {"drill", CliMode::Drill},
    {"pool", CliMode::Pool},       {"diff", CliMode::Diff},
    {"help", CliMode::Help},
};

const Named<CopyPath> kPaths[] = {
    {"d2d", CopyPath::D2D}, {"d2c", CopyPath::D2C},
    {"c2d", CopyPath::C2D}, {"c2c", CopyPath::C2C},
};

const Named<CopyMethod> kMethods[] = {
    {"memcpy", CopyMethod::Memcpy},   {"movdir64b", CopyMethod::Movdir64},
    {"movdir", CopyMethod::Movdir64}, {"dsa-sync", CopyMethod::DsaSync},
    {"dsa", CopyMethod::DsaAsync},    {"dsa-async", CopyMethod::DsaAsync},
};

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/** The parser's state while it walks the flag table: the config under
 *  construction, the current flag's value, the error message, and the
 *  flags whose mere presence the cross-flag checks look at. */
struct ParseState
{
    CliConfig cfg;
    std::string value; //!< the current flag's value ("" for a switch)
    std::string error;
    bool help = false;
    bool sawPoolSpec = false;
    bool sawJson = false;
    bool sawThreshold = false;

    bool
    fail(std::string message)
    {
        error = std::move(message);
        return false;
    }

    /** The value as one of @p names ("unknown <what>: V" otherwise). */
    template <typename T, std::size_t N>
    bool
    pick(const Named<T> (&names)[N], T &out, const char *what)
    {
        for (const Named<T> &n : names) {
            if (value == n.name) {
                out = n.value;
                return true;
            }
        }
        return fail(std::string("unknown ") + what + ": " + value);
    }

    /** The value as a size in [lo, hi] (@p message + V otherwise). */
    template <typename T>
    bool
    size(std::uint64_t lo, std::uint64_t hi, T &out, const char *message)
    {
        const auto n = parseSize(value);
        if (!n || *n < lo || *n > hi)
            return fail(message + value);
        out = static_cast<T>(*n);
        return true;
    }

    /** The value as a positive count of ns, stored as ticks
     *  (@p message + V otherwise). */
    bool
    ns(Tick &out, const char *message)
    {
        std::uint64_t n = 0;
        if (!size(1, kMaxU64, n, message))
            return false;
        out = ticksFromNs(static_cast<double>(n));
        return true;
    }

    /** The value as a list/range of byte sizes, each a cacheline
     *  multiple in [lo, hi]; @p rule + V is the error for an element
     *  outside it. */
    bool
    bytes(const char *what, std::uint64_t lo, std::uint64_t hi,
          const char *rule, std::vector<std::uint64_t> &out)
    {
        const auto list = parseListSpec(value);
        if (!list)
            return fail(std::string("bad ") + what + " spec: " + value);
        for (std::uint64_t b : *list)
            if (b < lo || b % cachelineBytes != 0 || b > hi)
                return fail(rule + value);
        out = *list;
        return true;
    }

    /** The value as a key=value spec. An empty or whitespace-only
     *  value means the shell ate the real one (unquoted substitution,
     *  stray trailing flag); every spec parser would accept it as "all
     *  defaults", silently running without the faults/QoS/chaos the
     *  user asked for. Reject it instead. */
    template <typename Spec>
    bool
    spec(const char *what, Spec &out)
    {
        bool blank = true;
        for (char c : value)
            blank = blank && std::isspace(static_cast<unsigned char>(c));
        if (blank)
            return fail(std::string("empty ") + what);
        auto parsed = Spec::parse(value, error);
        if (!parsed)
            return false;
        out = *parsed;
        return true;
    }
};

bool
set(bool &flag)
{
    flag = true;
    return true;
}

/** One command-line flag. A value flag finds its value in
 *  ParseState::value; apply() returns false after setting the error. */
struct Flag
{
    const char *name;
    bool takesValue;
    bool (*apply)(ParseState &s);
    const char *alias = nullptr; //!< a second spelling
};

const Flag kFlags[] = {
    {"--help", false,
     [](ParseState &s) {
         s.cfg.mode = CliMode::Help;
         return set(s.help);
     },
     "-h"},
    {"--mode", true,
     [](ParseState &s) { return s.pick(kModes, s.cfg.mode, "mode"); }},
    {"--target", true,
     [](ParseState &s) { return s.pick(kTargets, s.cfg.target, "target"); }},
    {"--op", true,
     [](ParseState &s) { return s.pick(kOps, s.cfg.op, "op"); }},
    {"--path", true,
     [](ParseState &s) { return s.pick(kPaths, s.cfg.path, "path"); }},
    {"--method", true,
     [](ParseState &s) { return s.pick(kMethods, s.cfg.method, "method"); }},
    {"--threads", true,
     [](ParseState &s) {
         const auto list = parseListSpec(s.value);
         if (!list)
             return s.fail("bad thread spec: " + s.value);
         s.cfg.threads.clear();
         for (std::uint64_t t : *list) {
             if (t == 0 || t > 64)
                 return s.fail("thread count out of range");
             s.cfg.threads.push_back(static_cast<std::uint32_t>(t));
         }
         return true;
     }},
    {"--block", true,
     [](ParseState &s) {
         return s.bytes("block", cachelineBytes, 64 * miB,
                        "block size must be a multiple of 64 in [64, 64M]: ",
                        s.cfg.blockBytes);
     }},
    {"--wss", true,
     [](ParseState &s) {
         // The pointer chase needs at least two lines; huge sets would
         // just swamp the simulated capacity.
         return s.bytes("wss", 2 * cachelineBytes, 8 * giB,
                        "wss must be a multiple of 64 in [128, 8G]: ",
                        s.cfg.wssBytes);
     }},
    {"--batch", true,
     [](ParseState &s) {
         return s.size(1, 1024, s.cfg.batch, "bad batch (1..1024): ");
     }},
    {"--seed", true,
     [](ParseState &s) {
         return s.size(0, kMaxU64, s.cfg.run.seed, "bad seed: ");
     }},
    {"--jobs", true,
     [](ParseState &s) {
         return s.size(0, 256, s.cfg.jobs, "bad jobs count: ");
     },
     "-j"},
    // 0 is the documented classic-engine default and is accepted
    // explicitly (scripts spell out the matrix).
    {"--sim-threads", true,
     [](ParseState &s) {
         return s.size(0, 256, s.cfg.run.simThreads,
                       "bad sim-threads count (0..256): ");
     }},
    {"--fault-spec", true,
     [](ParseState &s) { return s.spec("fault-spec", s.cfg.run.faults); }},
    {"--qos-spec", true,
     [](ParseState &s) { return s.spec("qos-spec", s.cfg.run.qos); }},
    {"--chaos-spec", true,
     [](ParseState &s) { return s.spec("chaos-spec", s.cfg.run.chaos); }},
    {"--pool-spec", true,
     [](ParseState &s) {
         s.sawPoolSpec = true;
         return s.spec("pool-spec", s.cfg.poolSpec);
     }},
    {"--watchdog", false,
     [](ParseState &s) {
         if (s.cfg.run.watchdogInterval == 0)
             s.cfg.run.watchdogInterval = ticksFromUs(100.0);
         return true;
     }},
    {"--watchdog-ns", true,
     [](ParseState &s) {
         return s.ns(s.cfg.run.watchdogInterval,
                     "bad watchdog interval (ns): ");
     }},
    {"--trace-out", true,
     [](ParseState &s) {
         s.cfg.traceOut = s.value;
         return true;
     }},
    {"--trace-sample", true,
     [](ParseState &s) {
         // "N" and "1/N" both mean: trace every Nth request.
         const std::string &v = s.value;
         const auto n = parseSize(v.rfind("1/", 0) == 0 ? v.substr(2) : v);
         if (!n || *n == 0)
             return s.fail("bad trace sample rate (N or 1/N): " + v);
         s.cfg.run.obs.traceSampleEvery = *n;
         return true;
     }},
    {"--metrics-out", true,
     [](ParseState &s) {
         s.cfg.metricsOut = s.value;
         return true;
     }},
    {"--metrics-interval-ns", true,
     [](ParseState &s) {
         return s.ns(s.cfg.run.obs.metricsInterval,
                     "bad metrics interval (ns): ");
     }},
    {"--tail-trace", true,
     [](ParseState &s) {
         return s.size(1, 1024, s.cfg.run.obs.tailK,
                       "bad tail-trace depth (1..1024): ");
     }},
    {"--diff-threshold", true,
     [](ParseState &s) {
         char *end = nullptr;
         const double t = std::strtod(s.value.c_str(), &end);
         if (s.value.empty() || end == nullptr || *end != '\0'
             || !(t >= 0.0) || t > 100.0)
             return s.fail("bad diff-threshold (percent, 0..100): "
                           + s.value);
         s.cfg.diffThresholdPct = t;
         return set(s.sawThreshold);
     }},
    {"--json", false,
     [](ParseState &s) { return set(s.cfg.diffJson) && set(s.sawJson); }},
    {"--histograms", false,
     [](ParseState &s) { return set(s.cfg.run.obs.latencyHistograms); }},
    {"--attrib", false,
     [](ParseState &s) { return set(s.cfg.run.obs.attribution); }},
    {"--prefetch", false,
     [](ParseState &s) { return set(s.cfg.run.prefetchEnabled); }},
    {"--csv", false, [](ParseState &s) { return set(s.cfg.csv); }},
};

} // namespace

std::optional<std::uint64_t>
parseSize(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t mult = 1;
    std::string digits = text;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            text.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        mult = suffix == 'K' ? kiB : suffix == 'M' ? miB : giB;
        digits = text.substr(0, text.size() - 1);
    }
    if (digits.empty())
        return std::nullopt;
    constexpr std::uint64_t maxVal =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (maxVal - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    if (mult > 1 && value > maxVal / mult)
        return std::nullopt; // overflow
    return value * mult;
}

std::optional<std::vector<std::uint64_t>>
parseListSpec(const std::string &text)
{
    std::vector<std::uint64_t> out;
    const auto dash = text.find('-');
    if (dash != std::string::npos) {
        const auto lo = parseSize(text.substr(0, dash));
        const auto hi = parseSize(text.substr(dash + 1));
        if (!lo || !hi || *lo == 0 || *lo > *hi)
            return std::nullopt;
        // Powers-of-two steps from lo, plus the exact endpoint.
        for (std::uint64_t v = *lo; v < *hi; v *= 2)
            out.push_back(v);
        out.push_back(*hi);
        return out;
    }
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto v = parseSize(item);
        if (!v)
            return std::nullopt;
        out.push_back(*v);
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

std::string
cliUsage()
{
    return
        "MEMO: microbenchmark for CXL/NUMA memory characterization\n"
        "usage: memo --mode <mode> [options]\n"
        "\n"
        "modes:\n"
        "  latency   instruction latency probes (Fig. 2)\n"
        "  seq       sequential bandwidth sweep (Fig. 3)\n"
        "  rand      random-block bandwidth sweep (Fig. 5)\n"
        "  chase     pointer-chase WSS sweep (Fig. 2 right)\n"
        "  copy      data movement: memcpy/movdir64B/DSA (Fig. 4)\n"
        "  loaded    loaded-latency probe\n"
        "  report    bandwidth sweep with a per-point latency\n"
        "            breakdown table and bottleneck verdict\n"
        "  drill     deterministic failure drill on the CXL device:\n"
        "            link down/retrain, hot-remove/re-add and\n"
        "            poison-driven page offlining under a load flood,\n"
        "            reporting degraded-mode throughput, time-to-\n"
        "            detect, MTTR and data-at-risk\n"
        "  pool      multi-host pooled memory behind a CXL switch:\n"
        "            per-host windows from a shared pool, crash\n"
        "            fencing with capacity quarantine/scrub/re-grant,\n"
        "            port outage/retrain, noisy-neighbor attribution\n"
        "            and a machine-checked blast-radius isolation\n"
        "            invariant (per-host CSV tiers); with --attrib,\n"
        "            --trace-out and --metrics-out the fabric itself\n"
        "            is observable: per-port switch-station\n"
        "            attribution, cross-host Perfetto traces and a\n"
        "            cluster bottleneck verdict\n"
        "  diff      differential regression verdict over two runs:\n"
        "            memo diff A.csv B.csv loads two --csv outputs\n"
        "            (attribution and/or histogram tiers), computes\n"
        "            per-station deltas of the exact latency stack\n"
        "            and names the station that moved the tail\n"
        "            (--json for a machine-readable CI gate)\n"
        "\n"
        "options:\n"
        "  --target  ddr5-l8 | ddr5-r1 | cxl         (default ddr5-l8)\n"
        "  --op      load | store | nt-store         (default load)\n"
        "  --threads N | a,b,c | lo-hi               (default 1)\n"
        "  --block   SIZE | list/range (rand mode)   (default 4K)\n"
        "  --wss     SIZE | list/range (chase mode)\n"
        "  --path    d2d | d2c | c2d | c2c (copy)    (default d2c)\n"
        "  --method  memcpy | movdir64b | dsa-sync | dsa (copy)\n"
        "  --batch   N   DSA batch size              (default 1)\n"
        "  --prefetch    enable hardware prefetchers\n"
        "  --csv         machine-readable output\n"
        "  --seed    N   workload RNG seed           (default 42)\n"
        "  --jobs/-j N   host threads for sweep points (default 1;\n"
        "                0 = all cores; output identical for any N)\n"
        "  --sim-threads N   parallel intra-machine simulation:\n"
        "                domain-partitioned event queues on N worker\n"
        "                threads (default 0 = classic single-queue\n"
        "                engine; output byte-identical for any N >= 1;\n"
        "                incompatible with --trace-out)\n"
        "  --fault-spec  key=value[,...] RAS fault injection:\n"
        "                crc= poison= timeout= drain= dram= (rates in\n"
        "                [0,1]), stall-ns= timeout-ns= backoff-ns=\n"
        "                retries= degrade= seed=\n"
        "                e.g. --fault-spec crc=1e-4,poison=1e-6\n"
        "  --qos-spec    key=value[,...] CXL overload control:\n"
        "                credits= rd-credits= wr-credits= (M2S flow\n"
        "                control), policy=none|aimd target=\n"
        "                ewma-ns= period-ns= ai= md= floor=\n"
        "                burst= line-ns= (host throttle)\n"
        "                e.g. --qos-spec credits=24,policy=aimd\n"
        "  --chaos-spec  key=value[,...] failure-lifecycle schedule:\n"
        "                link-down-at-ns= retrain-ns= step-up-ns=\n"
        "                crc-burst= (CRC errors at degrade ceiling\n"
        "                that drop the link), remove-at-ns=\n"
        "                readd-at-ns= contain=poison|abort abort-ns=\n"
        "                offline-threshold= max-offline-pages= seed=\n"
        "                e.g. --chaos-spec link-down-at-ns=60000,\n"
        "                remove-at-ns=100000,readd-at-ns=130000\n"
        "  --pool-spec   key=value[,...] pooled-cluster scenario\n"
        "                (pool mode only; machine-level specs do not\n"
        "                apply): hosts= devices= capacity-mb=\n"
        "                window-mb= credits= arb=rr|fixed ops=\n"
        "                read-frac= mlp= aggressor= crash-host=\n"
        "                crash-at-ns= fence-check-ns= miss-threshold=\n"
        "                scrub-ns-per-mb= contain=poison|abort\n"
        "                poison-host= poison-every= port-down-host=\n"
        "                port-down-at-ns= retrain-ns= seed=\n"
        "                e.g. --pool-spec hosts=4,crash-host=1,\n"
        "                crash-at-ns=20000\n"
        "  --watchdog    forward-progress watchdog, 100 us snapshots\n"
        "  --watchdog-ns N   watchdog snapshot interval in ns\n"
        "  --trace-out FILE  write sampled request-lifecycle spans as\n"
        "                Chrome trace-event JSON (Perfetto-loadable)\n"
        "  --trace-sample N | 1/N   trace every Nth request\n"
        "                (default 1/64 when tracing is enabled)\n"
        "  --metrics-out FILE   write the interval-metrics timeline\n"
        "                (long-format CSV: point,time_ns,metric,kind,\n"
        "                value)\n"
        "  --metrics-interval-ns N   metrics snapshot interval\n"
        "                (default 1000 when --metrics-out is given)\n"
        "  --histograms  per-component latency histograms (extra CSV\n"
        "                columns / report lines; in pool mode, per-host\n"
        "                lat_* columns over the read-latency histogram)\n"
        "  --attrib      exhaustive latency accounting: per-station\n"
        "                queue/service/utilization columns, the\n"
        "                demand-read latency stack and an automatic\n"
        "                bottleneck verdict (implied by --mode report)\n"
        "  --tail-trace K   worst-K outlier capture: every completed\n"
        "                demand read competes for the K worst per\n"
        "                regime class (local/remote/cxl/fabric), kept\n"
        "                with the full per-stage bracket -- tail_*\n"
        "                CSV columns, a dedicated tail track in\n"
        "                --trace-out, and the watchdog post-mortem\n"
        "                (works with --sim-threads and in pool mode)\n"
        "  --json        diff mode: machine-readable JSON verdict\n"
        "  --diff-threshold P   diff mode: no-change band in percent\n"
        "                (default 5)\n"
        "\n"
        "  --opt=value is accepted everywhere --opt value is.\n";
}

std::optional<CliConfig>
parseCli(const std::vector<std::string> &rawArgs, std::string &error)
{
    // Normalize "--opt=value" into "--opt value" so both spellings
    // work; values themselves (e.g. --fault-spec crc=1e-4) keep their
    // '=' because only tokens starting with "--" are split.
    std::vector<std::string> args;
    args.reserve(rawArgs.size());
    for (const std::string &a : rawArgs) {
        const auto eq = a.find('=');
        if (a.size() > 2 && a.compare(0, 2, "--") == 0
            && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    ParseState s;
    CliConfig &cfg = s.cfg;
    for (std::size_t i = 0; i < args.size() && !s.help; ++i) {
        const std::string &a = args[i];
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            if (a == f.name || (f.alias != nullptr && a == f.alias))
                flag = &f;
        if (flag != nullptr) {
            s.value.clear();
            if (flag->takesValue) {
                if (i + 1 >= args.size()) {
                    error = "missing value after " + a;
                    return std::nullopt;
                }
                s.value = args[++i];
            }
            if (!flag->apply(s)) {
                error = s.error;
                return std::nullopt;
            }
        } else if (a == "diff" && i == 0) {
            // `memo diff A.csv B.csv` -- the comparison verb reads
            // better up front than `--mode diff`.
            cfg.mode = CliMode::Diff;
        } else if (cfg.mode == CliMode::Diff && !a.empty()
                   && a[0] != '-') {
            if (cfg.diffA.empty()) {
                cfg.diffA = a;
            } else if (cfg.diffB.empty()) {
                cfg.diffB = a;
            } else {
                error = "diff takes exactly two files: " + a;
                return std::nullopt;
            }
        } else {
            error = "unknown argument: " + a;
            return std::nullopt;
        }
    }
    if (s.help)
        return cfg;

    // The defaults an output file or a mode implies, filled in once
    // so the checks below and every run read the resolved options.
    ObservabilityOptions &obs = cfg.run.obs;
    if (!cfg.traceOut.empty() && obs.traceSampleEvery == 0)
        obs.traceSampleEvery = 64;
    if (!cfg.metricsOut.empty() && obs.metricsInterval == 0)
        obs.metricsInterval = ticksFromNs(1000.0);
    if (cfg.mode == CliMode::Report)
        obs.attribution = true;

    if (cfg.mode == CliMode::Chase && cfg.wssBytes.empty()) {
        error = "chase mode requires --wss";
        return std::nullopt;
    }
    // Pool mode carries every disturbance inside the pool spec: a
    // stray machine-level spec would silently apply to nothing.
    if (cfg.mode == CliMode::Pool
        && (cfg.run.faults.enabled() || cfg.run.qos.enabled()
            || cfg.run.chaos.enabled())) {
        error = "pool mode takes disturbances via --pool-spec only";
        return std::nullopt;
    }
    if (s.sawPoolSpec && cfg.mode != CliMode::Pool) {
        error = "--pool-spec requires --mode pool";
        return std::nullopt;
    }
    // One simulated thread per core: a count past the testbed's cores
    // would abort mid-sweep on the Machine's core assert. The drill
    // always runs on the CXL testbed.
    if (cfg.mode == CliMode::Seq || cfg.mode == CliMode::Rand
        || cfg.mode == CliMode::Loaded || cfg.mode == CliMode::Report
        || cfg.mode == CliMode::Drill) {
        const std::uint32_t cores = testbedCores(testbedFor(
            cfg.mode == CliMode::Drill ? Target::Cxl : cfg.target));
        for (std::uint32_t t : cfg.threads) {
            if (t > cores) {
                error = "thread count " + std::to_string(t)
                        + " exceeds the testbed's " + std::to_string(cores)
                        + " cores";
                return std::nullopt;
            }
        }
    }
    // Flag matrix, rejected up front with one line instead of a
    // mid-run throw: request-lifecycle tracing marks spans across
    // domains, so it needs the classic single-queue engine in every
    // mode. Worst-K tail capture (--tail-trace) is completion-order
    // independent and works on both engines. Diff mode compares
    // finished runs -- it simulates nothing, so every simulation
    // flag is a mistake worth naming rather than ignoring.
    if (cfg.run.simThreads > 0 && obs.traceSampleEvery > 0) {
        error = "--trace-out/--trace-sample require --sim-threads 0";
        return std::nullopt;
    }
    if (cfg.mode == CliMode::Diff) {
        if (cfg.diffA.empty() || cfg.diffB.empty()) {
            error = "diff requires two CSV files "
                    "(memo diff A.csv B.csv)";
            return std::nullopt;
        }
        if (obs.enabled() || cfg.run.faults.enabled()
            || cfg.run.qos.enabled() || cfg.run.chaos.enabled()
            || cfg.run.watchdogInterval > 0 || cfg.run.simThreads > 0) {
            error = "diff mode compares finished runs and takes no "
                    "simulation flags";
            return std::nullopt;
        }
    } else {
        if (s.sawJson) {
            error = "--json requires diff mode";
            return std::nullopt;
        }
        if (s.sawThreshold) {
            error = "--diff-threshold requires diff mode";
            return std::nullopt;
        }
    }
    return cfg;
}

} // namespace memo
} // namespace cxlmemo
