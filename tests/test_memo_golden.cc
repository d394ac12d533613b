/**
 * @file
 * Golden-output tests for the `memo` command line: each case runs
 * memoCliMain in-process, captures everything it writes to stdout and
 * compares it byte-for-byte with a checked-in file under
 * tests/golden/cli/. Together the cases cover every mode in --csv and
 * human form, every optional CSV tier, `memo diff`, the trace and
 * metrics sinks, and byte-identity across --jobs and --sim-threads.
 *
 * A missing golden is written from the current run and the case
 * fails, so a new case is added by running it once, reviewing the
 * file and committing it. To re-baseline on purpose, delete the
 * affected goldens and run the suite twice.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "memo/cli.hh"

namespace cxlmemo
{
namespace memo
{
namespace
{

const std::string kGoldenDir = CXLMEMO_GOLDEN_DIR;

/** The disturbed four-host pool every pool case runs: an aggressor,
 *  a crash with fencing and a poisoning host, so each tier has
 *  something to report. Its output is the same on both engines. */
const char *const kPoolSpec =
    "hosts=4,ops=1000,crash-host=1,crash-at-ns=20000,aggressor=3,"
    "credits=16,poison-host=2,poison-every=97";

std::string
goldenPath(const std::string &name)
{
    return kGoldenDir + "/" + name;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

/** Compare @p actual with the golden file @p name (written, and the
 *  case failed, when it does not exist yet). */
void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    std::string expected;
    if (!readFile(path, expected)) {
        writeFile(path, actual);
        FAIL() << "no golden " << path
               << "; wrote it from this run -- review and commit it";
    }
    EXPECT_EQ(expected, actual) << "output differs from " << path;
}

struct CliRun
{
    int rc = -1;
    std::string out;
};

/** Run `memo args...` in-process with stdout redirected into a
 *  temporary file. */
CliRun
runMemo(std::vector<std::string> args)
{
    args.insert(args.begin(), "memo");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());

    CliRun run;
    std::fflush(stdout);
    std::FILE *capture = std::tmpfile();
    if (!capture)
        return run;
    const int saved = ::dup(STDOUT_FILENO);
    ::dup2(::fileno(capture), STDOUT_FILENO);
    run.rc = memoCliMain(static_cast<int>(argv.size()), argv.data());
    std::fflush(stdout);
    ::dup2(saved, STDOUT_FILENO);
    ::close(saved);

    std::rewind(capture);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), capture)) > 0)
        run.out.append(buf, n);
    std::fclose(capture);
    return run;
}

std::size_t
cells(const std::string &line)
{
    std::size_t n = 1;
    for (char c : line)
        if (c == ',')
            ++n;
    return n;
}

/** Every row of a --csv output has exactly as many cells as its one
 *  header row. */
void
expectRectangular(const std::string &csv)
{
    std::size_t header = 0;
    std::size_t rows = 0;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t nl = csv.find('\n', pos);
        if (nl == std::string::npos)
            nl = csv.size();
        const std::string line = csv.substr(pos, nl - pos);
        pos = nl + 1;
        if (header == 0) {
            header = cells(line);
            continue;
        }
        ++rows;
        EXPECT_EQ(cells(line), header) << "ragged row: " << line;
    }
    EXPECT_GT(rows, 0u) << "no data rows";
}

/** Run @p args, expect success, and compare stdout with the golden
 *  @p name. */
void
checkCase(const std::string &name, const std::vector<std::string> &args)
{
    const CliRun run = runMemo(args);
    EXPECT_EQ(run.rc, 0) << name;
    for (const std::string &a : args)
        if (a == "--csv")
            expectRectangular(run.out);
    expectGolden(name + ".out", run.out);
}

/** A --metrics-out timeline conserves: for every (point, metric)
 *  with a total row, its delta rows sum to that total exactly. */
void
expectMetricsConserve(const std::string &csv)
{
    std::map<std::pair<std::string, std::string>, long long> delta;
    std::map<std::pair<std::string, std::string>, long long> total;
    std::istringstream lines(csv);
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line, "point,time_ns,metric,kind,value");
    while (std::getline(lines, line)) {
        std::vector<std::string> cell;
        std::istringstream cells(line);
        for (std::string c; std::getline(cells, c, ',');)
            cell.push_back(c);
        ASSERT_EQ(cell.size(), 5u) << line;
        const auto key = std::make_pair(cell[0], cell[2]);
        if (cell[3] == "delta")
            delta[key] += std::stoll(cell[4]);
        else if (cell[3] == "total")
            total[key] = std::stoll(cell[4]);
    }
    EXPECT_FALSE(total.empty()) << "no totals emitted";
    for (const auto &[key, sum] : total)
        EXPECT_EQ(delta[key], sum)
            << "point " << key.first << " metric " << key.second;
}

/** The first @p n cells of every line of @p csv. */
std::string
firstCells(const std::string &csv, std::size_t n)
{
    std::istringstream lines(csv);
    std::string out;
    for (std::string line; std::getline(lines, line);) {
        std::size_t end = 0;
        for (std::size_t k = 0; k < n && end != std::string::npos; ++k)
            end = line.find(',', k == 0 ? 0 : end + 1);
        out += line.substr(0, end) + "\n";
    }
    return out;
}

std::vector<std::string>
plus(std::vector<std::string> args, const std::vector<std::string> &more)
{
    args.insert(args.end(), more.begin(), more.end());
    return args;
}

/* ----------------------------- modes ----------------------------- */

TEST(MemoGolden, Help)
{
    checkCase("help", {"--help"});
}

TEST(MemoGolden, LatencyCsv)
{
    checkCase("latency_csv", {"--mode", "latency", "--target", "cxl",
                              "--csv"});
}

TEST(MemoGolden, LatencyHuman)
{
    checkCase("latency", {"--mode", "latency", "--target", "ddr5-r1"});
}

const std::vector<std::string> kSeq = {"--mode", "seq", "--target", "cxl",
                                       "--op", "load", "--threads", "1,4",
                                       "--csv"};

TEST(MemoGolden, SeqCsv)
{
    checkCase("seq_csv", kSeq);
}

TEST(MemoGolden, SeqCsvJobs4)
{
    checkCase("seq_csv", plus(kSeq, {"--jobs", "4"}));
}

TEST(MemoGolden, SeqCsvSimThreads2)
{
    checkCase("seq_csv", plus(kSeq, {"--sim-threads", "2"}));
}

TEST(MemoGolden, SeqHuman)
{
    checkCase("seq", {"--mode", "seq", "--target", "ddr5-l8", "--op",
                      "store", "--threads", "2"});
}

TEST(MemoGolden, RandCsv)
{
    checkCase("rand_csv", {"--mode", "rand", "--target", "cxl", "--op",
                           "nt-store", "--block", "4K,16K", "--threads",
                           "2", "--csv"});
}

TEST(MemoGolden, RandHuman)
{
    checkCase("rand", {"--mode", "rand", "--target", "cxl", "--op",
                       "nt-store", "--block", "4K,16K", "--threads", "2"});
}

TEST(MemoGolden, ChaseCsv)
{
    checkCase("chase_csv", {"--mode", "chase", "--target", "ddr5-r1",
                            "--wss", "16K-64K", "--csv"});
}

TEST(MemoGolden, ChaseHuman)
{
    checkCase("chase", {"--mode", "chase", "--target", "cxl", "--wss",
                        "4K,1M"});
}

TEST(MemoGolden, CopyCsv)
{
    checkCase("copy_csv", {"--mode", "copy", "--path", "d2c", "--method",
                           "dsa", "--batch", "4", "--csv"});
}

TEST(MemoGolden, CopyHuman)
{
    checkCase("copy", {"--mode", "copy", "--path", "c2d", "--method",
                       "movdir64b"});
}

TEST(MemoGolden, LoadedCsv)
{
    checkCase("loaded_csv", {"--mode", "loaded", "--target", "cxl",
                             "--threads", "1,4", "--csv"});
}

TEST(MemoGolden, LoadedHuman)
{
    checkCase("loaded", {"--mode", "loaded", "--target", "cxl",
                         "--threads", "1,4"});
}

TEST(MemoGolden, LoadedExtrasCsv)
{
    checkCase("loaded_extras_csv", {"--mode", "loaded", "--target", "cxl",
                                    "--threads", "2", "--histograms",
                                    "--csv"});
}

TEST(MemoGolden, LoadedExtrasHuman)
{
    checkCase("loaded_extras", {"--mode", "loaded", "--target", "cxl",
                                "--threads", "2", "--histograms"});
}

// Report mode is seq with attribution forced on: its CSV is the
// attribution tier case's, byte for byte.
TEST(MemoGolden, ReportCsv)
{
    checkCase("attrib_csv", {"--mode", "report", "--target", "cxl",
                             "--threads", "1,8", "--csv"});
}

TEST(MemoGolden, ReportHuman)
{
    checkCase("report", {"--mode", "report", "--target", "cxl",
                         "--threads", "1,8"});
}

const std::vector<std::string> kDrill = {"--mode", "drill", "--threads",
                                         "1,2", "--csv"};

TEST(MemoGolden, DrillCsv)
{
    checkCase("drill_csv", kDrill);
}

TEST(MemoGolden, DrillCsvJobs4)
{
    checkCase("drill_csv", plus(kDrill, {"--jobs", "4"}));
}

// The drill's poison stream falls differently on the classic engine,
// so the parallel-engine runs share a golden of their own.
TEST(MemoGolden, DrillCsvSimThreads1)
{
    checkCase("drill_parallel_csv", plus(kDrill, {"--sim-threads", "1"}));
}

TEST(MemoGolden, DrillCsvSimThreads2)
{
    checkCase("drill_parallel_csv", plus(kDrill, {"--sim-threads", "2"}));
}

TEST(MemoGolden, DrillHuman)
{
    checkCase("drill", {"--mode", "drill", "--threads", "2"});
}

const std::vector<std::string> kPool = {"--mode", "pool", "--pool-spec",
                                        kPoolSpec, "--csv"};
const std::vector<std::string> kPoolObs = plus(
    kPool, {"--attrib", "--histograms", "--tail-trace", "4"});

TEST(MemoGolden, PoolCsv)
{
    checkCase("pool_csv", kPool);
}

TEST(MemoGolden, PoolCsvJobs4)
{
    checkCase("pool_csv", plus(kPool, {"--jobs", "4"}));
}

TEST(MemoGolden, PoolCsvSimThreads2)
{
    checkCase("pool_csv", plus(kPool, {"--sim-threads", "2"}));
}

TEST(MemoGolden, PoolHuman)
{
    checkCase("pool", {"--mode", "pool", "--pool-spec", kPoolSpec});
}

TEST(MemoGolden, PoolObsCsv)
{
    checkCase("pool_obs_csv", kPoolObs);
}

TEST(MemoGolden, PoolObsCsvJobs4)
{
    checkCase("pool_obs_csv", plus(kPoolObs, {"--jobs", "4"}));
}

TEST(MemoGolden, PoolObsCsvSimThreads2)
{
    checkCase("pool_obs_csv", plus(kPoolObs, {"--sim-threads", "2"}));
}

TEST(MemoGolden, PoolObsHuman)
{
    checkCase("pool_obs", {"--mode", "pool", "--pool-spec", kPoolSpec,
                           "--attrib", "--histograms", "--tail-trace",
                           "4"});
}

/* ----------------------------- tiers ----------------------------- */

const std::vector<std::string> kFault = {"--mode", "seq", "--target",
                                         "cxl", "--threads", "1,4",
                                         "--fault-spec", "crc=1e-4"};
const std::vector<std::string> kQos = {"--mode", "seq", "--target", "cxl",
                                       "--op", "nt-store", "--threads",
                                       "8", "--qos-spec",
                                       "credits=24,policy=aimd"};
const std::vector<std::string> kHist = {"--mode", "chase", "--target",
                                        "cxl", "--wss", "64K,1M",
                                        "--histograms"};
const std::vector<std::string> kCxlSeq = {"--mode", "seq", "--target",
                                          "cxl", "--threads", "1,8"};
const std::vector<std::string> kAttrib = plus(kCxlSeq, {"--attrib"});
const std::vector<std::string> kTail = {"--mode", "rand", "--target",
                                        "cxl", "--block", "4K",
                                        "--threads", "4", "--tail-trace",
                                        "4"};

TEST(MemoGolden, FaultTierCsv)
{
    checkCase("fault_csv", plus(kFault, {"--csv"}));
}

TEST(MemoGolden, FaultTierHuman)
{
    checkCase("fault", kFault);
}

TEST(MemoGolden, QosTierCsv)
{
    checkCase("qos_csv", plus(kQos, {"--csv"}));
}

TEST(MemoGolden, QosTierHuman)
{
    checkCase("qos", kQos);
}

TEST(MemoGolden, HistTierCsv)
{
    checkCase("hist_csv", plus(kHist, {"--csv"}));
}

TEST(MemoGolden, HistTierHuman)
{
    checkCase("hist", kHist);
}

TEST(MemoGolden, AttribTierCsv)
{
    checkCase("attrib_csv", plus(kAttrib, {"--csv"}));
}

TEST(MemoGolden, AttribTierCsvJobs4)
{
    checkCase("attrib_csv", plus(kAttrib, {"--csv", "--jobs", "4"}));
}

TEST(MemoGolden, AttribTierHuman)
{
    checkCase("attrib", kAttrib);
}

// Attribution only observes: the base columns of an --attrib run are
// the rows of a plain run, byte for byte.
TEST(MemoGolden, AttribLeavesBaseColumnsUntouched)
{
    const CliRun attrib = runMemo(plus(kAttrib, {"--csv"}));
    const CliRun plain = runMemo(plus(kCxlSeq, {"--csv"}));
    ASSERT_EQ(attrib.rc, 0);
    ASSERT_EQ(plain.rc, 0);
    EXPECT_EQ(firstCells(attrib.out, 4), plain.out);
}

TEST(MemoGolden, TailTierCsv)
{
    checkCase("tail_csv", plus(kTail, {"--csv"}));
}

TEST(MemoGolden, TailTierHuman)
{
    checkCase("tail", kTail);
}

// A drill watched at a 5 us snapshot interval: the watchdog only
// observes, so a healthy run prints the same report as without it.
TEST(MemoGolden, WatchdogInterval)
{
    checkCase("watchdog_csv", plus(kDrill, {"--watchdog-ns", "5000"}));
}

// The watchdog and the metrics sampler only observe: a drained run
// ends at its last simulated event with either armed, so every column
// computed from the elapsed time is the dark run's, byte for byte.
TEST(MemoGolden, ObserversLeaveDrainedRunsUntouched)
{
    const std::vector<std::string> chase = {"--mode", "chase",
                                            "--target", "cxl", "--wss",
                                            "64K", "--attrib", "--csv"};
    const std::vector<std::string> pool = plus(kPool, {"--attrib"});
    for (const auto &base : {chase, pool}) {
        const CliRun dark = runMemo(base);
        ASSERT_EQ(dark.rc, 0);
        for (const std::vector<std::string> &obs :
             {std::vector<std::string>{"--metrics-interval-ns", "20000"},
              std::vector<std::string>{"--watchdog-ns", "20000"},
              std::vector<std::string>{"--watchdog",
                                       "--metrics-interval-ns",
                                       "20000"}}) {
            const CliRun armed = runMemo(plus(base, obs));
            EXPECT_EQ(armed.rc, 0) << base[1] << " " << obs[0];
            EXPECT_EQ(armed.out, dark.out) << base[1] << " " << obs[0];
        }
    }
}

// Every tier at once on the parallel engine: byte-identical at any
// worker count. (The classic engine draws faults from another stream,
// so this family has a golden of its own.)
const std::vector<std::string> kAllTiers = {
    "--mode", "seq", "--target", "cxl", "--threads", "1,8", "--csv",
    "--fault-spec", "crc=1e-4,timeout=1e-5,poison=1e-4,seed=7",
    "--qos-spec", "credits=24,policy=aimd", "--histograms", "--attrib",
    "--tail-trace", "4"};

TEST(MemoGolden, AllTiersSimThreads1)
{
    checkCase("all_tiers_parallel_csv",
              plus(kAllTiers, {"--sim-threads", "1"}));
}

TEST(MemoGolden, AllTiersSimThreads2)
{
    checkCase("all_tiers_parallel_csv",
              plus(kAllTiers, {"--sim-threads", "2"}));
}

/* --------------------- diff and file sinks ----------------------- */

// The B side of the diff cases: the attribution sweep again, with a
// CRC storm on the link.
TEST(MemoGolden, AttribFaultCsv)
{
    checkCase("attrib_fault_csv",
              plus(kAttrib, {"--fault-spec", "crc=1e-3", "--csv"}));
}

TEST(MemoGolden, DiffText)
{
    checkCase("diff", {"diff", goldenPath("attrib_csv.out"),
                       goldenPath("attrib_fault_csv.out")});
}

// A band narrow enough that the small shift convicts a station.
TEST(MemoGolden, DiffJson)
{
    checkCase("diff_json", {"diff", goldenPath("attrib_csv.out"),
                            goldenPath("attrib_fault_csv.out"),
                            "--json", "--diff-threshold", "0.05"});
}

TEST(MemoGolden, TraceAndMetricsFiles)
{
    const std::string stem = ::testing::TempDir() + "memo_golden_"
                             + std::to_string(::getpid());
    const std::string trace = stem + ".trace.json";
    const std::string metrics = stem + ".metrics.csv";
    checkCase("traced_csv",
              {"--mode", "seq", "--target", "cxl", "--threads", "1",
               "--csv", "--tail-trace", "2", "--trace-out", trace,
               "--trace-sample", "1024", "--metrics-out", metrics,
               "--metrics-interval-ns", "50000"});
    std::string text;
    ASSERT_TRUE(readFile(trace, text)) << trace;
    expectGolden("traced.trace.json", text);
    text.clear();
    ASSERT_TRUE(readFile(metrics, text)) << metrics;
    expectGolden("traced.metrics.csv", text);
    expectMetricsConserve(text);
    std::remove(trace.c_str());
    std::remove(metrics.c_str());
}

// The pool's files: one track per host plus the fabric and tail
// tracks, and the fabric metrics timeline. At a 1000 ns interval the
// last snapshot lands on the run's natural end tick, so stdout is
// the dark pool_obs_csv golden.
TEST(MemoGolden, PoolTraceAndMetricsFiles)
{
    const std::string stem = ::testing::TempDir() + "memo_golden_pool_"
                             + std::to_string(::getpid());
    const std::string trace = stem + ".trace.json";
    const std::string metrics = stem + ".metrics.csv";
    checkCase("pool_obs_csv",
              plus(kPoolObs, {"--trace-out", trace, "--trace-sample",
                              "256", "--metrics-out", metrics,
                              "--metrics-interval-ns", "1000"}));
    std::string text;
    ASSERT_TRUE(readFile(trace, text)) << trace;
    expectGolden("pool_traced.trace.json", text);
    text.clear();
    ASSERT_TRUE(readFile(metrics, text)) << metrics;
    expectGolden("pool_traced.metrics.csv", text);
    expectMetricsConserve(text);
    std::remove(trace.c_str());
    std::remove(metrics.c_str());
}

// A sweep with every file sink on: stdout, the trace and the metrics
// timeline are byte-identical at any --jobs, the timeline conserves
// at a 1 us interval, and --histograms adds the windowed CXL
// percentile rows.
TEST(MemoGolden, TracedSweepIdenticalAcrossJobs)
{
    struct Files
    {
        CliRun run;
        std::string trace;
        std::string metrics;
    };
    const auto sweep = [](const std::string &jobs) {
        const std::string stem = ::testing::TempDir() + "memo_sweep_j"
                                 + jobs + "_"
                                 + std::to_string(::getpid());
        const std::string trace = stem + ".trace.json";
        const std::string metrics = stem + ".metrics.csv";
        Files f;
        f.run = runMemo({"--mode", "seq", "--target", "cxl", "--op",
                         "load", "--threads", "1,2", "--csv", "--jobs",
                         jobs, "--trace-out", trace, "--trace-sample",
                         "1/16", "--metrics-out", metrics,
                         "--metrics-interval-ns", "1000",
                         "--histograms"});
        EXPECT_TRUE(readFile(trace, f.trace)) << trace;
        EXPECT_TRUE(readFile(metrics, f.metrics)) << metrics;
        std::remove(trace.c_str());
        std::remove(metrics.c_str());
        return f;
    };
    const Files one = sweep("1");
    const Files four = sweep("4");
    ASSERT_EQ(one.run.rc, 0);
    ASSERT_EQ(four.run.rc, 0);
    expectRectangular(one.run.out);
    EXPECT_EQ(one.run.out, four.run.out);
    EXPECT_FALSE(one.trace.empty());
    EXPECT_EQ(one.trace, four.trace);
    EXPECT_EQ(one.metrics, four.metrics);
    expectMetricsConserve(one.metrics);
    EXPECT_NE(one.metrics.find(",lat.cxl.p99,pctl,"), std::string::npos);
    EXPECT_NE(one.metrics.find(",lat.cxl.p999,pctl,"), std::string::npos);
}

} // namespace
} // namespace memo
} // namespace cxlmemo
