/**
 * @file
 * Command-line front end for MEMO, matching the paper's description:
 * "Users can provide command-line arguments to specify the workloads
 * to be executed by MEMO."
 *
 * Examples:
 *   memo --mode latency  --target cxl
 *   memo --mode seq      --target ddr5-l8 --op load --threads 1-32
 *   memo --mode rand     --target cxl --op nt-store --block 16K \
 *        --threads 1,2,4,8
 *   memo --mode chase    --target ddr5-r1 --wss 16K-512M
 *   memo --mode copy     --path d2c --method dsa --batch 16
 *   memo --mode loaded   --target cxl --threads 12
 *   memo --mode report   --target cxl --op load --threads 1-32
 *   memo --mode drill    --threads 8
 *   memo --mode drill    --chaos-spec link-down-at-ns=50000,crc-burst=8
 *
 * The parser is a standalone, testable component; `memoCliMain` is
 * the actual entry point used by the `memo` binary.
 */

#ifndef CXLMEMO_MEMO_CLI_HH
#define CXLMEMO_MEMO_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memo/memo.hh"

namespace cxlmemo
{
namespace memo
{

/** What the invocation asks MEMO to do. */
enum class CliMode
{
    Latency, //!< Fig. 2 instruction probes
    Seq,     //!< sequential bandwidth sweep
    Rand,    //!< random-block bandwidth sweep
    Chase,   //!< pointer-chase WSS sweep
    Copy,    //!< data-movement (memcpy/movdir64B/DSA)
    Loaded,  //!< loaded latency
    Report,  //!< bandwidth sweep + per-point attribution breakdown
    Drill,   //!< deterministic failure-lifecycle drill
    Pool,    //!< multi-host pooled-memory cluster scenario
    Diff,    //!< differential regression verdict over two CSV runs
    Help,
};

/** Parsed command line: what to run, and the Options to run it with. */
struct CliConfig
{
    CliMode mode = CliMode::Help;
    Target target = Target::Ddr5Local;
    MemOp::Kind op = MemOp::Kind::Load;
    std::vector<std::uint32_t> threads = {1};
    std::vector<std::uint64_t> blockBytes = {4 * kiB};
    std::vector<std::uint64_t> wssBytes;
    CopyPath path = CopyPath::D2C;
    CopyMethod method = CopyMethod::Memcpy;
    std::uint32_t batch = 1;
    bool csv = false;

    /**
     * Host threads for sweep modes (seq/rand/chase/loaded): each sweep
     * point simulates an independent Machine, so points run
     * concurrently through SweepRunner. 0 means one per hardware
     * thread. Output is identical for every value -- results are
     * printed in sweep order, not completion order.
     */
    std::uint32_t jobs = 1;

    /** Pooled-cluster scenario (`--pool-spec`, pool mode only). Pool
     *  mode carries all disturbances inside this spec and rejects
     *  `--fault-spec` / `--qos-spec` / `--chaos-spec`. */
    PoolSpec poolSpec;

    /** Chrome trace-event JSON output file (`--trace-out`); tracing
     *  samples 1 request in 64 unless `--trace-sample` says otherwise. */
    std::string traceOut;

    /** Interval-metrics CSV output file (`--metrics-out`); snapshots
     *  every 1000 ns unless `--metrics-interval-ns` says otherwise. */
    std::string metricsOut;

    /* ---------------------- diff mode ---------------------------- */

    /** The two CSV files `memo diff A.csv B.csv` compares. */
    std::string diffA;
    std::string diffB;

    /** Machine-readable JSON verdict (`--json`, diff mode only). */
    bool diffJson = false;

    /** No-change band in percent (`--diff-threshold`, diff mode). */
    double diffThresholdPct = 5.0;

    /**
     * The Options every experiment of this invocation runs with:
     * `--prefetch`, `--seed`, `--sim-threads`, the fault, QoS and
     * chaos specs, `--watchdog`/`--watchdog-ns` and the observability
     * flags, with their defaults resolved (tracing at 1 in 64 with
     * `--trace-out`, metrics every 1000 ns with `--metrics-out`,
     * attribution in report mode). Drill mode substitutes its default
     * chaos script when run.chaos is empty.
     */
    Options run;
};

/**
 * The CSV header `--csv` emits for @p mode: exactly one header row per
 * run. It is generated from the same column lists as every CSV row
 * (the mode's base columns, then one list per active tier), so a
 * header and its rows cannot drift apart. With no optional tier
 * active it is the mode's base columns alone. As soon as *any* tier is
 * active, machine modes carry the RAS, QoS and histogram tiers
 * together (zeros for the inactive ones), so the column set is stable
 * across configurations and mergeable across runs; the attribution
 * (always on in report mode) and tail tiers append after them. Pool
 * rows carry only the histogram, tail and (with @p attrib) fabric
 * tiers.
 */
std::string csvHeader(CliMode mode, bool ras, bool qos, bool hist,
                      bool attrib = false, bool tail = false);

/**
 * The CSV columns that identify what a row measured rather than how
 * fast (target, op, threads, block, ..., host, port, role), in key
 * order, taken from the modes' column lists: `memo diff` matches rows
 * on the ones its header carries.
 */
std::vector<std::string> csvIdentityColumns();

/**
 * Parse argv into a CliConfig.
 * @return std::nullopt plus an error string on bad input.
 */
std::optional<CliConfig> parseCli(const std::vector<std::string> &args,
                                  std::string &error);

/** Parse a size like "16K", "4M", "1G", "512" (bytes). */
std::optional<std::uint64_t> parseSize(const std::string &text);

/**
 * Parse a list/range spec: "8", "1,2,4", "1-32" (powers-of-two steps
 * plus endpoints for ranges).
 */
std::optional<std::vector<std::uint64_t>>
parseListSpec(const std::string &text);

/** Usage text. */
std::string cliUsage();

/** Entry point for the `memo` binary. */
int memoCliMain(int argc, char **argv);

} // namespace memo
} // namespace cxlmemo

#endif // CXLMEMO_MEMO_CLI_HH
