/**
 * @file
 * End-to-end benchmark harness: the pieces shared by the workloads,
 * the layer kernels and main.cc.
 *
 * The simulator is deterministic, so every simulated statistic repeats
 * exactly for a given seed. The harness therefore measures *host* time
 * and checks, through a digest over the simulated results, that those
 * results did not change. It drives the simulator only through public
 * entry points (memo::run*, memo::makeMachine, Cluster, component
 * constructors and stats accessors).
 */

#ifndef CXLMEMO_BENCH_E2E_HARNESS_HH
#define CXLMEMO_BENCH_E2E_HARNESS_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "memo/memo.hh"

namespace e2e
{

using cxlmemo::Machine;
using cxlmemo::Tick;

/** Host seconds since the first call (steady clock). */
double nowS();

/** FNV-1a over 64-bit words: the simulated-output digest. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Per-layer counters, read through public accessors after a run. The
 * engine-internal counts (events, windows, posts) are reported but
 * kept out of the digest: a change that only speeds up the engine may
 * legitimately move them.
 */
struct Counters
{
    /* engine internals */
    std::uint64_t events = 0; //!< classic engine only
    std::uint64_t windows = 0;
    std::uint64_t crossPosts = 0;
    std::uint64_t clampedPosts = 0;

    /* simulated statistics */
    std::uint64_t l1Accesses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramReqs = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t cxlReqs = 0;
    std::uint64_t cxlRowHits = 0;
    std::uint64_t cxlRowMisses = 0;
    std::uint64_t cxlStallTicks = 0;
    std::uint64_t upiBytes = 0;
    std::uint64_t swReqs = 0;
    std::uint64_t swCreditStallTicks = 0;

    void add(const Counters &o);

    /** Fold the simulated statistics (not the engine internals). */
    void foldInto(Digest &d) const;
};

/** Counters of @p m at the end of its run. */
Counters readMachine(Machine &m);

/** One host-time span, kept in memory until the pass ends. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;     //!< shared by a point and its children
    std::uint64_t parent = 0; //!< 0 = root
    double startS = 0.0;
    double endS = 0.0;
    int tid = 1;
};

/** In-memory span log; a disabled log records nothing. */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    void
    add(std::string name, std::uint64_t id, std::uint64_t parent,
        double startS, double endS, int tid = 1)
    {
        if (on_)
            spans_.push_back(
                {std::move(name), id, parent, startS, endS, tid});
    }

    /** Chrome trace-event JSON (one "X" event per span, in us). */
    std::string chromeJson() const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** A paper-shape check: the paper's value (NaN when the paper gives
 *  none), the measured one, pass. */
struct Check
{
    std::string name;
    double paper = 0.0;
    double measured = 0.0;
    bool ok = false;
};

/**
 * One pass over a workload's fixed list of operations. Workloads call
 * point() around every memo::/Cluster call; the pass accumulates host
 * time, simulated time, counters, the digest and the failure count.
 */
class Pass
{
  public:
    Pass(SpanLog &log, std::uint64_t workloadSpan);

    /**
     * Run one memo:: call. @p call receives @p opts with an
     * onMachineDone hook that reads the machine's counters and end
     * tick, and stamps the end of the point.run span.
     */
    template <typename Call>
    auto
    point(const std::string &label, cxlmemo::memo::Options opts,
          Call &&call)
    {
        const double start = nowS();
        double done = 0.0;
        Counters counters;
        Tick endTick = 0;
        opts.onMachineDone = [&](Machine &m) {
            counters.add(readMachine(m));
            endTick += m.eq().curTick();
            done = nowS();
        };
        auto result = call(opts);
        addPoint(label, start, done, counters, endTick);
        return result;
    }

    /** Record a point that was timed and read by the caller
     *  (Cluster runs, which have no onMachineDone hook). */
    void addPoint(const std::string &label, double startS, double doneS,
                  const Counters &c, Tick endTick);

    /** Account @p n operations, @p failed of them failed. */
    void
    ops(std::uint32_t n, std::uint32_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed;
    }

    /** A paper-shape check; a failed check counts as a failed op. */
    void check(const std::string &name, double paper, double measured,
               bool ok);

    /** Note a failed invariant (reported with the result). */
    void fail(const std::string &why);

    Digest &digest() { return digest_; }

    /** Close the pass: wall time from construction to now. */
    void end();

    double wallS() const { return wallS_; }
    double simNs() const { return cxlmemo::nsFromTicks(simTicks_); }
    const Counters &counters() const { return counters_; }
    std::uint32_t attempted() const { return attempted_; }
    std::uint32_t failed() const { return failed_; }
    const std::vector<Check> &checks() const { return checks_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    SpanLog &log_;
    std::uint64_t workloadSpan_;
    std::uint64_t nextPoint_ = 0;
    double startS_;
    double wallS_ = 0.0;
    Tick simTicks_ = 0;
    Counters counters_;
    Digest digest_;
    std::uint32_t attempted_ = 0;
    std::uint32_t failed_ = 0;
    std::vector<Check> checks_;
    std::vector<std::string> failures_;
};

/** Inputs of one pass. */
struct PassInputs
{
    std::uint64_t seed = 42;
    /** Length multiplier (measurement windows, op counts); 1 = full. */
    double scale = 1.0;
    /** pool16-obs: observability layers armed (false = dark rerun). */
    bool obsArmed = true;
};

/** One simulator object the workload builds, for the set-up metric. */
struct BuildSpec
{
    std::string label;
    std::uint32_t perPass = 0; //!< how many the pass builds
    bool cluster = false;      //!< Cluster (else Machine)
    std::function<void()> buildAndDestroy;
};

struct Workload
{
    const char *name;
    /** Arms observability layers that PassInputs::obsArmed can turn
     *  off (the traced run then also measures their overhead). */
    bool observability;
    std::function<void(Pass &, const PassInputs &)> run;
    std::function<std::vector<BuildSpec>(const PassInputs &)> builds;
};

/** The four benchmark workloads, in run order. */
const std::vector<Workload> &workloads();

/** Per-layer host cost measured in isolation (ns per layer op). */
struct KernelResults
{
    double queueNsPerEvent = 0.0;
    double parallelNsPerWindowT4 = 0.0;
    double parallelSpeedupT4 = 0.0;
    double cacheNsPerLoad = 0.0;
    double memNsPerReq = 0.0;
    double cxlNsPerReq = 0.0;
    double switchNsPerOp = 0.0;
};

/** Run every layer kernel, recording kernel.<layer> spans; @p scale
 *  shortens them like the workloads (floored at 1/10). */
KernelResults runKernels(SpanLog &log, std::uint64_t seed, double scale);

} // namespace e2e

#endif // CXLMEMO_BENCH_E2E_HARNESS_HH
