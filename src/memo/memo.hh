/**
 * @file
 * MEMO: the paper's microbenchmark suite (Sec. 4.1), reimplemented
 * over the simulated testbeds.
 *
 * Capabilities mirroring the paper's description:
 *  (1) allocate memory from different sources (local DDR5, the CXL
 *      CPU-less NUMA node, remote-socket DDR5),
 *  (2) launch N testing threads pinned to cores, with prefetching
 *      optionally enabled,
 *  (3) access memory with specific instruction types (AVX-512 load,
 *      store + clwb, non-temporal store, movdir64B) and patterns
 *      (sequential, random block, pointer chase with a configurable
 *      working-set size).
 *
 * Every entry point that takes a Target builds a fresh deterministic
 * Machine, so results are reproducible and experiments cannot
 * contaminate each other; the Machine& forms run on a caller's machine
 * instead (a swapped CXL device, a toggled NUMA knob). All of them
 * measure through the harness at the end of this header.
 */

#ifndef CXLMEMO_MEMO_MEMO_HH
#define CXLMEMO_MEMO_MEMO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "sim/stats.hh"
#include "system/cluster.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace memo
{

/** Memory source under test (paper's DDR5-L8 / DDR5-R1 / CXL). */
enum class Target
{
    Ddr5Local,  //!< 8-channel local DDR5-4800 ("DDR5-L8")
    Ddr5Remote, //!< 1-channel remote-socket DDR5-4800 ("DDR5-R1")
    Cxl,        //!< Agilex-I CXL memory ("CXL")
};

const char *targetName(Target t);

/**
 * Knobs common to all MEMO experiments: the MachineOptions every
 * experiment Machine is built from (prefetchEnabled, faults, QoS,
 * chaos, watchdog, observability, engine and the device overrides),
 * plus how the experiment drives it.
 */
struct Options : MachineOptions
{
    std::uint64_t seed = 42;   //!< workload RNG seed
    double warmupUs = 30.0;    //!< pipeline warm-up before measuring
    double measureUs = 150.0;  //!< measurement window

    /**
     * Invoked on each experiment Machine after its run completes and
     * before the machine is destroyed -- the collection point for
     * RAS/QoS counters, trace events, the metrics timeline and
     * latency histograms.
     * Sweep runners call it from the worker that ran the point, so a
     * shared hook must either be thread-safe or (as the CLI does)
     * each point gets its own Options copy with a per-point hook.
     */
    std::function<void(Machine &)> onMachineDone;
};

/** Results of the instruction-latency probes (Fig. 2, bars). */
struct LatencyResult
{
    double loadNs = 0.0;    //!< flush + mfence + AVX-512 load
    double storeWbNs = 0.0; //!< temporal store + clwb (RFO path)
    double ntStoreNs = 0.0; //!< non-temporal store + sfence
    double ptrChaseNs = 0.0;//!< sequential pointer chase in 1 GB
};

/**
 * Run the Fig. 2 latency probes against @p target.
 * Prefetching is disabled regardless of @p opts (as in the paper).
 */
LatencyResult runLatency(Target target, const Options &opts = {});

/** runLatency() on @p m, probing @p target's node; the machine's own
 *  prefetch setting applies. */
LatencyResult runLatency(Machine &m, Target target,
                         const Options &opts = {});

/**
 * Average pointer-chase latency for each working-set size, after a
 * warm-up sweep brings the set into the cache hierarchy (Fig. 2,
 * WSS sweep: the curve crossing L1/L2/LLC/DRAM).
 */
std::vector<double> runPtrChaseWssSweep(Target target,
                                        const std::vector<std::uint64_t>
                                            &wssBytes,
                                        const Options &opts = {});

/**
 * Aggregate sequential-access bandwidth (GB/s) with @p threads
 * threads issuing @p kind ops (Fig. 3).
 */
double runSeqBandwidth(Target target, MemOp::Kind kind,
                       std::uint32_t threads, const Options &opts = {});

/** runSeqBandwidth() on @p m, streaming over @p target's node. */
double runSeqBandwidth(Machine &m, Target target, MemOp::Kind kind,
                       std::uint32_t threads, const Options &opts = {});

/**
 * Aggregate random-block bandwidth (GB/s): each thread touches
 * random @p blockBytes blocks in its private region; NT-store blocks
 * are fenced (Fig. 5).
 */
double runRandBandwidth(Target target, MemOp::Kind kind,
                        std::uint32_t threads, std::uint64_t blockBytes,
                        const Options &opts = {});

/** Loaded-latency companion (not a paper figure; used by tests). */
double runLoadedLatency(Target target, std::uint32_t threads,
                        const Options &opts = {});

/** Latency distribution of a loaded dependent-load probe. */
struct LoadedLatencyDist
{
    double avgNs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    RasStats ras; //!< machine RAS counters (zero when faults are off)
    QosStats qos; //!< overload counters (zero when QoS is off)
};

/**
 * Loaded-latency probe with a tail-visible distribution: windows of
 * dependent loads at random lines are timed individually, so a rare
 * recovery event (link retry, host timeout, stall episode) lands in
 * specific windows and surfaces as p99 rather than vanishing into one
 * long-run average. This is the measurement bench_fault_tail sweeps.
 */
LoadedLatencyDist runLoadedLatencyDist(Target target,
                                       std::uint32_t threads,
                                       const Options &opts = {});

/* -------------------------- overload ----------------------------- */

/** One point of the overload sweep (bench_overload). */
struct OverloadResult
{
    double offeredGBps = 0.0;  //!< unthrottled nt-store issue capacity
    double achievedGBps = 0.0; //!< measured aggregate flood bandwidth
    double probeP99Ns = 0.0;   //!< p99 of a concurrent dependent-load probe
    QosStats qos;              //!< overload counters (zero when QoS off)
    bool watchdogTripped = false;
};

/**
 * Flood the CXL device with @p threads endless non-temporal store
 * streams (the paper's Sec. 4.3.2 overload), measure the achieved
 * aggregate bandwidth over the measurement window, then sample a
 * dependent-load probe's latency distribution under the standing
 * flood. Offered load is the unthrottled issue capacity
 * (threads x line / ntIssueCost), so offered/achieved quantifies the
 * overload cliff -- and what a QoS policy recovers of it.
 */
OverloadResult runOverloadPoint(std::uint32_t threads,
                                const Options &opts = {});

/* ---------------------------- chaos drill ------------------------ */

/** Outcome of one failure drill (memo --mode drill). */
struct DrillResult
{
    /* throughput across the lifecycle */
    double healthyGBps = 0.0;   //!< before the first failure
    double degradedGBps = 0.0;  //!< link down + degraded-width window
    double recoveredGBps = 0.0; //!< after re-add, full width restored

    /* time-to-detect / time-to-repair (ns; 0 = event never happened) */
    double linkDetectNs = 0.0; //!< outage begin -> first blocked msg
    double linkMttrNs = 0.0;   //!< outage begin -> back at full width
    double removeDetectNs = 0.0; //!< removal -> first aborted request
    double removeMttrNs = 0.0;   //!< removal -> re-add

    /* containment accounting */
    std::uint64_t dataAtRiskBytes = 0; //!< CXL-resident bytes at removal
    std::uint64_t evacuatedBytes = 0;  //!< moved off via DSA by the drill
    bool invariantOk = false; //!< injected == consumed+delivered+contained
    bool watchdogTripped = false;

    RasStats ras;     //!< merged machine RAS counters
    ChaosStats chaos; //!< merged failure-lifecycle counters
};

/**
 * Run a deterministic failure drill against the CXL device: a load
 * flood rides through a scripted link down/retrain, a device
 * hot-remove/re-add and poison-driven page offlining, and the result
 * reports degraded-mode throughput, time-to-detect, MTTR and
 * data-at-risk. When @p opts carries no chaos schedule, the default
 * drill script (link down at 60 us, remove at 100 us, re-add at
 * 130 us, page offlining armed) plus a poison fault stream is used.
 */
DrillResult runDrill(std::uint32_t threads, const Options &opts = {});

/* ------------------------- pooled cluster ------------------------ */

/** Outcome of one pooled-cluster scenario (memo --mode pool). */
struct PoolResult
{
    ClusterResult cluster;

    /** Host the blast-radius invariant protects (-1: every host is a
     *  disturbance target, nothing to compare). */
    std::int32_t victim = -1;

    /**
     * The blast-radius invariant: the victim host's digest (delivered
     * data, poison ledger, status counts) from the full disturbed run
     * is byte-identical to a victim-only baseline run. Vacuously true
     * when the spec carries no disturbance or no victim exists.
     */
    bool isolationOk = true;
};

/**
 * Run the pooled-cluster scenario described by @p spec. When the
 * spec carries a disturbance (aggressor / crash / poison / port-down)
 * and a victim host exists, a second victim-only baseline cluster
 * runs (in parallel when @p jobs > 1, results merged positionally)
 * and the victim digests are compared for the blast-radius invariant.
 * Each cluster runs to quiescence (every op completes or aborts, all
 * fencing and scrubbing settles); opts.simThreads and
 * opts.watchdogInterval carry over (the workload seed lives in the
 * spec).
 */
PoolResult runPool(const PoolSpec &spec, const Options &opts = {},
                   unsigned jobs = 1);

/* ------------------------- data movement ------------------------- *
 * Fig. 4: moving data between local DDR5 ("D") and CXL memory ("C").
 * ------------------------------------------------------------------ */

/** Source-to-destination placement of a copy. */
enum class CopyPath
{
    D2D, //!< local DDR5 -> local DDR5
    D2C, //!< local DDR5 -> CXL
    C2D, //!< CXL -> local DDR5
    C2C, //!< CXL -> CXL
};

const char *copyPathName(CopyPath p);

/** How the copy is performed (Fig. 4b, single thread). */
enum class CopyMethod
{
    Memcpy,   //!< temporal load+store through the caches
    Movdir64, //!< cache-bypassing 64 B copies on the core
    DsaSync,  //!< DSA, wait for each submission
    DsaAsync, //!< DSA, keep the WQ full
};

const char *copyMethodName(CopyMethod m);

/**
 * movdir64B copy bandwidth with @p threads threads (Fig. 4a).
 */
double runMovdirBandwidth(CopyPath path, std::uint32_t threads,
                          const Options &opts = {});

/**
 * Single-thread copy bandwidth for @p method (Fig. 4b).
 * @param batch descriptors per DSA batch submission (1 = no batching);
 *              ignored for Memcpy / Movdir64.
 * @param blockBytes bytes per copy operation / DSA descriptor.
 */
double runCopyBandwidth(CopyPath path, CopyMethod method,
                        std::uint32_t batch = 1,
                        std::uint64_t blockBytes = 4 * kiB,
                        const Options &opts = {});

/* --------------------------------------------------------------- *
 * Shared helpers (used by the data-movement benchmarks and tests). *
 * --------------------------------------------------------------- */

/** The testbed whose machine hosts @p target. */
Testbed testbedFor(Target target);

/** Build the machine that hosts @p target from every MachineOptions
 *  field of @p opts; @p prefetch overrides opts.prefetchEnabled for
 *  probes that always run with prefetching off. */
std::unique_ptr<Machine> makeMachine(Target target, const Options &opts,
                                     bool prefetch);

/** The NUMA node id of @p target on @p machine. */
NodeId targetNode(Machine &m, Target target);

/* ---------------------- measurement harness ---------------------- *
 * MEMO's one procedure (Sec. 4.1): pin N threads issuing one kind of
 * access, warm up, then read a counter over a window -- or time a
 * probe while the flood keeps running.
 * ------------------------------------------------------------------ */

/** A measurement window [from, to] in simulated time. */
struct Window
{
    Tick from = 0;
    Tick to = 0;

    /** @p opts' window: warmupUs of warm-up, then measureUs. */
    static Window of(const Options &opts);
};

/**
 * Drive @p m to @p w.from, then to @p w.to.
 * @return how much @p count grew in between.
 */
std::uint64_t countOver(Machine &m, Window w,
                        const std::function<std::uint64_t()> &count);

/**
 * @p threads streams built by @p make(t), pinned to cores
 * 0..threads-1 and started at the machine's current tick. They keep
 * running whenever the machine is driven: by countOver(), by a probe
 * or by the caller.
 */
class Flood
{
  public:
    using MakeStream =
        std::function<std::unique_ptr<AccessStream>(std::uint32_t)>;

    Flood(Machine &m, std::uint32_t threads, const MakeStream &make);

    /** @p field summed over the flood's threads. */
    std::uint64_t sum(std::uint64_t ThreadStats::*field) const;

    /** GB/s the flood moved over @p w: bytes read plus written. */
    double gbps(Window w);

    /** GB/s of @p field alone over @p w. */
    double gbps(Window w, std::uint64_t ThreadStats::*field);

  private:
    Machine &m_;
    std::vector<std::unique_ptr<HwThread>> threads_;
};

/**
 * Run @p stream to completion on @p core of an otherwise idle @p m:
 * the machine runs until its queue drains.
 * @return (startTick, endTick).
 */
std::pair<Tick, Tick> runStream(Machine &m, std::uint16_t core,
                                std::unique_ptr<AccessStream> stream);

/**
 * Run @p stream to completion on @p core while a flood keeps the
 * machine busy, in 50 us steps; panics if the queue drains first.
 * @return (startTick, endTick).
 */
std::pair<Tick, Tick> probeStream(Machine &m, std::uint16_t core,
                                  std::unique_ptr<AccessStream> stream);

/**
 * @p windows probeStream() runs of @p opsPerWindow dependent loads at
 * random lines of the first @p bytes of @p buf (addresses drawn from
 * @p seed). One window's mean latency per load is one sample, so a
 * rare recovery or overload episode shows up as tail latency instead
 * of averaging away over the whole run.
 */
SampleSeries probeWindows(Machine &m, std::uint16_t core,
                          const NumaBuffer &buf, std::uint64_t bytes,
                          int windows, int opsPerWindow,
                          std::uint64_t seed);

} // namespace memo
} // namespace cxlmemo

#endif // CXLMEMO_MEMO_MEMO_HH
