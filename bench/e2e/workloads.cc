/**
 * @file
 * The four benchmark workloads. Each one stresses a different set of
 * simulator layers and bypasses others (README.md has the map); each
 * pass runs a fixed list of operations, checks its invariants and the
 * paper shapes, and folds every simulated result into the digest.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "harness.hh"

namespace e2e
{

using namespace cxlmemo;
using memo::Target;

namespace
{

constexpr std::uint32_t parallelWorkers = 4;

/** Sweep thread counts of the fig. 3/5 CXL curves. */
const std::vector<std::uint32_t> streamThreads = {1, 2, 4, 8, 16, 32};

memo::Options
baseOptions(const PassInputs &in, double measureUs, std::uint32_t threads)
{
    memo::Options o;
    o.seed = in.seed;
    o.warmupUs = 30.0;
    o.measureUs = measureUs * in.scale;
    o.simThreads = threads;
    return o;
}

/** A bandwidth point is valid when it is finite and positive. */
void
bandwidthOp(Pass &pass, const std::string &label, double gbps)
{
    pass.digest().add(gbps);
    const bool ok = std::isfinite(gbps) && gbps > 0.0;
    pass.ops(1, ok ? 0 : 1);
    if (!ok)
        pass.fail(label + ": bandwidth " + std::to_string(gbps));
}

std::size_t
argmax(const std::vector<double> &v)
{
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

BuildSpec
machineBuild(const std::string &label, std::uint32_t perPass,
             Target target, const memo::Options &opts, bool prefetch)
{
    return {label, perPass, false, [target, opts, prefetch] {
                memo::makeMachine(target, opts, prefetch);
            }};
}

/* ------------------------------ cxl-stream ------------------------ */

constexpr double cxlStreamMeasureUs = 500.0;

void
runCxlStream(Pass &pass, const PassInputs &in)
{
    const memo::Options opts = baseOptions(in, cxlStreamMeasureUs, 0);
    std::vector<double> seqLoad, seqNt;
    for (const auto kind : {MemOp::Kind::Load, MemOp::Kind::NtStore}) {
        const bool load = kind == MemOp::Kind::Load;
        for (std::uint32_t t : streamThreads) {
            const std::string label =
                std::string(load ? "seq-load" : "seq-nt") + " t="
                + std::to_string(t);
            const double gbps = pass.point(
                label, opts, [&](const memo::Options &o) {
                    return memo::runSeqBandwidth(Target::Cxl, kind, t, o);
                });
            bandwidthOp(pass, label, gbps);
            (load ? seqLoad : seqNt).push_back(gbps);
        }
    }
    for (std::uint32_t t : streamThreads) {
        const std::string label = "rand-nt-4k t=" + std::to_string(t);
        const double gbps =
            pass.point(label, opts, [&](const memo::Options &o) {
                return memo::runRandBandwidth(
                    Target::Cxl, MemOp::Kind::NtStore, t, 4 * kiB, o);
            });
        bandwidthOp(pass, label, gbps);
    }

    const std::size_t loadPeak = argmax(seqLoad);
    pass.check("cxl-load-peak-threads", 8.0,
               streamThreads[loadPeak], streamThreads[loadPeak] == 8);
    const std::size_t ntPeak = argmax(seqNt);
    pass.check("cxl-nt-peak-threads<=4", 2.0, streamThreads[ntPeak],
               streamThreads[ntPeak] <= 4);
    // The paper shows the collapse but gives no 32-thread value.
    pass.check("cxl-nt-32t/peak<1", std::nan(""),
               seqNt.back() / seqNt[ntPeak], seqNt.back() < seqNt[ntPeak]);
}

std::vector<BuildSpec>
cxlStreamBuilds(const PassInputs &in)
{
    return {machineBuild("machine.cxl.classic", 18, Target::Cxl,
                         baseOptions(in, cxlStreamMeasureUs, 0), false)};
}

/* ------------------------------- fig3-st4 ------------------------- */

constexpr double fig3MeasureUs = 150.0;

void
runFig3St4(Pass &pass, const PassInputs &in)
{
    const memo::Options opts =
        baseOptions(in, fig3MeasureUs, parallelWorkers);
    const std::pair<Target, std::vector<std::uint32_t>> points[] = {
        {Target::Ddr5Local, {4, 16, 32}},
        {Target::Cxl, {8, 32}},
    };
    double ddr5At32 = 0.0;
    for (const auto &[target, threads] : points) {
        for (std::uint32_t t : threads) {
            const std::string label = std::string(memo::targetName(target))
                                      + " load t=" + std::to_string(t);
            const double gbps =
                pass.point(label, opts, [&](const memo::Options &o) {
                    return memo::runSeqBandwidth(target, MemOp::Kind::Load,
                                                 t, o);
                });
            bandwidthOp(pass, label, gbps);
            if (target == Target::Ddr5Local && t == 32)
                ddr5At32 = gbps;
        }
    }
    pass.check("ddr5-l8-load-32t-GBps>=200", 221.0, ddr5At32,
               ddr5At32 >= 200.0);
}

std::vector<BuildSpec>
fig3St4Builds(const PassInputs &in)
{
    return {machineBuild("machine.single.st4", 5, Target::Cxl,
                         baseOptions(in, fig3MeasureUs, parallelWorkers),
                         false)};
}

/* ----------------------------- chase-latency ---------------------- */

std::vector<std::uint64_t>
chaseSizes(double scale)
{
    // 32 KiB .. 512 MiB in 4x steps (8 sizes): L1, L2, LLC and DRAM
    // plateaus. A shortened run keeps the small, cheap sets.
    const auto count = static_cast<std::size_t>(
        std::clamp(std::lround(8 * std::sqrt(scale)), 3L, 8L));
    std::vector<std::uint64_t> sizes;
    for (std::size_t i = 0; i < count; ++i)
        sizes.push_back((32 * kiB) << (2 * i));
    return sizes;
}

void
runChaseLatency(Pass &pass, const PassInputs &in)
{
    const memo::Options opts = baseOptions(in, 0.0, 0);
    const std::vector<std::uint64_t> sizes = chaseSizes(in.scale);
    double chaseNs[3] = {};
    const Target targets[] = {Target::Ddr5Local, Target::Ddr5Remote,
                              Target::Cxl};
    for (int i = 0; i < 3; ++i) {
        const Target target = targets[i];
        const std::string name = memo::targetName(target);
        const std::vector<double> curve = pass.point(
            name + " wss-sweep", opts, [&](const memo::Options &o) {
                return memo::runPtrChaseWssSweep(target, sizes, o);
            });
        std::uint32_t bad = 0;
        for (double ns : curve) {
            pass.digest().add(ns);
            if (!std::isfinite(ns) || ns <= 0.0)
                ++bad;
        }
        if (curve.size() != sizes.size())
            bad = static_cast<std::uint32_t>(sizes.size());
        pass.ops(static_cast<std::uint32_t>(sizes.size()), bad);
        if (bad)
            pass.fail(name + ": " + std::to_string(bad)
                      + " invalid chase sizes");

        const memo::LatencyResult lat = pass.point(
            name + " latency", opts, [&](const memo::Options &o) {
                return memo::runLatency(target, o);
            });
        bool ok = true;
        for (double ns :
             {lat.loadNs, lat.storeWbNs, lat.ntStoreNs, lat.ptrChaseNs}) {
            pass.digest().add(ns);
            ok = ok && std::isfinite(ns) && ns > 0.0;
        }
        pass.ops(1, ok ? 0 : 1);
        if (!ok)
            pass.fail(name + ": invalid latency probe");
        chaseNs[i] = lat.ptrChaseNs;
    }
    const double vsL8 = chaseNs[2] / chaseNs[0];
    const double vsR1 = chaseNs[2] / chaseNs[1];
    pass.check("cxl/ddr5-l8-ptr-chase-ratio", 3.7, vsL8,
               vsL8 >= 3.0 && vsL8 <= 4.2);
    pass.check("cxl/ddr5-r1-ptr-chase-ratio", 2.2, vsR1,
               vsR1 >= 1.8 && vsR1 <= 2.6);
}

std::vector<BuildSpec>
chaseLatencyBuilds(const PassInputs &in)
{
    const memo::Options opts = baseOptions(in, 0.0, 0);
    return {machineBuild("machine.single.classic", 4, Target::Cxl, opts,
                         false),
            machineBuild("machine.dual.classic", 2, Target::Ddr5Remote,
                         opts, false)};
}

/* ------------------------------ pool16-obs ------------------------ */

PoolSpec
poolSpec(const PassInputs &in)
{
    PoolSpec s;
    s.hosts = 16;
    s.devices = 1;
    s.credits = 16;
    s.ops = static_cast<std::uint64_t>(std::llround(62500 * in.scale));
    s.aggressor = 3;
    s.crashHost = 1;
    s.crashAtNs = 40000.0;
    s.seed = in.seed;
    return s;
}

Cluster::Options
poolOptions(bool obsArmed)
{
    Cluster::Options o;
    o.simThreads = parallelWorkers;
    o.obs.attribution = obsArmed;
    o.obs.latencyHistograms = obsArmed;
    o.obs.tailK = obsArmed ? 8 : 0;
    return o;
}

Cluster::Options
baselineOptions(const PoolSpec &spec)
{
    Cluster::Options o;
    o.simThreads = parallelWorkers;
    o.soloHost = spec.victimHost();
    return o;
}

/** Run one (parallel-engine) cluster to quiescence as one point; the
 *  executor and switch counters are read before it is destroyed. */
ClusterResult
clusterPoint(Pass &pass, const std::string &label, const PoolSpec &spec,
             const Cluster::Options &opts)
{
    const double start = nowS();
    auto c = std::make_unique<Cluster>(spec, opts);
    ClusterResult r = c->run();
    Counters counters;
    const ParallelExecutor &ex = *c->executor();
    counters.windows = ex.windows();
    counters.crossPosts = ex.crossPosts();
    counters.clampedPosts = ex.clampedPosts();
    for (std::uint32_t p = 0; p < spec.hosts; ++p) {
        const SwitchPortStats &ps = c->fabric().portStats(p);
        counters.swReqs += ps.reqs;
        counters.swCreditStallTicks += ps.creditStallTicks;
    }
    const double done = nowS();
    c.reset();
    pass.addPoint(label, start, done, counters, r.endTick);
    return r;
}

void
foldHost(Digest &d, const HostReport &h)
{
    for (std::uint64_t v :
         {h.digest.ops, h.digest.reads, h.digest.writes, h.digest.bytes,
          h.digest.poisoned, h.digest.aborted, h.digest.valueHash,
          h.digest.ledgerHash, h.grantedBytes,
          static_cast<std::uint64_t>(h.fenced), h.readHist.count()})
        d.add(v);
    d.add(h.durationNs);
    d.add(h.readP99Ns);
}

void
runPool16Obs(Pass &pass, const PassInputs &in)
{
    const PoolSpec spec = poolSpec(in);
    const ClusterResult r =
        clusterPoint(pass, "pool", spec, poolOptions(in.obsArmed));
    const ClusterResult solo = clusterPoint(
        pass, "isolation-baseline", spec.isolationBaseline(),
        baselineOptions(spec));

    const auto victim = static_cast<std::size_t>(spec.victimHost());
    const bool isolationOk =
        r.hosts.size() == spec.hosts && solo.hosts.size() == spec.hosts
        && r.hosts[victim].digest == solo.hosts[victim].digest;
    std::vector<std::string> broken;
    if (!r.ledgerOk)
        broken.push_back("ledgerOk");
    if (!isolationOk)
        broken.push_back("isolationOk");
    if (r.watchdogTripped || solo.watchdogTripped)
        broken.push_back("watchdog trip");
    if (in.obsArmed && !r.fabric.decompositionExact())
        broken.push_back("fabric decomp_exact");
    if (in.obsArmed && !r.fabric.littleOk())
        broken.push_back("fabric little_ok");
    if (r.timeToFenceNs <= 0.0)
        broken.push_back("crashed host never fenced");
    for (const std::string &b : broken)
        pass.fail("pool: invariant " + b);

    std::uint32_t bad = 0;
    for (const HostReport &h : r.hosts) {
        foldHost(pass.digest(), h);
        const bool crashed =
            static_cast<std::int32_t>(h.host) == spec.crashHost;
        const bool ok = broken.empty()
                        && (crashed ? h.fenced && h.digest.ops < spec.ops
                                    : !h.fenced && h.digest.ops == spec.ops);
        if (!ok) {
            ++bad;
            if (broken.empty())
                pass.fail("pool: host" + std::to_string(h.host)
                          + " completed " + std::to_string(h.digest.ops)
                          + " ops");
        }
    }
    pass.ops(spec.hosts, bad);
    pass.digest().add(r.timeToFenceNs);
    pass.digest().add(r.quarantinedBytes);
    pass.digest().add(r.recoveredBytes);
    for (const HostReport &h : solo.hosts)
        foldHost(pass.digest(), h);

    // The verdict leads with "aggressor=host<N> " when it names one.
    const std::string prefix = "aggressor=host";
    const double named =
        r.verdict.compare(0, prefix.size(), prefix) == 0
            ? std::atof(r.verdict.c_str() + prefix.size())
            : -1.0;
    pass.check("pool-verdict-aggressor-host", 3.0, named, named == 3.0);
}

std::vector<BuildSpec>
pool16ObsBuilds(const PassInputs &in)
{
    const PoolSpec spec = poolSpec(in);
    const Cluster::Options armed = poolOptions(in.obsArmed);
    const PoolSpec baseline = spec.isolationBaseline();
    const Cluster::Options solo = baselineOptions(spec);
    return {
        {"cluster.pool16", 1, true, [spec, armed] { Cluster c(spec, armed); }},
        {"cluster.pool16.baseline", 1, true,
         [baseline, solo] { Cluster c(baseline, solo); }},
    };
}

} // namespace

const std::vector<Workload> &
workloads()
{
    // Why each workload exists is recorded in BENCHMARK.json and
    // README.md.
    static const std::vector<Workload> all = {
        {"cxl-stream", false, runCxlStream, cxlStreamBuilds},
        {"fig3-st4", false, runFig3St4, fig3St4Builds},
        {"chase-latency", false, runChaseLatency, chaseLatencyBuilds},
        {"pool16-obs", true, runPool16Obs, pool16ObsBuilds},
    };
    return all;
}

} // namespace e2e
