/**
 * @file
 * `memo --mode pool`: multi-host pooled-memory scenario runner.
 *
 * Runs the Cluster described by a PoolSpec and, when the spec
 * disturbs any host, a second *victim-only baseline* cluster: the
 * same spec with every disturbance cleared and only the victim host
 * issuing work. The blast-radius invariant demands the victim's
 * functional digest be byte-identical between the two runs -- the
 * aggressor may change the victim's latency, never its data.
 *
 * The two clusters are independent sweep points, so `--jobs 2` runs
 * them concurrently and the merge is positional (exact/associative,
 * like every other sweep in the suite).
 */

#include "memo/memo.hh"

#include "sim/sweep.hh"

namespace cxlmemo
{
namespace memo
{

PoolResult
runPool(const PoolSpec &spec, const Options &opts, unsigned jobs)
{
    spec.validate();

    Cluster::Options co;
    co.simThreads = opts.simThreads;
    co.watchdogInterval = opts.watchdogInterval;

    PoolResult res;
    res.victim = spec.victimHost();
    const bool baseline = spec.disturbed() && res.victim >= 0;

    const auto runOne = [&](std::size_t i) {
        if (i == 0) {
            // Observability instruments the disturbed run only; the
            // baseline exists to compare digests, which observability
            // never changes, so running it dark keeps it cheap.
            Cluster::Options po = co;
            po.obs = opts.obs;
            Cluster c(spec, po);
            ClusterResult r = c.run();
            // Serialize the trace here, after the timed run: run()
            // leaves ClusterResult::traceJson empty by contract.
            if (po.obs.traceSampleEvery > 0 || po.obs.tailK > 0)
                r.traceJson = c.traceJson();
            return r;
        }
        // Victim-only baseline: disturbances cleared, every other
        // host holds its (identical) window grant but issues nothing.
        Cluster::Options bo = co;
        bo.soloHost = res.victim;
        Cluster c(spec.isolationBaseline(), bo);
        return c.run();
    };

    std::vector<ClusterResult> runs =
        SweepRunner(jobs).map(baseline ? 2 : 1, runOne);
    res.cluster = std::move(runs[0]);

    if (baseline) {
        const auto &full = res.cluster.hosts.at(
            static_cast<std::size_t>(res.victim));
        const auto &solo = runs[1].hosts.at(
            static_cast<std::size_t>(res.victim));
        res.isolationOk = full.digest == solo.digest;
    }
    return res;
}

} // namespace memo
} // namespace cxlmemo
