#include "memo/memo.hh"

#include <algorithm>
#include <memory>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

/** Per-thread private region for bandwidth streams. */
constexpr std::uint64_t regionBytes = 128 * miB;

/** Effectively-infinite stream length; measurement is window-based. */
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;

/**
 * Temporal-store streams reach steady state only once the LLC is full
 * of dirty lines (every fill then displaces a dirty victim and emits
 * a writeback). Prime that state directly instead of simulating the
 * multi-millisecond warm-up that would otherwise be required.
 */
void
maybePrimeForStores(Machine &m, MemOp::Kind kind, const MemPolicy &policy)
{
    if (kind != MemOp::Kind::Store)
        return;
    const std::uint64_t llc = m.caches().params().llc.sizeBytes;
    NumaBuffer prime = m.numa().alloc(llc + llc / 4, policy);
    m.caches().primeLlcDirty(prime, 0);
}

} // namespace

double
runSeqBandwidth(Machine &m, Target target, MemOp::Kind kind,
                std::uint32_t threads, const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one stream");
    const MemPolicy policy = MemPolicy::membind(targetNode(m, target));
    NumaBuffer buf =
        m.numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    maybePrimeForStores(m, kind, policy);

    Flood flood(m, threads, [&](std::uint32_t t) {
        return std::make_unique<SequentialStream>(
            buf, std::uint64_t(t) * regionBytes, regionBytes, endlessBytes,
            kind);
    });
    return flood.gbps(Window::of(opts));
}

double
runSeqBandwidth(Target target, MemOp::Kind kind, std::uint32_t threads,
                const Options &opts)
{
    auto m = makeMachine(target, opts, opts.prefetchEnabled);
    const double gbps = runSeqBandwidth(*m, target, kind, threads, opts);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

double
runRandBandwidth(Target target, MemOp::Kind kind, std::uint32_t threads,
                 std::uint64_t blockBytes, const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one stream");
    auto m = makeMachine(target, opts, opts.prefetchEnabled);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer buf =
        m->numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    maybePrimeForStores(*m, kind, policy);

    // MEMO issues an sfence after each NT-store block to enforce
    // block-level write order (Sec. 4.3.2).
    const bool fence = kind == MemOp::Kind::NtStore;
    Flood flood(*m, threads, [&](std::uint32_t t) {
        return std::make_unique<RandomBlockStream>(
            buf, std::uint64_t(t) * regionBytes, regionBytes, endlessBytes,
            blockBytes, kind, fence, opts.seed + 1000 + t);
    });
    const double gbps = flood.gbps(Window::of(opts));
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return gbps;
}

namespace
{

/**
 * Warm up threads-1 sequential-load streams on @p target's node, then
 * run @p probe(machine, probe region, core threads-1) beside them.
 */
template <typename Probe>
auto
underBackgroundLoad(Target target, std::uint32_t threads,
                    const Options &opts, Probe probe)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least the probe thread");
    auto m = makeMachine(target, opts, opts.prefetchEnabled);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    NumaBuffer probe_buf = m->numa().alloc(regionBytes, policy);
    NumaBuffer bg_buf = m->numa().alloc(
        std::uint64_t(std::max(threads, 2u) - 1) * regionBytes, policy);

    const Flood background(*m, threads - 1, [&](std::uint32_t t) {
        return std::make_unique<SequentialStream>(
            bg_buf, std::uint64_t(t) * regionBytes, regionBytes,
            endlessBytes, MemOp::Kind::Load);
    });
    m->runUntil(ticksFromUs(opts.warmupUs));

    auto result =
        probe(*m, probe_buf, static_cast<std::uint16_t>(threads - 1));
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return result;
}

} // namespace

double
runLoadedLatency(Target target, std::uint32_t threads,
                 const Options &opts)
{
    return underBackgroundLoad(
        target, threads, opts,
        [&](Machine &m, const NumaBuffer &buf, std::uint16_t core) {
            // A dependent-load probe in its own region.
            constexpr std::uint64_t accesses = 3000;
            const auto [start, end] = probeStream(
                m, core,
                std::make_unique<PointerChaseStream>(buf, regionBytes,
                                                     accesses, opts.seed));
            return nsFromTicks(end - start) / static_cast<double>(accesses);
        });
}

LoadedLatencyDist
runLoadedLatencyDist(Target target, std::uint32_t threads,
                     const Options &opts)
{
    return underBackgroundLoad(
        target, threads, opts,
        [&](Machine &m, const NumaBuffer &buf, std::uint16_t core) {
            // Address draws distinct from the workload streams' seeds.
            const SampleSeries window_ns = probeWindows(
                m, core, buf, regionBytes, 200, 64, opts.seed + 0x715a);
            LoadedLatencyDist dist;
            dist.avgNs = window_ns.mean();
            dist.p50Ns = window_ns.p50();
            dist.p99Ns = window_ns.p99();
            if (const RasStats *rs = m.rasStats())
                dist.ras = *rs;
            if (auto qs = m.qosStats())
                dist.qos = *qs;
            return dist;
        });
}

} // namespace memo
} // namespace cxlmemo
