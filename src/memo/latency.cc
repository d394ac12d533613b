#include "memo/memo.hh"

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

/** Addresses probed per instruction; spread across rows/banks. */
constexpr int probeReps = 64;
constexpr std::uint64_t probeStride = 8 * kiB + cachelineBytes;

/** Duration of running @p ops as one stream on core 0. */
Tick
timeOps(Machine &m, std::vector<MemOp> ops)
{
    auto [start, end] =
        runStream(m, 0, std::make_unique<ListStream>(std::move(ops)));
    return end - start;
}

double
probeLoad(Machine &m, const NumaBuffer &buf)
{
    Tick total = 0;
    for (int r = 0; r < probeReps; ++r) {
        const Addr a = buf.translate(r * probeStride);
        // Warm the line, flush it, fence -- then time a single load.
        timeOps(m, {{MemOp::Kind::Load, a, 0},
                    {MemOp::Kind::Mfence, 0, 0},
                    {MemOp::Kind::Flush, a, 0},
                    {MemOp::Kind::Mfence, 0, 0}});
        total += timeOps(m, {{MemOp::Kind::DependentLoad, a, 0}});
    }
    return nsFromTicks(total) / probeReps;
}

double
probeStoreWb(Machine &m, const NumaBuffer &buf)
{
    Tick total = 0;
    for (int r = 0; r < probeReps; ++r) {
        const Addr a = buf.translate(r * probeStride);
        timeOps(m, {{MemOp::Kind::Load, a, 0},
                    {MemOp::Kind::Mfence, 0, 0},
                    {MemOp::Kind::Flush, a, 0},
                    {MemOp::Kind::Mfence, 0, 0}});
        // Temporal store (RFO on the flushed line) + clwb + fence.
        total += timeOps(m, {{MemOp::Kind::Store, a, 0},
                             {MemOp::Kind::Mfence, 0, 0},
                             {MemOp::Kind::Clwb, a, 0},
                             {MemOp::Kind::Sfence, 0, 0}});
    }
    return nsFromTicks(total) / probeReps;
}

double
probeNtStore(Machine &m, const NumaBuffer &buf)
{
    Tick total = 0;
    for (int r = 0; r < probeReps; ++r) {
        const Addr a = buf.translate(r * probeStride);
        timeOps(m, {{MemOp::Kind::Flush, a, 0},
                    {MemOp::Kind::Mfence, 0, 0}});
        total += timeOps(m, {{MemOp::Kind::NtStore, a, 0},
                             {MemOp::Kind::Sfence, 0, 0}});
    }
    return nsFromTicks(total) / probeReps;
}

double
chaseAverageNs(Machine &m, const NumaBuffer &buf, std::uint64_t wss,
               std::uint64_t seed, bool warmup)
{
    const std::uint64_t lines = wss / cachelineBytes;
    const std::uint64_t accesses =
        std::clamp<std::uint64_t>(lines * 2, 20'000, 150'000);
    if (warmup) {
        // MEMO's warm-up run: sweep the working set into the caches.
        runStream(m, 0,
                  std::make_unique<SequentialStream>(buf, 0, wss, wss,
                                                     MemOp::Kind::Load));
    }
    auto chase = std::make_unique<PointerChaseStream>(buf, wss, accesses,
                                                      /*warmup=*/false,
                                                      seed);
    auto [start, end] = runStream(m, 0, std::move(chase));
    return nsFromTicks(end - start) / static_cast<double>(accesses);
}

} // namespace

LatencyResult
runLatency(Target target, const Options &opts)
{
    // The paper disables prefetching at all levels for latency tests.
    auto m = makeMachine(target, opts, /*prefetch=*/false);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    const std::uint64_t chase_space = 512 * miB;
    NumaBuffer buf = m->numa().alloc(chase_space, policy);

    LatencyResult res;
    res.loadNs = probeLoad(*m, buf);
    res.storeWbNs = probeStoreWb(*m, buf);
    res.ntStoreNs = probeNtStore(*m, buf);
    // 1 GB chase in the paper; the working set dwarfs the LLC either
    // way, so capacity misses dominate identically at 512 MiB (warm-up
    // is pointless at this size and skipped).
    m->caches().flushAllCaches();
    res.ptrChaseNs = chaseAverageNs(*m, buf, chase_space, opts.seed,
                                    /*warmup=*/false);
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return res;
}

std::vector<double>
runPtrChaseWssSweep(Target target,
                    const std::vector<std::uint64_t> &wssBytes,
                    const Options &opts)
{
    auto m = makeMachine(target, opts, /*prefetch=*/false);
    const MemPolicy policy = MemPolicy::membind(targetNode(*m, target));
    std::uint64_t max_wss = 0;
    for (std::uint64_t w : wssBytes)
        max_wss = std::max(max_wss, w);
    CXLMEMO_ASSERT(max_wss > 0, "empty WSS sweep");
    NumaBuffer buf = m->numa().alloc(max_wss, policy);

    const std::uint64_t llc = m->caches().params().llc.sizeBytes;
    std::vector<double> out;
    out.reserve(wssBytes.size());
    for (std::uint64_t wss : wssBytes) {
        m->caches().flushAllCaches();
        // The machine is shared across sweep points: clear device and
        // controller counters so each point reports its own traffic
        // (stall counts and high-water marks otherwise accumulate).
        m->resetStats();
        // Warm the set when it could plausibly be cache-resident;
        // beyond 2x LLC the warm-up cannot survive and is skipped.
        const bool warm = wss <= 2 * llc;
        out.push_back(chaseAverageNs(*m, buf, wss, opts.seed, warm));
    }
    if (opts.onMachineDone)
        opts.onMachineDone(*m);
    return out;
}

} // namespace memo
} // namespace cxlmemo
