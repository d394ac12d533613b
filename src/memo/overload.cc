/**
 * @file
 * Overload sweep point: saturating non-temporal store flood against
 * the CXL device (the paper's Sec. 4.3.2 collapse scenario), measured
 * together with a dependent-load probe so both throughput and tail
 * latency of the overloaded device are visible. bench_overload sweeps
 * this with and without QoS policies.
 */

#include "memo/memo.hh"

#include <memory>

#include "cpu/streams.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

namespace
{

constexpr std::uint64_t regionBytes = 128 * miB;
constexpr std::uint64_t endlessBytes = std::uint64_t(1) << 42;

} // namespace

OverloadResult
runOverloadPoint(std::uint32_t threads, const Options &opts)
{
    CXLMEMO_ASSERT(threads >= 1, "need at least one flood thread");
    auto m = makeMachine(Target::Cxl, opts, opts.prefetchEnabled);
    const MemPolicy policy = MemPolicy::membind(m->cxlNode());
    NumaBuffer flood_buf =
        m->numa().alloc(std::uint64_t(threads) * regionBytes, policy);
    NumaBuffer probe_buf = m->numa().alloc(regionBytes, policy);

    Flood flood(*m, threads, [&](std::uint32_t t) {
        return std::make_unique<SequentialStream>(
            flood_buf, std::uint64_t(t) * regionBytes, regionBytes,
            endlessBytes, MemOp::Kind::NtStore);
    });

    OverloadResult res;
    res.achievedGBps =
        flood.gbps(Window::of(opts), &ThreadStats::bytesWritten);
    // Offered load = what the cores would inject with nothing pushing
    // back: one line per WC-buffer eviction slot.
    res.offeredGBps = static_cast<double>(threads)
                      * gbPerSec(cachelineBytes,
                                 m->coreParams().ntIssueCost);

    // Dependent-load probe under the standing flood. The probe shares
    // the last core when the flood occupies every core; its loads are
    // not throttle-paced, only queued behind the flood at the device.
    const auto core = static_cast<std::uint16_t>(
        std::min(threads, m->numCores() - 1));
    res.probeP99Ns = probeWindows(*m, core, probe_buf, regionBytes, 100,
                                  32, opts.seed + 0x0ad1)
                         .p99();

    if (auto qs = m->qosStats())
        res.qos = *qs;
    else
        res.qos.ledgerOk = m->cxlDev().creditLedgerOk();
    res.watchdogTripped = m->watchdog() && m->watchdog()->tripped();
    return res;
}

} // namespace memo
} // namespace cxlmemo
