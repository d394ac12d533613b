/**
 * @file
 * Floods, windows and probes: the harness memo's experiments, the
 * DLRM model and the benches measure through (see memo.hh).
 */

#include "memo/memo.hh"

#include "cpu/streams.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace cxlmemo
{
namespace memo
{

Window
Window::of(const Options &opts)
{
    const Tick from = ticksFromUs(opts.warmupUs);
    return {from, from + ticksFromUs(opts.measureUs)};
}

std::uint64_t
countOver(Machine &m, Window w, const std::function<std::uint64_t()> &count)
{
    m.runUntil(w.from);
    const std::uint64_t before = count();
    m.runUntil(w.to);
    return count() - before;
}

Flood::Flood(Machine &m, std::uint32_t threads, const MakeStream &make)
    : m_(m)
{
    CXLMEMO_ASSERT(threads <= m.numCores(), "thread count %u out of range",
                   threads);
    threads_.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        threads_.push_back(m.makeThread(static_cast<std::uint16_t>(t)));
        threads_.back()->start(make(t), m.eq().curTick(), nullptr);
    }
}

std::uint64_t
Flood::sum(std::uint64_t ThreadStats::*field) const
{
    std::uint64_t total = 0;
    for (const auto &t : threads_)
        total += t->stats().*field;
    return total;
}

double
Flood::gbps(Window w)
{
    return gbPerSec(countOver(m_, w, [this] {
                        return sum(&ThreadStats::bytesRead)
                               + sum(&ThreadStats::bytesWritten);
                    }),
                    w.to - w.from);
}

double
Flood::gbps(Window w, std::uint64_t ThreadStats::*field)
{
    return gbPerSec(countOver(m_, w, [&] { return sum(field); }),
                    w.to - w.from);
}

std::pair<Tick, Tick>
runStream(Machine &m, std::uint16_t core,
          std::unique_ptr<AccessStream> stream)
{
    HwThread thread(m.caches(), core, m.coreParams());
    Tick start = 0;
    Tick end = 0;
    thread.start(std::move(stream), m.eq().curTick(),
                 [&start, &end](Tick s, Tick e) {
        start = s;
        end = e;
    });
    // The watchdog stands down when the queue quiesces between
    // streams; restart its snapshot cycle for this stream's run.
    m.rearmWatchdog();
    m.run();
    CXLMEMO_ASSERT(thread.finished(), "stream did not finish");
    return {start, end};
}

std::pair<Tick, Tick>
probeStream(Machine &m, std::uint16_t core,
            std::unique_ptr<AccessStream> stream)
{
    auto thread = m.makeThread(core);
    Tick start = 0;
    Tick end = 0;
    bool done = false;
    thread->start(std::move(stream), m.eq().curTick(),
                  [&](Tick s, Tick e) {
        start = s;
        end = e;
        done = true;
    });
    while (!done) {
        const Tick horizon = m.eq().curTick() + ticksFromUs(50.0);
        if (m.runUntil(horizon) && !done)
            CXLMEMO_PANIC("probe starved: event queue drained");
    }
    return {start, end};
}

SampleSeries
probeWindows(Machine &m, std::uint16_t core, const NumaBuffer &buf,
             std::uint64_t bytes, int windows, int opsPerWindow,
             std::uint64_t seed)
{
    const std::uint64_t lines = bytes / cachelineBytes;
    Rng addr_rng(seed);
    SampleSeries window_ns;
    for (int w = 0; w < windows; ++w) {
        std::vector<MemOp> ops;
        ops.reserve(opsPerWindow);
        for (int i = 0; i < opsPerWindow; ++i) {
            const Addr a = buf.translate(addr_rng.below(lines)
                                         * cachelineBytes);
            ops.push_back({MemOp::Kind::DependentLoad, a, 0});
        }
        const auto [start, end] = probeStream(
            m, core, std::make_unique<ListStream>(std::move(ops)));
        window_ns.record(nsFromTicks(end - start) / opsPerWindow);
    }
    return window_ns;
}

} // namespace memo
} // namespace cxlmemo
