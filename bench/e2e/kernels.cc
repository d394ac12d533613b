/**
 * @file
 * Layer kernels: one public entry point of each layer driven in
 * isolation with inputs shaped like the workloads, timed in host ns
 * per layer operation. Each kernel includes its own event scheduling,
 * so the host shares estimated from them overlap (upper bounds).
 */

#include <algorithm>
#include <deque>
#include <memory>

#include "cpu/streams.hh"
#include "harness.hh"
#include "sim/rng.hh"

namespace e2e
{

using namespace cxlmemo;

namespace
{

constexpr int kernelReps = 5;

/** Operations done and host seconds taken by one kernel rep. */
struct Rep
{
    double ops = 0.0;
    double secs = 0.0;
};

/** Median over reps of host ns per op; one kernel.<layer> span per
 *  rep on its own trace row. */
template <typename Once>
double
nsPerOp(SpanLog &log, const std::string &layer, Once once)
{
    std::vector<double> ns;
    for (int r = 0; r < kernelReps; ++r) {
        const double start = nowS();
        const Rep rep = once();
        log.add("kernel." + layer, 0, 0, start, nowS(), 2);
        ns.push_back(rep.secs * 1e9 / std::max(rep.ops, 1.0));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** @p full operations scaled by @p size (at least one). */
std::uint64_t
count(std::uint64_t full, double size)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(full) * size));
}

template <typename Fn>
double
timed(Fn &&fn)
{
    const double start = nowS();
    fn();
    return nowS() - start;
}

/* ------------------------------ sim ------------------------------ */

/** 32 self-rescheduling chains, each completion scheduling its
 *  successor a few ns out: the memory-pipeline pattern. */
Rep
queueOnce(std::uint64_t seed, double size)
{
    struct Chain
    {
        EventQueue &eq;
        Rng &rng;
        std::uint64_t &left;

        void
        fire()
        {
            if (left == 0)
                return;
            --left;
            eq.scheduleIn(1 + rng.below(ticksFromNs(64)),
                          [this] { fire(); });
        }
    };
    EventQueue eq;
    Rng rng(seed);
    std::uint64_t left = count(1'000'000, size);
    Chain chain{eq, rng, left};
    for (int i = 0; i < 32; ++i)
        chain.fire();
    const double secs = timed([&] { eq.run(); });
    return {static_cast<double>(eq.eventsExecuted()), secs};
}

/* ------------------------- sim.parallel -------------------------- */

/** 10 domains, each running a local event every 1 ns and posting to
 *  its neighbour once per 5 ns window: little work per window, so the
 *  window barrier and the outbox merge dominate. */
struct PingPost
{
    static constexpr std::uint32_t domains = 10;
    static constexpr Tick step = ticksFromNs(1);
    static constexpr Tick lookahead = ticksFromNs(5);

    std::vector<std::unique_ptr<EventQueue>> queues;
    std::unique_ptr<ParallelExecutor> exec;
    std::vector<std::uint64_t> received;
    Tick end;

    PingPost(std::uint32_t threads, Tick simEnd)
        : received(domains), end(simEnd)
    {
        std::vector<EventQueue *> ptrs;
        for (std::uint32_t d = 0; d < domains; ++d) {
            queues.push_back(std::make_unique<EventQueue>());
            ptrs.push_back(queues.back().get());
        }
        exec = std::make_unique<ParallelExecutor>(ptrs, lookahead,
                                                  threads);
        for (std::uint32_t d = 0; d < domains; ++d)
            queues[d]->schedule(0, [this, d] { tick(d); });
    }

    void
    tick(std::uint32_t d)
    {
        EventQueue &q = *queues[d];
        const Tick now = q.curTick();
        if (now % lookahead == 0) {
            const std::uint32_t dst = (d + 1) % domains;
            exec->post(d, dst, now + lookahead,
                       [this, dst](Tick) { ++received[dst]; });
        }
        if (now + step <= end)
            q.schedule(now + step, [this, d] { tick(d); });
    }
};

/** Host seconds per run at @p threads, and the window count. */
Rep
parallelOnce(std::uint32_t threads, double size)
{
    PingPost k(threads, ticksFromNs(20000 * size));
    const double secs = timed([&] { k.exec->run(); });
    return {static_cast<double>(k.exec->windows()), secs};
}

/* ------------------------------ mem ------------------------------ */

/** Closed loop of 32 outstanding requests against one channel. */
struct ChannelLoop
{
    DramChannel &ch;
    Rng rng;
    bool random;
    std::uint64_t left;
    Addr next = 0;

    void
    issue()
    {
        if (left == 0)
            return;
        --left;
        MemRequest r;
        if (random) {
            r.addr = rng.below(Addr(1) << 30) & ~Addr(cachelineBytes - 1);
        } else {
            r.addr = next;
            next += cachelineBytes;
        }
        r.cmd = MemCmd::Read;
        r.onComplete = [this](Tick) { issue(); };
        ch.access(std::move(r));
    }
};

Rep
dramOnce(std::uint64_t seed, double size)
{
    Rep rep;
    for (const bool random : {false, true}) {
        EventQueue eq;
        DramChannel ch(eq, testbed_params::localDdr5Channel());
        ChannelLoop loop{ch, Rng(seed), random, count(100'000, size)};
        for (int i = 0; i < 32; ++i)
            loop.issue();
        rep.secs += timed([&] { eq.run(); });
        rep.ops += static_cast<double>(ch.stats().reads);
    }
    return rep;
}

/* ------------------------------ cxl ------------------------------ */

struct DeviceLoop
{
    CxlMemDevice &dev;
    MemCmd cmd;
    std::uint64_t left;
    Addr next = 0;

    void
    issue()
    {
        if (left == 0)
            return;
        --left;
        MemRequest r;
        r.addr = next;
        next += cachelineBytes;
        r.cmd = cmd;
        r.onComplete = [this](Tick) { issue(); };
        dev.access(std::move(r));
    }
};

Rep
cxlOnce(double size)
{
    Rep rep;
    for (const MemCmd cmd : {MemCmd::Read, MemCmd::NtWrite}) {
        EventQueue eq;
        CxlMemDevice dev(eq, testbed_params::agilexCxlDevice());
        DeviceLoop loop{dev, cmd, count(50'000, size)};
        for (int i = 0; i < 32; ++i)
            loop.issue();
        rep.secs += timed([&] { eq.run(); });
        const DeviceStats be = dev.backendStats();
        rep.ops += static_cast<double>(be.reads + be.writes);
    }
    return rep;
}

/* ------------------------------ cache ---------------------------- */

/** One HwThread streaming loads over an L1-resident 16 KiB region. */
Rep
cacheOnce(double size)
{
    constexpr std::uint64_t region = 16 * kiB;
    const std::uint64_t total = region * count(4096, size);
    Machine m(Testbed::SingleSocketCxl);
    const NumaBuffer buf =
        m.numa().alloc(region, MemPolicy::membind(m.localNode()));
    memo::runStream(m, 0,
                    std::make_unique<SequentialStream>(
                        buf, 0, region, region, MemOp::Kind::Load));
    const double secs = timed([&] {
        memo::runStream(m, 0,
                        std::make_unique<SequentialStream>(
                            buf, 0, region, total, MemOp::Kind::Load));
    });
    return {static_cast<double>(total / cachelineBytes), secs};
}

/* --------------------------- interconnect ------------------------ */

/** Downstream stand-in completing every request a fixed 50 ns later,
 *  so the kernel times the switch rather than a device model. */
class FixedLatencyDevice : public MemoryDevice
{
  public:
    explicit FixedLatencyDevice(EventQueue &eq) : eq_(eq) {}

    void
    access(MemRequest req) override
    {
        pending_.push_back(std::move(req));
        eq_.scheduleIn(ticksFromNs(50), [this] {
            MemRequest r = std::move(pending_.front());
            pending_.pop_front();
            r.onComplete(eq_.curTick());
        });
    }

    const std::string &name() const override { return name_; }

  private:
    EventQueue &eq_;
    std::deque<MemRequest> pending_; //!< FIFO: fixed latency
    std::string name_ = "fixed";
};

struct SwitchLoop
{
    EventQueue &eq;
    CxlSwitch &sw;
    Rng rng;
    std::uint64_t left;

    void
    submit(std::uint32_t port)
    {
        if (left == 0)
            return;
        --left;
        CxlSwitch::Op op;
        op.addr = rng.below(Addr(1) << 26) & ~Addr(cachelineBytes - 1);
        op.cmd = rng.below(5) == 0 ? MemCmd::Write : MemCmd::Read;
        op.issued = eq.curTick();
        op.done = [this, port](Tick at, CxlSwitch::Status,
                               std::uint64_t) {
            eq.schedule(at + sw.params().portLatency,
                        [this, port] { submit(port); });
        };
        sw.submit(port, 0, std::move(op));
    }
};

Rep
switchOnce(std::uint64_t seed, double size)
{
    constexpr std::uint32_t ports = 16;
    EventQueue eq;
    FixedLatencyDevice dev(eq);
    CxlSwitchParams p;
    p.ports = ports;
    p.rdCredits = 16;
    p.wrCredits = 16;
    CxlSwitch sw(eq, p, {&dev});
    SwitchLoop loop{eq, sw, Rng(seed), count(200'000, size)};
    for (std::uint32_t port = 0; port < ports; ++port)
        for (int slot = 0; slot < 8; ++slot)
            loop.submit(port);
    const double secs = timed([&] { eq.run(); });
    std::uint64_t reqs = 0;
    for (std::uint32_t port = 0; port < ports; ++port)
        reqs += sw.portStats(port).reqs;
    return {static_cast<double>(reqs), secs};
}

} // namespace

KernelResults
runKernels(SpanLog &log, std::uint64_t seed, double scale)
{
    const double size = std::max(scale, 0.1);
    KernelResults k;
    k.queueNsPerEvent = nsPerOp(log, "sim", [=] {
        return queueOnce(seed, size);
    });
    const double t1 = nsPerOp(log, "sim.parallel", [=] {
        return parallelOnce(1, size);
    });
    k.parallelNsPerWindowT4 = nsPerOp(log, "sim.parallel", [=] {
        return parallelOnce(4, size);
    });
    k.parallelSpeedupT4 = t1 / k.parallelNsPerWindowT4;
    k.memNsPerReq = nsPerOp(log, "mem", [=] { return dramOnce(seed, size); });
    k.cxlNsPerReq = nsPerOp(log, "cxl", [=] { return cxlOnce(size); });
    k.cacheNsPerLoad = nsPerOp(log, "cache", [=] { return cacheOnce(size); });
    k.switchNsPerOp = nsPerOp(log, "interconnect", [=] {
        return switchOnce(seed, size);
    });
    return k;
}

} // namespace e2e
