/**
 * @file
 * Tests for the core issue model: MLP limits, fences, dependent
 * loads, NT-store posted/drain semantics and the fused movdir64B op.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.hh"
#include "cpu/streams.hh"
#include "mem/request.hh"
#include "numa/numa.hh"
#include "sim/event_queue.hh"

namespace cxlmemo
{
namespace
{

/** Fixed-latency device with NT posted-accept semantics. */
class FixedLatencyDevice : public MemoryDevice
{
  public:
    FixedLatencyDevice(EventQueue &eq, Tick latency)
        : eq_(eq), latency_(latency)
    {}

    void
    access(MemRequest req) override
    {
        ++accesses;
        const Tick now = eq_.curTick();
        if (req.onAccept) {
            eq_.schedule(now, [cb = std::move(req.onAccept), now] {
                cb(now);
            });
        }
        const Tick done = now + latency_;
        maxConcurrent = std::max(maxConcurrent, ++inFlight_);
        eq_.schedule(done, [this, cb = std::move(req.onComplete), done] {
            --inFlight_;
            if (cb)
                cb(done);
        });
    }

    const std::string &name() const override { return name_; }

    int accesses = 0;
    int maxConcurrent = 0;

  private:
    EventQueue &eq_;
    Tick latency_;
    int inFlight_ = 0;
    std::string name_ = "fixed";
};

class CpuTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dev = std::make_unique<FixedLatencyDevice>(eq, ticksFromNs(100));
        node = numa.addNode("mem", dev.get(), 1 * giB);
        HierarchyParams p;
        p.numCores = 1;
        p.l1 = {"l1", 4 * kiB, 4, ticksFromNs(2.0)};
        p.l2 = {"l2", 32 * kiB, 8, ticksFromNs(8.0)};
        p.llc = {"llc", 256 * kiB, 8, ticksFromNs(20.0)};
        p.uncoreLatency = ticksFromNs(10.0);
        hier = std::make_unique<CacheHierarchy>(eq, numa, p);
        buf = numa.alloc(64 * miB, MemPolicy::membind(node));
    }

    /** Run ops to completion; @return (start,end) duration in ns. */
    double
    run(std::vector<MemOp> ops, CoreParams cp = {})
    {
        HwThread thread(*hier, 0, cp);
        Tick start = 0;
        Tick end = 0;
        thread.start(std::make_unique<ListStream>(std::move(ops)),
                     eq.curTick(), [&](Tick s, Tick e) {
            start = s;
            end = e;
        });
        eq.run();
        EXPECT_TRUE(thread.finished());
        return nsFromTicks(end - start);
    }

    MemOp
    loadAt(std::uint64_t off,
           MemOp::Kind k = MemOp::Kind::Load)
    {
        return {k, buf.translate(off), 0, 0};
    }

    EventQueue eq;
    NumaSpace numa;
    std::unique_ptr<FixedLatencyDevice> dev;
    NodeId node = 0;
    std::unique_ptr<CacheHierarchy> hier;
    NumaBuffer buf;
};

TEST_F(CpuTest, ComputeAdvancesTime)
{
    const double ns = run({{MemOp::Kind::Compute, 0, 0, ticksFromNs(500)},
                           {MemOp::Kind::Compute, 0, 0, ticksFromNs(250)}});
    EXPECT_DOUBLE_EQ(ns, 750.0);
}

TEST_F(CpuTest, IndependentLoadsOverlapUpToLfbLimit)
{
    CoreParams cp;
    cp.loadFillBuffers = 4;
    cp.issueCost = 0;
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(loadAt(std::uint64_t(i) * pageBytes));
    run(std::move(ops), cp);
    EXPECT_EQ(dev->maxConcurrent, 4); // LFB-capped MLP
}

TEST_F(CpuTest, DependentLoadsSerialize)
{
    CoreParams cp;
    cp.issueCost = 0;
    std::vector<MemOp> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(loadAt(std::uint64_t(i) * pageBytes,
                             MemOp::Kind::DependentLoad));
    const double ns = run(std::move(ops), cp);
    EXPECT_EQ(dev->maxConcurrent, 1);
    // 4 chained misses at 140 ns each (2+8+20+10 lookup + 100 device).
    EXPECT_DOUBLE_EQ(ns, 4 * 140.0);
}

TEST_F(CpuTest, MfenceWaitsForAllOutstanding)
{
    CoreParams cp;
    cp.issueCost = 0;
    std::vector<MemOp> ops;
    ops.push_back(loadAt(0));
    ops.push_back(loadAt(pageBytes));
    ops.push_back({MemOp::Kind::Mfence, 0, 0, 0});
    ops.push_back({MemOp::Kind::Compute, 0, 0, ticksFromNs(1)});
    const double ns = run(std::move(ops), cp);
    EXPECT_DOUBLE_EQ(ns, 141.0); // both loads complete before compute
}

TEST_F(CpuTest, SfenceWaitsForNtDrainNotJustAccept)
{
    CoreParams cp;
    cp.issueCost = 0;
    cp.ntIssueCost = 0;
    std::vector<MemOp> ops;
    ops.push_back({MemOp::Kind::NtStore, buf.translate(0), 0, 0});
    ops.push_back({MemOp::Kind::Sfence, 0, 0, 0});
    const double ns = run(std::move(ops), cp);
    // nt dispatch 6 + uncore 10 + device 100 = 116 ns.
    EXPECT_DOUBLE_EQ(ns, 116.0);
}

TEST_F(CpuTest, NtStoresStreamWithoutFences)
{
    CoreParams cp;
    cp.issueCost = 0;
    cp.ntIssueCost = ticksFromNs(5);
    cp.wcBuffers = 4;
    std::vector<MemOp> ops;
    for (int i = 0; i < 32; ++i)
        ops.push_back({MemOp::Kind::NtStore,
                       buf.translate(std::uint64_t(i) * cachelineBytes),
                       0, 0});
    const double ns = run(std::move(ops), cp);
    // Posted accepts release WC buffers immediately: issue is paced by
    // ntIssueCost, and only the final drains add the device latency.
    EXPECT_LT(ns, 32 * 5.0 + 200.0);
}

TEST_F(CpuTest, Movdir64CopiesReadThenWrite)
{
    CoreParams cp;
    cp.issueCost = 0;
    std::vector<MemOp> ops;
    ops.push_back({MemOp::Kind::Movdir64, buf.translate(0),
                   buf.translate(1 * miB), 0});
    ops.push_back({MemOp::Kind::Sfence, 0, 0, 0});
    const double ns = run(std::move(ops), cp);
    // Uncached read (2+10+100) then NT write (6+10+100): serialized.
    EXPECT_DOUBLE_EQ(ns, 112.0 + 116.0);
    EXPECT_EQ(dev->accesses, 2);
}

TEST_F(CpuTest, UncachedReadDoesNotFillCaches)
{
    CoreParams cp;
    cp.issueCost = 0;
    run({{MemOp::Kind::UncachedRead, buf.translate(0), 0, 0}}, cp);
    const int before = dev->accesses;
    run({loadAt(0)}, cp);
    EXPECT_EQ(dev->accesses, before + 1); // still a miss
}

TEST_F(CpuTest, ThreadStatsCountOps)
{
    CoreParams cp;
    std::vector<MemOp> ops;
    ops.push_back(loadAt(0));
    ops.push_back({MemOp::Kind::Store, buf.translate(64), 0, 0});
    ops.push_back({MemOp::Kind::NtStore, buf.translate(128), 0, 0});
    HwThread thread(*hier, 0, cp);
    thread.start(std::make_unique<ListStream>(std::move(ops)), 0,
                 nullptr);
    eq.run();
    EXPECT_EQ(thread.stats().loads, 1u);
    EXPECT_EQ(thread.stats().stores, 1u);
    EXPECT_EQ(thread.stats().ntStores, 1u);
    EXPECT_EQ(thread.stats().bytesRead, 64u);
    EXPECT_EQ(thread.stats().bytesWritten, 128u);
}

TEST_F(CpuTest, FinishWaitsForTrailingStores)
{
    CoreParams cp;
    cp.issueCost = 0;
    const double ns = run({{MemOp::Kind::Store, buf.translate(0), 0, 0}},
                          cp);
    // RFO fill must complete before the thread reports done.
    EXPECT_DOUBLE_EQ(ns, 140.0);
}

TEST_F(CpuTest, SequentialStreamWrapsRegion)
{
    SequentialStream s(buf, 0, 2 * cachelineBytes, 4 * cachelineBytes,
                       MemOp::Kind::Load);
    MemOp op;
    std::vector<Addr> addrs;
    while (s.next(op))
        addrs.push_back(op.paddr);
    ASSERT_EQ(addrs.size(), 4u);
    EXPECT_EQ(addrs[0], addrs[2]);
    EXPECT_EQ(addrs[1], addrs[3]);
}

TEST_F(CpuTest, RandomBlockStreamFencesNtBlocks)
{
    RandomBlockStream s(buf, 0, 1 * miB, 4 * 1024, 1024,
                        MemOp::Kind::NtStore, true, 7);
    MemOp op;
    int fences = 0;
    int stores = 0;
    while (s.next(op)) {
        if (op.kind == MemOp::Kind::Sfence)
            ++fences;
        else
            ++stores;
    }
    EXPECT_EQ(stores, 64); // 4 KiB total / 64 B
    EXPECT_EQ(fences, 4);  // one per 1 KiB block
}

TEST_F(CpuTest, PointerChaseVisitsEveryLineOnce)
{
    const std::uint64_t lines = 64;
    PointerChaseStream s(buf, lines * cachelineBytes, lines, 3);
    MemOp op;
    std::set<Addr> seen;
    while (s.next(op)) {
        EXPECT_EQ(op.kind, MemOp::Kind::DependentLoad);
        seen.insert(op.paddr);
    }
    // A single Hamiltonian cycle: `lines` steps visit `lines`
    // distinct lines.
    EXPECT_EQ(seen.size(), lines);
}

TEST_F(CpuTest, ThreadCannotStartTwice)
{
    HwThread thread(*hier, 0, CoreParams{});
    thread.start(std::make_unique<ListStream>(std::vector<MemOp>{}), 0,
                 nullptr);
    eq.run();
    EXPECT_TRUE(thread.finished());
    // Restart after finishing is allowed.
    thread.start(std::make_unique<ListStream>(std::vector<MemOp>{}),
                 eq.curTick(), nullptr);
    eq.run();
    EXPECT_TRUE(thread.finished());
}

} // namespace
} // namespace cxlmemo
