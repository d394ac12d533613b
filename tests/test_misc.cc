/**
 * @file
 * Focused unit tests for smaller surfaces: stats structs, interleaved
 * device bookkeeping, core resource caps and policy corner cases.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.hh"
#include "cpu/streams.hh"
#include "mem/dram.hh"
#include "numa/numa.hh"
#include "sim/event_queue.hh"
#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

TEST(DeviceStats, MergeAccumulates)
{
    DeviceStats a;
    a.reads = 2;
    a.bytesRead = 128;
    a.rowHits = 1;
    DeviceStats b;
    b.reads = 3;
    b.writes = 4;
    b.bytesWritten = 256;
    b.rowMisses = 5;
    a.merge(b);
    EXPECT_EQ(a.reads, 5u);
    EXPECT_EQ(a.writes, 4u);
    EXPECT_EQ(a.bytesRead, 128u);
    EXPECT_EQ(a.bytesWritten, 256u);
    EXPECT_EQ(a.rowHits, 1u);
    EXPECT_EQ(a.rowMisses, 5u);
}

TEST(CacheStats, HitRateHandlesEmptyAndFull)
{
    CacheStats s;
    EXPECT_EQ(s.hitRate(), 0.0);
    s.hits = 3;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.75);
}

TEST(MemCmd, Classification)
{
    EXPECT_FALSE(isWrite(MemCmd::Read));
    EXPECT_FALSE(isWrite(MemCmd::Prefetch));
    EXPECT_TRUE(isWrite(MemCmd::Write));
    EXPECT_TRUE(isWrite(MemCmd::NtWrite));
    EXPECT_STREQ(memCmdName(MemCmd::NtWrite), "NtWrite");
    EXPECT_STREQ(memCmdName(MemCmd::Prefetch), "Prefetch");
}

TEST(InterleavedMemory, ResetStatsClearsAllChannels)
{
    EventQueue eq;
    InterleavedMemory mem(eq, "node", DramChannelParams{}, 4);
    for (int i = 0; i < 8; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 256;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        mem.access(std::move(r));
    }
    eq.run();
    EXPECT_EQ(mem.stats().reads, 8u);
    mem.resetStats();
    EXPECT_EQ(mem.stats().reads, 0u);
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(mem.channel(c).stats().reads, 0u);
}

TEST(DramChannel, NtGateIsFifo)
{
    EventQueue eq;
    DramChannelParams p;
    p.ntPostedEntries = 2;
    DramChannel ch(eq, p);
    std::vector<int> accept_order;
    for (int i = 0; i < 6; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 128 * kiB; // force conflicts
        r.size = cachelineBytes;
        r.cmd = MemCmd::NtWrite;
        r.onAccept = [&accept_order, i](Tick) {
            accept_order.push_back(i);
        };
        ch.access(std::move(r));
    }
    eq.run();
    ASSERT_EQ(accept_order.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(accept_order[i], i);
}

TEST(HwThreadCaps, StoreBufferBoundsOutstandingStores)
{
    Machine m(Testbed::SingleSocketCxl);
    NumaBuffer buf =
        m.numa().alloc(64 * miB, MemPolicy::membind(m.cxlNode()));
    CoreParams cp = m.coreParams();
    cp.storeBufferEntries = 2;
    cp.issueCost = 0;
    HwThread t(m.caches(), 0, cp);
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back({MemOp::Kind::Store,
                       buf.translate(std::uint64_t(i) * pageBytes), 0,
                       0});
    Tick end = 0;
    t.start(std::make_unique<ListStream>(std::move(ops)), 0,
            [&end](Tick, Tick e) { end = e; });
    m.eq().run();
    // 8 RFOs with MLP 2: at least 4 serialized CXL round trips.
    EXPECT_GT(nsFromTicks(end), 4 * 300.0);
}

TEST(HwThreadCaps, WiderLfbIsFaster)
{
    auto run = [](std::uint32_t lfb) {
        Machine m(Testbed::SingleSocketCxl);
        NumaBuffer buf =
            m.numa().alloc(64 * miB, MemPolicy::membind(m.cxlNode()));
        CoreParams cp = m.coreParams();
        cp.loadFillBuffers = lfb;
        HwThread t(m.caches(), 0, cp);
        std::vector<MemOp> ops;
        for (int i = 0; i < 256; ++i)
            ops.push_back({MemOp::Kind::Load,
                           buf.translate(std::uint64_t(i) * pageBytes),
                           0, 0});
        Tick end = 0;
        t.start(std::make_unique<ListStream>(std::move(ops)), 0,
                [&end](Tick, Tick e) { end = e; });
        m.eq().run();
        return end;
    };
    EXPECT_LT(run(16), run(2));
}

TEST(MemPolicy, InterleaveOverThreeNodesIsRoundRobin)
{
    Machine m(Testbed::DualSocket);
    NumaBuffer buf = m.numa().alloc(
        30 * pageBytes,
        MemPolicy::weighted({m.localNode(), m.remoteNode(), m.cxlNode()},
                            {1, 1, 1}));
    EXPECT_NEAR(buf.residencyOn(m.localNode()), 1.0 / 3, 1e-9);
    EXPECT_NEAR(buf.residencyOn(m.remoteNode()), 1.0 / 3, 1e-9);
    EXPECT_NEAR(buf.residencyOn(m.cxlNode()), 1.0 / 3, 1e-9);
}

TEST(MemPolicyDeathTest, WeightedNeedsMatchingWeights)
{
    Machine m(Testbed::SingleSocketCxl);
    MemPolicy p = MemPolicy::weighted({m.localNode(), m.cxlNode()},
                                      {1});
    EXPECT_DEATH(m.numa().alloc(pageBytes, p),
                 "one weight per node");
}

TEST(MemPolicyDeathTest, UnknownNodeIsRejected)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_DEATH(m.numa().alloc(pageBytes, MemPolicy::membind(9)),
                 "unknown node");
}

TEST(SetAssocCache, SequentialLinesSpreadOverSets)
{
    SetAssocCache c({"c", 64 * kiB, 4, 0});
    // Insert exactly capacity worth of consecutive lines: with a
    // uniform index, nothing is evicted.
    const std::uint64_t lines = 64 * kiB / cachelineBytes;
    std::uint64_t evictions = 0;
    for (std::uint64_t la = 0; la < lines; ++la)
        evictions += c.insert(la, LineState::Exclusive, 0).has_value();
    EXPECT_EQ(evictions, 0u);
}

TEST(Quickstart, ReadmeSnippetCompilesAndRuns)
{
    // Mirror of the README "Quickstart (API)" block.
    Machine m(Testbed::SingleSocketCxl);
    NumaBuffer buf = m.numa().alloc(
        64 * miB,
        MemPolicy::splitDramCxl(m.localNode(), m.cxlNode(), 0.1));
    auto t = m.makeThread(0);
    bool done = false;
    t->start(std::make_unique<SequentialStream>(
                 buf, 0, 64 * miB, 1 * miB, MemOp::Kind::Load),
             0, [&done](Tick, Tick) { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
}

} // namespace
} // namespace cxlmemo
