/**
 * @file
 * Edge-case tests for the reusable access streams and the DRAM bus
 * direction arbiter.
 */

#include <gtest/gtest.h>

#include <set>

#include "cpu/streams.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace cxlmemo
{
namespace
{

class StreamsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dev_name = "null";
        node = space.addNode("mem", &dev, 1 * giB);
        buf = space.alloc(8 * miB, MemPolicy::membind(node));
    }

    struct NullDevice : MemoryDevice
    {
        void
        access(MemRequest req) override
        {
            if (req.onComplete)
                req.onComplete(0);
        }
        const std::string &name() const override { return n; }
        std::string n = "null";
    };

    NullDevice dev;
    std::string dev_name;
    NumaSpace space;
    NodeId node = 0;
    NumaBuffer buf;
};

TEST_F(StreamsTest, SequentialEmitsExactByteBudget)
{
    SequentialStream s(buf, 64 * kiB, 1 * miB, 256 * kiB,
                       MemOp::Kind::Store);
    MemOp op;
    std::uint64_t count = 0;
    while (s.next(op)) {
        EXPECT_EQ(op.kind, MemOp::Kind::Store);
        ++count;
    }
    EXPECT_EQ(count, 256 * kiB / cachelineBytes);
}

TEST_F(StreamsTest, SequentialStaysInsideRegion)
{
    const std::uint64_t region_off = 1 * miB;
    const std::uint64_t region_len = 128 * kiB;
    SequentialStream s(buf, region_off, region_len, 512 * kiB,
                       MemOp::Kind::Load);
    // Collect the physical footprint of the region for comparison.
    std::set<Addr> allowed;
    for (std::uint64_t o = 0; o < region_len; o += cachelineBytes)
        allowed.insert(buf.translate(region_off + o));
    MemOp op;
    while (s.next(op))
        ASSERT_TRUE(allowed.count(op.paddr)) << "escaped the region";
}

TEST_F(StreamsTest, RandomBlockRespectsBlockAlignment)
{
    RandomBlockStream s(buf, 0, 4 * miB, 64 * kiB, 4 * kiB,
                        MemOp::Kind::Load, false, 11);
    MemOp op;
    int in_block = 0;
    Addr block_first = 0;
    while (s.next(op)) {
        if (in_block == 0)
            block_first = op.paddr;
        else
            // Within a page-sized block, lines are contiguous.
            EXPECT_EQ(op.paddr,
                      block_first + std::uint64_t(in_block)
                                        * cachelineBytes);
        in_block = (in_block + 1) % (4 * kiB / cachelineBytes);
    }
}

TEST_F(StreamsTest, RandomBlockSeedsDiverge)
{
    RandomBlockStream a(buf, 0, 4 * miB, 16 * kiB, 1 * kiB,
                        MemOp::Kind::Load, false, 1);
    RandomBlockStream b(buf, 0, 4 * miB, 16 * kiB, 1 * kiB,
                        MemOp::Kind::Load, false, 2);
    MemOp oa;
    MemOp ob;
    int same = 0;
    int total = 0;
    while (a.next(oa) && b.next(ob)) {
        same += oa.paddr == ob.paddr;
        ++total;
    }
    EXPECT_LT(same, total / 4);
}

TEST_F(StreamsTest, ListStreamReplaysExactly)
{
    std::vector<MemOp> ops = {
        {MemOp::Kind::Load, 1, 0, 0},
        {MemOp::Kind::Mfence, 0, 0, 0},
        {MemOp::Kind::Compute, 0, 0, 7},
    };
    ListStream s(ops);
    MemOp op;
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.kind, MemOp::Kind::Load);
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.kind, MemOp::Kind::Mfence);
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.computeTicks, 7u);
    EXPECT_FALSE(s.next(op));
}

TEST_F(StreamsTest, ChaseRejectsTinyWorkingSets)
{
    EXPECT_DEATH(PointerChaseStream(buf, cachelineBytes, 10, 1),
                 "too small");
}

TEST_F(StreamsTest, SequentialRejectsRegionsBeyondBuffer)
{
    EXPECT_DEATH(SequentialStream(buf, 7 * miB, 2 * miB, 1 * miB,
                                  MemOp::Kind::Load),
                 "beyond buffer");
}

TEST(DramDirectionBatching, BatchesSameDirectionTransfers)
{
    EventQueue eq;
    DramChannelParams p;
    p.maxDirectionRun = 4;
    p.tTurnaround = ticksFromNs(20.0); // make switches expensive
    DramChannel ch(eq, p);
    // Interleave reads and writes in arrival order; the bus should
    // batch them so far fewer than one turnaround per request is
    // paid. Compare against a channel that cannot batch.
    auto run = [&eq](DramChannelParams params) {
        DramChannel chan(eq, params);
        const Tick start = eq.curTick();
        Tick last = 0;
        for (int i = 0; i < 64; ++i) {
            MemRequest r;
            r.addr = static_cast<Addr>(i) * 64;
            r.size = cachelineBytes;
            r.cmd = (i % 2) ? MemCmd::Write : MemCmd::Read;
            r.onComplete = [&last](Tick t) { last = std::max(last, t); };
            chan.access(std::move(r));
        }
        eq.run();
        return last - start;
    };
    DramChannelParams no_batch = p;
    no_batch.maxDirectionRun = 1;
    const Tick batched = run(p);
    const Tick alternating = run(no_batch);
    EXPECT_LT(batched, alternating);
}

} // namespace
} // namespace cxlmemo
