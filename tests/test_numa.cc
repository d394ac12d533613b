/**
 * @file
 * Tests for NUMA topology, routing, page placement policies and the
 * frame-scattering allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "numa/numa.hh"

namespace cxlmemo
{
namespace
{

/** Records accesses; no timing. */
class MockDevice : public MemoryDevice
{
  public:
    explicit MockDevice(std::string name) : name_(std::move(name)) {}

    void
    access(MemRequest req) override
    {
        ++accesses;
        lastAddr = req.addr;
        if (req.onComplete)
            req.onComplete(0);
    }

    const std::string &name() const override { return name_; }

    int accesses = 0;
    Addr lastAddr = 0;

  private:
    std::string name_;
};

class NumaTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dram = std::make_unique<MockDevice>("dram");
        cxl = std::make_unique<MockDevice>("cxl");
        dramNode = space.addNode("dram", dram.get(), 64 * miB);
        cxlNode = space.addNode("cxl", cxl.get(), 16 * miB,
                                /*hasCpu=*/false);
    }

    NumaSpace space;
    std::unique_ptr<MockDevice> dram;
    std::unique_ptr<MockDevice> cxl;
    NodeId dramNode = 0;
    NodeId cxlNode = 0;
};

TEST_F(NumaTest, NodeMetadata)
{
    EXPECT_EQ(space.numNodes(), 2u);
    EXPECT_TRUE(space.node(dramNode).hasCpu);
    EXPECT_FALSE(space.node(cxlNode).hasCpu);
    EXPECT_EQ(space.node(cxlNode).capacityBytes, 16 * miB);
}

TEST_F(NumaTest, PaddrEncodingRoundTrips)
{
    const Addr p = paddrOf(1, 0x1234567);
    EXPECT_EQ(nodeOfPaddr(p), 1u);
    EXPECT_EQ(localOfPaddr(p), 0x1234567u);
}

TEST_F(NumaTest, RouteFindsTheRightDevice)
{
    Addr local = 0;
    EXPECT_EQ(&space.route(paddrOf(dramNode, 4096), local), dram.get());
    EXPECT_EQ(local, 4096u);
    EXPECT_EQ(&space.route(paddrOf(cxlNode, 64), local), cxl.get());
    EXPECT_EQ(local, 64u);
}

TEST_F(NumaTest, MembindPutsEverythingOnOneNode)
{
    NumaBuffer buf = space.alloc(1 * miB, MemPolicy::membind(cxlNode));
    EXPECT_DOUBLE_EQ(buf.residencyOn(cxlNode), 1.0);
    EXPECT_DOUBLE_EQ(buf.residencyOn(dramNode), 0.0);
    EXPECT_EQ(space.allocatedOn(cxlNode), 1 * miB);
}

TEST_F(NumaTest, TranslateIsPageConsistent)
{
    NumaBuffer buf = space.alloc(64 * kiB, MemPolicy::membind(dramNode));
    for (std::uint64_t off = 0; off < 64 * kiB; off += 64) {
        const Addr p = buf.translate(off);
        EXPECT_EQ(nodeOfPaddr(p), dramNode);
        // Offsets within one page stay contiguous.
        EXPECT_EQ(p % pageBytes, off % pageBytes);
    }
}

TEST_F(NumaTest, InterleaveAlternatesPages)
{
    NumaBuffer buf = space.alloc(
        16 * pageBytes, MemPolicy::weighted({dramNode, cxlNode}, {1, 1}));
    EXPECT_DOUBLE_EQ(buf.residencyOn(dramNode), 0.5);
    EXPECT_DOUBLE_EQ(buf.residencyOn(cxlNode), 0.5);
    for (std::uint64_t p = 0; p < 16; ++p) {
        EXPECT_EQ(nodeOfPaddr(buf.translate(p * pageBytes)),
                  (p % 2 == 0) ? dramNode : cxlNode);
    }
}

TEST_F(NumaTest, WeightedInterleaveHitsRequestedRatio)
{
    // The paper's 30:1 case (3.23% on CXL).
    NumaBuffer buf = space.alloc(
        31 * 4 * pageBytes,
        MemPolicy::weighted({dramNode, cxlNode}, {30, 1}));
    EXPECT_NEAR(buf.residencyOn(cxlNode), 1.0 / 31.0, 1e-9);
}

TEST_F(NumaTest, SplitDramCxlFindsIntegerRatios)
{
    const MemPolicy p1 = MemPolicy::splitDramCxl(dramNode, cxlNode,
                                                 0.0323);
    ASSERT_EQ(p1.kind, MemPolicy::Kind::Weighted);
    EXPECT_EQ(p1.weights[0], 30u);
    EXPECT_EQ(p1.weights[1], 1u);

    const MemPolicy p2 = MemPolicy::splitDramCxl(dramNode, cxlNode, 0.1);
    EXPECT_EQ(p2.weights[0], 9u);
    EXPECT_EQ(p2.weights[1], 1u);

    const MemPolicy p3 = MemPolicy::splitDramCxl(dramNode, cxlNode, 0.5);
    EXPECT_EQ(p3.weights[0], 1u);
    EXPECT_EQ(p3.weights[1], 1u);

    EXPECT_EQ(MemPolicy::splitDramCxl(dramNode, cxlNode, 0.0).kind,
              MemPolicy::Kind::Membind);
    EXPECT_EQ(MemPolicy::splitDramCxl(dramNode, cxlNode, 1.0).nodes[0],
              cxlNode);
}

TEST_F(NumaTest, ScatteredFramesAreAPermutation)
{
    // Allocate the entire CXL node and check every frame is unique
    // and in range -- the scatter function must be a bijection.
    NumaBuffer buf = space.alloc(16 * miB, MemPolicy::membind(cxlNode));
    std::set<Addr> frames;
    for (std::uint64_t off = 0; off < 16 * miB; off += pageBytes) {
        const Addr p = buf.translate(off);
        EXPECT_LT(localOfPaddr(p), 16 * miB);
        frames.insert(p & ~(pageBytes - 1));
    }
    EXPECT_EQ(frames.size(), 16 * miB / pageBytes);
}

TEST_F(NumaTest, ScatterBreaksContiguity)
{
    NumaBuffer buf = space.alloc(1 * miB, MemPolicy::membind(dramNode));
    int contiguous = 0;
    for (std::uint64_t p = 1; p < 256; ++p) {
        if (buf.translate(p * pageBytes)
            == buf.translate((p - 1) * pageBytes) + pageBytes) {
            ++contiguous;
        }
    }
    EXPECT_LT(contiguous, 8); // almost never physically adjacent
}

TEST_F(NumaTest, ScatterCanBeDisabled)
{
    space.setScatterFrames(dramNode, false);
    NumaBuffer buf = space.alloc(256 * kiB, MemPolicy::membind(dramNode));
    for (std::uint64_t p = 1; p < 64; ++p) {
        EXPECT_EQ(buf.translate(p * pageBytes),
                  buf.translate((p - 1) * pageBytes) + pageBytes);
    }
}

TEST_F(NumaTest, AllocationsAreDeterministic)
{
    NumaSpace other;
    MockDevice d1("d"), d2("c");
    other.addNode("dram", &d1, 64 * miB);
    other.addNode("cxl", &d2, 16 * miB, false);
    NumaBuffer a = space.alloc(1 * miB, MemPolicy::membind(dramNode));
    NumaBuffer b = other.alloc(1 * miB, MemPolicy::membind(0));
    for (std::uint64_t off = 0; off < 1 * miB; off += pageBytes)
        EXPECT_EQ(a.translate(off), b.translate(off));
}

TEST_F(NumaTest, OutOfMemoryIsFatal)
{
    EXPECT_EXIT(space.alloc(17 * miB, MemPolicy::membind(cxlNode)),
                ::testing::ExitedWithCode(1), "out of memory");
}

TEST_F(NumaTest, TranslateBeyondBufferPanics)
{
    NumaBuffer buf = space.alloc(64 * kiB, MemPolicy::membind(dramNode));
    EXPECT_DEATH(buf.translate(64 * kiB), "beyond buffer");
}

} // namespace
} // namespace cxlmemo
