/**
 * @file
 * Tests for the CXL Type-3 device: latency composition, finite
 * trackers/buffers, early write acknowledgement, posted NT gate and
 * the fair-share ingress arbiter.
 */

#include <gtest/gtest.h>

#include "cxl/device.hh"
#include "sim/event_queue.hh"
#include "system/machine.hh"
#include "slot_drill.hh"

namespace cxlmemo
{
namespace
{

CxlDeviceParams
smallDevice()
{
    CxlDeviceParams p = testbed_params::agilexCxlDevice();
    p.readQueueEntries = 4;
    p.writeBufferEntries = 4;
    p.hostPostedEntries = 8;
    return p;
}

Tick
readOnce(EventQueue &eq, CxlMemDevice &dev, Addr addr)
{
    Tick done = 0;
    MemRequest r;
    r.addr = addr;
    r.size = cachelineBytes;
    r.cmd = MemCmd::Read;
    r.onComplete = [&done](Tick t) { done = t; };
    dev.access(std::move(r));
    eq.run();
    return done;
}

TEST(CxlDevice, ReadLatencyComposition)
{
    EventQueue eq;
    CxlDeviceParams p = testbed_params::agilexCxlDevice();
    CxlMemDevice dev(eq, p);
    const Tick done = readOnce(eq, dev, 0);
    // Lower bound: 2x propagation + controller in/out + backend
    // frontend + row miss. (Serialization adds a few more ns.)
    const Tick floor = 2 * p.link.propagation + p.controllerIngress
                       + p.controllerEgress + p.backend.tFrontend
                       + p.backend.tRowMiss;
    EXPECT_GT(done, floor);
    EXPECT_LT(done, floor + ticksFromNs(20.0));
}

TEST(CxlDevice, RowHitReadIsFaster)
{
    EventQueue eq;
    CxlMemDevice dev(eq, testbed_params::agilexCxlDevice());
    const Tick first = readOnce(eq, dev, 0);
    const Tick second = readOnce(eq, dev, 64) - first;
    EXPECT_LT(second, first);
}

TEST(CxlDevice, WriteAcknowledgedBeforeDrain)
{
    EventQueue eq;
    CxlMemDevice dev(eq, testbed_params::agilexCxlDevice());
    Tick acked = 0;
    MemRequest w;
    w.addr = 0;
    w.size = cachelineBytes;
    w.cmd = MemCmd::Write;
    w.onComplete = [&acked](Tick t) { acked = t; };
    dev.access(std::move(w));
    eq.run();
    // NDR comes back after the down-link + ingress + up-link, well
    // before a full read round trip (no DRAM wait on the ack path).
    const Tick read_rt = readOnce(eq, dev, 4096) - acked;
    EXPECT_LT(acked, read_rt);
    EXPECT_GT(dev.backendStats().writes, 0u); // drained eventually
}

TEST(CxlDevice, ReadTrackerLimitsConcurrency)
{
    EventQueue eq;
    CxlMemDevice dev(eq, smallDevice());
    int completed = 0;
    for (int i = 0; i < 16; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 128 * kiB; // all row misses
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        r.source = static_cast<std::uint16_t>(i);
        r.onComplete = [&completed](Tick) { ++completed; };
        dev.access(std::move(r));
    }
    eq.run();
    EXPECT_EQ(completed, 16);
    EXPECT_GT(dev.controllerStats().readsStalled, 0u);
}

TEST(CxlDevice, WriteBufferHighWaterIsBounded)
{
    EventQueue eq;
    CxlDeviceParams p = smallDevice();
    CxlMemDevice dev(eq, p);
    for (int i = 0; i < 32; ++i) {
        MemRequest w;
        w.addr = static_cast<Addr>(i) * 128 * kiB;
        w.size = cachelineBytes;
        w.cmd = MemCmd::Write;
        w.source = static_cast<std::uint16_t>(i % 4);
        dev.access(std::move(w));
    }
    eq.run();
    EXPECT_LE(dev.controllerStats().writeBufferHighWater,
              p.writeBufferEntries);
    EXPECT_GT(dev.controllerStats().writesStalled, 0u);
    EXPECT_EQ(dev.backendStats().writes, 32u);
}

TEST(CxlDevice, NtPostedGateDelaysAcceptsWhenFull)
{
    EventQueue eq;
    CxlDeviceParams p = smallDevice(); // 8 posted slots
    CxlMemDevice dev(eq, p);
    int accepts_at_zero = 0;
    int accepted = 0;
    for (int i = 0; i < 24; ++i) {
        MemRequest w;
        w.addr = static_cast<Addr>(i) * 128 * kiB;
        w.size = cachelineBytes;
        w.cmd = MemCmd::NtWrite;
        w.onAccept = [&](Tick t) {
            ++accepted;
            if (t == 0)
                ++accepts_at_zero;
        };
        dev.access(std::move(w));
    }
    eq.run();
    EXPECT_EQ(accepted, 24);
    EXPECT_EQ(accepts_at_zero, 8);
}

TEST(CxlDevice, LinkBytesAccountedBothDirections)
{
    EventQueue eq;
    CxlDeviceParams p = testbed_params::agilexCxlDevice();
    CxlMemDevice dev(eq, p);
    readOnce(eq, dev, 0);
    // Read: header down, data flit up.
    EXPECT_EQ(dev.bytesDown(), p.link.headerBytes);
    EXPECT_EQ(dev.bytesUp(), p.link.dataBytes);
    dev.resetStats();
    MemRequest w;
    w.addr = 64;
    w.size = cachelineBytes;
    w.cmd = MemCmd::Write;
    dev.access(std::move(w));
    eq.run();
    // Write: data down, completion header up.
    EXPECT_EQ(dev.bytesDown(), p.link.dataBytes);
    EXPECT_EQ(dev.bytesUp(), p.link.headerBytes);
}

TEST(FairWaitQueue, RoundRobinsAcrossSources)
{
    FairWaitQueue q;
    // Source 0 floods slots 0..7; source 1 sends one request, slot 8.
    for (std::uint32_t slot = 0; slot < 8; ++slot)
        q.push(slot, /*source=*/0, 0);
    q.push(8, /*source=*/1, 0);
    std::vector<std::uint32_t> order;
    while (!q.empty())
        order.push_back(q.pop().first);
    ASSERT_EQ(order.size(), 9u);
    // Source 1's single request must be served within the first two
    // pops, not after source 0's entire backlog.
    EXPECT_TRUE(order[0] == 8 || order[1] == 8);
}

TEST(FairWaitQueue, FifoWithinOneSource)
{
    FairWaitQueue q;
    for (std::uint32_t slot = 0; slot < 4; ++slot)
        q.push(slot, /*source=*/5, Tick(slot));
    for (std::uint32_t slot = 0; slot < 4; ++slot) {
        const auto [popped, since] = q.pop();
        EXPECT_EQ(popped, slot);
        EXPECT_EQ(since, Tick(slot));
    }
}

TEST(CxlDevice, RequestsWaitInSlotsWithoutSpills)
{
    // 160 in flight overflow the read trackers, the write buffer and
    // the posted window, so the fair wait queues and the posted gate
    // hold slots too.
    EventQueue eq;
    CxlMemDevice dev(eq, testbed_params::agilexCxlDevice());
    SlotDrill drill(dev, 400);
    const std::uint64_t spills = poolThreadAllocCount();
    drill.start(160);
    eq.run();
    EXPECT_EQ(poolThreadAllocCount(), spills);
    drill.expectEachOnce();
    EXPECT_EQ(dev.slotsInUse(), 0u);
    EXPECT_EQ(dev.readsInFlight(), 0u);
    EXPECT_EQ(dev.writesBuffered(), 0u);
}

} // namespace
} // namespace cxlmemo
