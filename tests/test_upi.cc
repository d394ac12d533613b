/**
 * @file
 * Tests for the UPI remote-memory path.
 */

#include <gtest/gtest.h>

#include "interconnect/upi.hh"
#include "sim/event_queue.hh"
#include "system/machine.hh"
#include "slot_drill.hh"

namespace cxlmemo
{
namespace
{

Tick
readOnce(EventQueue &eq, UpiRemoteMemory &mem, Addr addr)
{
    Tick done = 0;
    MemRequest r;
    r.addr = addr;
    r.size = cachelineBytes;
    r.cmd = MemCmd::Read;
    r.onComplete = [&done](Tick t) { done = t; };
    mem.access(std::move(r));
    eq.run();
    return done;
}

TEST(UpiRemoteMemory, AddsTwoHopsToDramLatency)
{
    EventQueue eq;
    UpiParams p = testbed_params::uiPathToRemote();
    UpiRemoteMemory remote(eq, p);

    EventQueue eq2;
    DramChannel bare(eq2, testbed_params::remoteDdr5Channel());
    Tick bare_done = 0;
    MemRequest r;
    r.addr = 0;
    r.size = cachelineBytes;
    r.cmd = MemCmd::Read;
    r.onComplete = [&bare_done](Tick t) { bare_done = t; };
    bare.access(std::move(r));
    eq2.run();

    const Tick remote_done = readOnce(eq, remote, 0);
    const Tick overhead = remote_done - bare_done;
    // Two hop latencies plus both serializations.
    EXPECT_GE(overhead, 2 * p.hopLatency);
    EXPECT_LE(overhead, 2 * p.hopLatency + ticksFromNs(10.0));
}

TEST(UpiRemoteMemory, CountsLinkBytesAsymmetrically)
{
    EventQueue eq;
    UpiParams p = testbed_params::uiPathToRemote();
    UpiRemoteMemory remote(eq, p);
    readOnce(eq, remote, 0);
    // Read: header down, header+data up.
    EXPECT_EQ(remote.bytesDown(), p.headerBytes);
    EXPECT_EQ(remote.bytesUp(), p.headerBytes + cachelineBytes);

    remote.resetStats();
    MemRequest w;
    w.addr = 64;
    w.size = cachelineBytes;
    w.cmd = MemCmd::Write;
    remote.access(std::move(w));
    eq.run();
    EXPECT_EQ(remote.bytesDown(), p.headerBytes + cachelineBytes);
    EXPECT_EQ(remote.bytesUp(), p.headerBytes);
}

TEST(UpiRemoteMemory, NtWriteAcceptFlowsThroughToChannelGate)
{
    EventQueue eq;
    UpiRemoteMemory remote(eq, testbed_params::uiPathToRemote());
    Tick accepted = 0;
    Tick drained = 0;
    MemRequest w;
    w.addr = 0;
    w.size = cachelineBytes;
    w.cmd = MemCmd::NtWrite;
    w.onAccept = [&](Tick t) { accepted = t; };
    w.onComplete = [&](Tick t) { drained = t; };
    remote.access(std::move(w));
    eq.run();
    EXPECT_GT(accepted, 0u); // after link delivery
    EXPECT_GT(drained, accepted);
}

TEST(UpiRemoteMemory, BandwidthBoundedByLink)
{
    EventQueue eq;
    UpiParams p = testbed_params::uiPathToRemote();
    p.linkGBps = 10.0; // deliberately slower than the DDR5 channel
    UpiRemoteMemory remote(eq, p);
    // Saturate with reads; completion rate must be link-bound.
    std::uint64_t completed = 0;
    std::function<void(Addr)> issue = [&](Addr a) {
        MemRequest r;
        r.addr = a;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        r.onComplete = [&, a](Tick) {
            ++completed;
            issue(a + 16 * cachelineBytes);
        };
        remote.access(std::move(r));
    };
    for (int i = 0; i < 32; ++i)
        issue(static_cast<Addr>(i) * cachelineBytes);
    eq.runUntil(ticksFromUs(100.0));
    const double gbps =
        gbPerSec(completed * cachelineBytes, ticksFromUs(100.0));
    // Up-link carries 80 B per 64 B payload at 10 GB/s -> 8 GB/s max.
    EXPECT_LT(gbps, 8.5);
    EXPECT_GT(gbps, 6.0);
}

TEST(UpiRemoteMemory, RequestsWaitInSlotsWithoutSpills)
{
    // The request waits in a slot across both hops; the remote
    // channel keeps its own copy in its own slots.
    EventQueue eq;
    UpiRemoteMemory remote(eq, testbed_params::uiPathToRemote());
    SlotDrill drill(remote, 400);
    const std::uint64_t spills = poolThreadAllocCount();
    drill.start(64);
    eq.run();
    EXPECT_EQ(poolThreadAllocCount(), spills);
    drill.expectEachOnce();
    EXPECT_EQ(remote.slotsInUse(), 0u);
}

} // namespace
} // namespace cxlmemo
