/**
 * @file
 * Timing tests for the DRAM channel model: row-buffer behaviour, bank
 * parallelism, bus serialization, direction batching and the posted
 * NT-write gate.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "slot_drill.hh"

namespace cxlmemo
{
namespace
{

DramChannelParams
testParams()
{
    DramChannelParams p;
    p.name = "test";
    p.peakGBps = 32.0;
    p.busEfficiency = 1.0; // 64 B = 2 ns on the bus
    p.tRowHit = ticksFromNs(15.0);
    p.tRowMiss = ticksFromNs(45.0);
    p.tBankCycle = 0;
    p.tWriteRecovery = ticksFromNs(15.0);
    p.tTurnaround = ticksFromNs(8.0);
    p.tFrontend = ticksFromNs(10.0);
    p.numBanks = 16;
    p.rowBytes = 8 * kiB;
    p.bankStripeBytes = 1 * kiB;
    p.scanDepth = 16;
    p.maxHitRun = 16;
    p.ntPostedEntries = 4;
    p.writeEfficiency = 1.0;
    p.maxDirectionRun = 16;
    return p;
}

/** Address with a given bank and row under testParams(). */
Addr
addrOf(std::uint32_t bank, std::uint64_t row, std::uint64_t offset = 0)
{
    // bank stripe 1 KiB, 16 banks, 8 stripes per row:
    // position = row*8 + stripe_in_row ; addr = (pos*16 + bank)*1KiB.
    const std::uint64_t pos_in_bank = row * 8;
    return (pos_in_bank * 16 + bank) * 1024 + offset;
}

Tick
readOnce(EventQueue &eq, DramChannel &ch, Addr addr)
{
    Tick done = 0;
    MemRequest r;
    r.addr = addr;
    r.size = cachelineBytes;
    r.cmd = MemCmd::Read;
    r.onComplete = [&done](Tick t) { done = t; };
    ch.access(std::move(r));
    eq.run();
    return done;
}

TEST(DramChannel, ColdReadLatency)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    // frontend 10 + row miss 45 + bus 2 = 57 ns.
    EXPECT_EQ(readOnce(eq, ch, 0), ticksFromNs(57.0));
    EXPECT_EQ(ch.stats().rowMisses, 1u);
    EXPECT_EQ(ch.stats().reads, 1u);
    EXPECT_EQ(ch.stats().bytesRead, 64u);
}

TEST(DramChannel, RowHitIsFaster)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    const Tick first = readOnce(eq, ch, 0);
    const Tick second = readOnce(eq, ch, 64);
    // frontend 10 + row hit 15 + bus 2 = 27 ns for the hit.
    EXPECT_EQ(second - first, ticksFromNs(27.0));
    EXPECT_EQ(ch.stats().rowHits, 1u);
}

TEST(DramChannel, SameBankDifferentRowConflicts)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    readOnce(eq, ch, addrOf(0, 0));
    const Tick t0 = eq.curTick();
    const Tick done = readOnce(eq, ch, addrOf(0, 1));
    EXPECT_EQ(done - t0, ticksFromNs(57.0)); // full miss again
    EXPECT_EQ(ch.stats().rowMisses, 2u);
}

TEST(DramChannel, DifferentBanksOverlap)
{
    EventQueue eq;
    DramChannelParams p = testParams();
    DramChannel ch(eq, p);
    std::vector<Tick> done;
    for (std::uint32_t b = 0; b < 4; ++b) {
        MemRequest r;
        r.addr = addrOf(b, 0);
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        r.onComplete = [&done](Tick t) { done.push_back(t); };
        ch.access(std::move(r));
    }
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Bank phases overlap; the bus serializes at 2 ns per line, so
    // the last completion is ~6 ns after the first, not 4x57 ns.
    EXPECT_EQ(done[0], ticksFromNs(57.0));
    EXPECT_EQ(done[3] - done[0], ticksFromNs(6.0));
}

TEST(DramChannel, BusSerializesRowHits)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    // Stream 256 sequential lines in one stripe+row; steady-state
    // throughput must approach the 32 GB/s bus.
    std::uint64_t completed = 0;
    Tick last = 0;
    for (int i = 0; i < 16; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 64;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        r.onComplete = [&](Tick t) {
            ++completed;
            last = t;
        };
        ch.access(std::move(r));
    }
    eq.run();
    EXPECT_EQ(completed, 16u);
    // First line: 57 ns; each subsequent line: +2 ns bus slot.
    EXPECT_EQ(last, ticksFromNs(57.0 + 15 * 2.0));
}

TEST(DramChannel, WriteRecoveryExtendsConflicts)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    // Two conflicting writes to the same bank: the second must wait
    // out the first's (tRowMiss - tRowHit) + bus + tWR occupancy.
    std::vector<Tick> done;
    for (int row : {0, 1}) {
        MemRequest r;
        r.addr = addrOf(3, static_cast<std::uint64_t>(row));
        r.size = cachelineBytes;
        r.cmd = MemCmd::Write;
        r.onComplete = [&done](Tick t) { done.push_back(t); };
        ch.access(std::move(r));
    }
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // The first transfer pays the idle->write turnaround (8 ns).
    // Its bank occupancy = (45-15) + 2 + 15(tWR) = 47 ns; the second
    // write's bank phase starts then: 47 + 10 + 45 + 2 = 104 ns, with
    // the bus already in write mode (no second turnaround).
    EXPECT_EQ(done[0], ticksFromNs(57.0 + 8.0));
    EXPECT_EQ(done[1], ticksFromNs(104.0));
}

TEST(DramChannel, TurnaroundChargedOnDirectionSwitch)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    const Tick read_done = readOnce(eq, ch, addrOf(0, 0));
    Tick write_done = 0;
    MemRequest w;
    w.addr = addrOf(1, 0);
    w.size = cachelineBytes;
    w.cmd = MemCmd::Write;
    w.onComplete = [&](Tick t) { write_done = t; };
    const Tick t0 = eq.curTick();
    ch.access(std::move(w));
    eq.run();
    // 57 ns of pipeline plus one 8 ns read->write turnaround.
    EXPECT_EQ(write_done - t0, ticksFromNs(65.0));
    (void)read_done;
}

TEST(DramChannel, NtWriteAcceptPrecedesDrain)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    Tick accepted = maxTick;
    Tick drained = 0;
    MemRequest r;
    r.addr = 0;
    r.size = cachelineBytes;
    r.cmd = MemCmd::NtWrite;
    r.onAccept = [&](Tick t) { accepted = t; };
    r.onComplete = [&](Tick t) { drained = t; };
    ch.access(std::move(r));
    eq.run();
    EXPECT_EQ(accepted, 0u); // accepted immediately (gate empty)
    EXPECT_GT(drained, accepted);
}

TEST(DramChannel, NtPostedGateBackpressures)
{
    EventQueue eq;
    DramChannelParams p = testParams(); // gate depth 4
    DramChannel ch(eq, p);
    int accepts_at_zero = 0;
    int total_accepts = 0;
    for (int i = 0; i < 8; ++i) {
        MemRequest r;
        r.addr = addrOf(0, static_cast<std::uint64_t>(i)); // conflicts
        r.size = cachelineBytes;
        r.cmd = MemCmd::NtWrite;
        r.onAccept = [&, i](Tick t) {
            ++total_accepts;
            if (t == 0)
                ++accepts_at_zero;
        };
        ch.access(std::move(r));
    }
    eq.run();
    EXPECT_EQ(total_accepts, 8);
    EXPECT_EQ(accepts_at_zero, 4); // only the gate depth at tick 0
}

TEST(DramChannel, FrFcfsPrefersOpenRow)
{
    EventQueue eq;
    DramChannel ch(eq, testParams());
    // Open row 0 in bank 0, then enqueue row1, row0, row1, row0...
    // The scheduler should group the row-0 requests (hits).
    readOnce(eq, ch, addrOf(0, 0));
    std::uint64_t hits_before = ch.stats().rowHits;
    for (int i = 0; i < 6; ++i) {
        MemRequest r;
        r.addr = addrOf(0, (i % 2) ? 0 : 1, 64);
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        ch.access(std::move(r));
    }
    eq.run();
    // Naive in-order service would alternate rows: ~0 hits. FR-FCFS
    // serves the three open-row requests first, then the rest share
    // row 1: at least 4 hits.
    EXPECT_GE(ch.stats().rowHits - hits_before, 4u);
}

TEST(InterleavedMemory, SpreadsAcrossChannels)
{
    EventQueue eq;
    InterleavedMemory mem(eq, "node", testParams(), 4, 256);
    for (int i = 0; i < 16; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 256;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        mem.access(std::move(r));
    }
    eq.run();
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(mem.channel(c).stats().reads, 4u);
    EXPECT_EQ(mem.stats().reads, 16u);
}

TEST(InterleavedMemory, CompactsChannelLocalAddresses)
{
    EventQueue eq;
    InterleavedMemory mem(eq, "node", testParams(), 8, 256);
    // A global sequential sweep must stay row-sequential per channel:
    // 8 KiB of global space = 1 KiB per channel = all row hits after
    // each channel's first access.
    for (int i = 0; i < 128; ++i) {
        MemRequest r;
        r.addr = static_cast<Addr>(i) * 64;
        r.size = cachelineBytes;
        r.cmd = MemCmd::Read;
        mem.access(std::move(r));
    }
    eq.run();
    const DeviceStats s = mem.stats();
    EXPECT_EQ(s.rowMisses, 8u); // exactly one cold miss per channel
    EXPECT_EQ(s.rowHits, 120u);
}

TEST(InterleavedMemory, MoreChannelsMoreBandwidth)
{
    auto streamTime = [](std::uint32_t channels) {
        EventQueue eq;
        InterleavedMemory mem(eq, "node", testParams(), channels, 256);
        Tick last = 0;
        for (int i = 0; i < 512; ++i) {
            MemRequest r;
            r.addr = static_cast<Addr>(i) * 64;
            r.size = cachelineBytes;
            r.cmd = MemCmd::Read;
            r.onComplete = [&last](Tick t) { last = std::max(last, t); };
            mem.access(std::move(r));
        }
        eq.run();
        return last;
    };
    const Tick one = streamTime(1);
    const Tick four = streamTime(4);
    EXPECT_GT(one, four * 3); // near-linear channel scaling
}

TEST(DramChannelDeathTest, RejectsBadGeometry)
{
    EventQueue eq;
    DramChannelParams p = testParams();
    p.rowBytes = 1536; // not a whole number of stripes
    EXPECT_THROW(DramChannel(eq, p), std::invalid_argument);
}

TEST(DramChannel, RequestsWaitInSlotsWithoutSpills)
{
    // Banks, the bus queues and the posted gate (4 entries here) hold
    // slots, and every event captures {this, slot}: no request is
    // copied into a spilled callback cell on its way through.
    EventQueue eq;
    DramChannel ch(eq, testParams());
    SlotDrill drill(ch, 400);
    const std::uint64_t spills = poolThreadAllocCount();
    drill.start(64);
    eq.run();
    EXPECT_EQ(poolThreadAllocCount(), spills);
    drill.expectEachOnce();
    EXPECT_EQ(ch.slotsInUse(), 0u);
    EXPECT_EQ(ch.outstanding(), 0u);
}

} // namespace
} // namespace cxlmemo
