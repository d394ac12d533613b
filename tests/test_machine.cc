/**
 * @file
 * Tests for testbed assembly (Table 1 machines).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "system/machine.hh"

namespace cxlmemo
{
namespace
{

TEST(Machine, SingleSocketHasLocalAndCxl)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_EQ(m.numa().numNodes(), 2u);
    EXPECT_FALSE(m.hasRemote());
    ASSERT_TRUE(m.hasCxl());
    EXPECT_EQ(m.numCores(), 32u);
    EXPECT_EQ(m.localMem().numChannels(), 8u);
    EXPECT_TRUE(m.numa().node(m.localNode()).hasCpu);
    EXPECT_FALSE(m.numa().node(m.cxlNode()).hasCpu);
    EXPECT_EQ(m.numa().node(m.cxlNode()).capacityBytes, 16 * giB);
    // The home-agent flushed-line handshake applies to HDM too.
    EXPECT_TRUE(m.numa().node(m.cxlNode()).flushHandshake);
}

TEST(Machine, DualSocketAddsRemoteNode)
{
    Machine m(Testbed::DualSocket);
    EXPECT_TRUE(m.hasRemote());
    EXPECT_EQ(m.numa().numNodes(), 3u);
    EXPECT_EQ(m.numCores(), 40u);
    EXPECT_EQ(m.caches().params().llc.sizeBytes, 105 * miB);
    EXPECT_EQ(m.remoteMem().params().numChannels, 1u);
}

TEST(Machine, SncQuadrantShrinksLlcAndChannels)
{
    Machine m(Testbed::SncQuadrantCxl);
    EXPECT_EQ(m.localMem().numChannels(), 2u);
    EXPECT_EQ(m.caches().params().llc.sizeBytes, 15 * miB);
    EXPECT_TRUE(m.hasCxl());
}

TEST(Machine, OptionsOverridePreset)
{
    MachineOptions o;
    o.prefetchEnabled = true;
    Machine m(Testbed::SingleSocketCxl, o);
    EXPECT_TRUE(m.caches().params().prefetchEnabled);
}

TEST(Machine, ConfigStringMentionsAllNodes)
{
    Machine m(Testbed::DualSocket);
    const std::string s = m.configString();
    EXPECT_NE(s.find("local-ddr5"), std::string::npos);
    EXPECT_NE(s.find("remote-ddr5"), std::string::npos);
    EXPECT_NE(s.find("cxl-dram"), std::string::npos);
    EXPECT_NE(s.find("CPU-less"), std::string::npos);
    // The 105 MiB requested LLC holds 65,536 of its 114,688 sets:
    // Table 1 prints what the model holds.
    EXPECT_NE(s.find("L1D 48 KiB, L2 2 MiB, LLC 60 MiB shared"),
              std::string::npos)
        << s;
}

TEST(Machine, MakeThreadRespectsCoreBound)
{
    Machine m(Testbed::SingleSocketCxl);
    auto t = m.makeThread(31);
    EXPECT_EQ(t->core(), 31);
    EXPECT_DEATH(m.makeThread(32), "beyond testbed");
}

TEST(Machine, CxlNodeAccessorsFatalWhenAbsent)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_DEATH(m.remoteNode(), "no remote socket");
}

TEST(Machine, DsaIsAvailable)
{
    Machine m(Testbed::SingleSocketCxl);
    EXPECT_EQ(m.dsa().params().numEngines, 4u);
}

TEST(Machine, StatsReportReflectsTraffic)
{
    Machine m(Testbed::SingleSocketCxl);
    NumaBuffer buf =
        m.numa().alloc(16 * miB, MemPolicy::membind(m.cxlNode()));
    for (int i = 0; i < 64; ++i) {
        m.caches().load(0, buf.translate(std::uint64_t(i) * 4096),
                        m.eq().curTick(), nullptr);
        m.eq().run();
    }
    const std::string s = m.statsString();
    EXPECT_NE(s.find("cxl-dram"), std::string::npos);
    EXPECT_NE(s.find("reads 64"), std::string::npos);
    EXPECT_NE(s.find("llc"), std::string::npos);
    EXPECT_NE(s.find("link bytes"), std::string::npos);
}

TEST(Machine, DisabledFaultSpecIsZeroCost)
{
    // A default (all-zero) FaultSpec must not even build an injector:
    // the machine behaves bit-identically to one that never heard of
    // faults.
    MachineOptions o;
    EXPECT_FALSE(o.faults.enabled());
    Machine plain(Testbed::SingleSocketCxl);
    Machine specd(Testbed::SingleSocketCxl, o);
    EXPECT_EQ(specd.faults(), nullptr);
    EXPECT_EQ(specd.rasStats(), nullptr);

    auto drive = [](Machine &m) {
        NumaBuffer buf =
            m.numa().alloc(4 * miB, MemPolicy::membind(m.cxlNode()));
        for (int i = 0; i < 64; ++i) {
            m.caches().load(0, buf.translate(std::uint64_t(i) * 4096),
                            m.eq().curTick(), nullptr);
            m.eq().run();
        }
        return m.statsString();
    };
    EXPECT_EQ(drive(plain), drive(specd));
    EXPECT_EQ(drive(plain).find("ras:"), std::string::npos);
}

TEST(Machine, FaultSpecValidatedAtConstruction)
{
    MachineOptions o;
    o.faults.crcPerFlit = 7.0; // not a probability
    EXPECT_THROW(Machine(Testbed::SingleSocketCxl, o),
                 std::invalid_argument);
}

TEST(Machine, ResetStatsClearsDeviceCounters)
{
    Machine m(Testbed::SingleSocketCxl);
    NumaBuffer buf =
        m.numa().alloc(1 * miB, MemPolicy::membind(m.localNode()));
    m.caches().load(0, buf.translate(0), 0, nullptr);
    m.eq().run();
    EXPECT_GT(m.localMem().stats().reads, 0u);
    m.resetStats();
    EXPECT_EQ(m.localMem().stats().reads, 0u);
}

} // namespace
} // namespace cxlmemo
