/**
 * @file
 * Tests for the CXL link direction model and the logging/assert
 * plumbing it depends on.
 */

#include <gtest/gtest.h>

#include "cxl/link.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace cxlmemo
{
namespace
{

CxlLinkParams
testLink()
{
    CxlLinkParams p;
    p.rawGBps = 64.0;
    p.flitEfficiency = 0.5; // effective 32 GB/s: easy arithmetic
    p.propagation = ticksFromNs(10.0);
    return p;
}

TEST(CxlLink, SingleMessageLatency)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    // 64 B at 32 GB/s = 2 ns serialization + 10 ns propagation.
    EXPECT_EQ(dir.transmit(64), ticksFromNs(12.0));
    EXPECT_EQ(dir.bytesMoved(), 64u);
}

TEST(CxlLink, BackToBackMessagesSerialize)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    const Tick first = dir.transmit(64);
    const Tick second = dir.transmit(64);
    // The second message queues behind the first on the wire but the
    // propagation overlaps: arrivals are pipelined 2 ns apart.
    EXPECT_EQ(second - first, ticksFromNs(2.0));
}

TEST(CxlLink, IdleLinkRestartsFromNow)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    dir.transmit(64);
    eq.schedule(ticksFromNs(100.0), [] {});
    eq.run();
    // At t=100 the wire has long been free: full latency again.
    EXPECT_EQ(dir.transmit(64), ticksFromNs(112.0));
}

TEST(CxlLink, ThroughputMatchesEffectiveRate)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    Tick last = 0;
    for (int i = 0; i < 1000; ++i)
        last = dir.transmit(68);
    // 1000 x 68 B at 32 GB/s effective = 2.125 us + 10 ns propagation.
    EXPECT_NEAR(nsFromTicks(last), 68.0 * 1000 / 32.0 + 10.0, 2.0);
    EXPECT_EQ(dir.bytesMoved(), 68000u);
}

TEST(CxlLink, ResetStatsClearsBytes)
{
    EventQueue eq;
    CxlLinkDirection dir(eq, testLink());
    dir.transmit(100);
    dir.resetStats();
    EXPECT_EQ(dir.bytesMoved(), 0u);
}

TEST(Logging, FormatHandlesArguments)
{
    using logging_detail::format;
    EXPECT_EQ(format("plain"), "plain");
    EXPECT_EQ(format("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(format("%s", ""), "");
}

TEST(LoggingDeathTest, AssertMessageKeepsPercentLiterals)
{
    // Conditions containing '%' must not be treated as a format
    // string (regression test for the printf-injection bug).
    auto boom = [] {
        const int rowBytes = 3;
        CXLMEMO_ASSERT(rowBytes % 2 == 0);
    };
    EXPECT_DEATH(boom(), "rowBytes % 2 == 0");
}

} // namespace
} // namespace cxlmemo
