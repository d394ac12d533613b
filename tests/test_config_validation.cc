/**
 * @file
 * Parameter-validation tests: every hardware-parameter struct rejects
 * out-of-range values with std::invalid_argument at construction
 * time, so a bad testbed override fails loudly instead of simulating
 * nonsense.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/cache.hh"
#include "cxl/device.hh"
#include "cxl/link.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"

namespace cxlmemo
{
namespace
{

/* --------------------------- link -------------------------------- */

TEST(ConfigValidation, DefaultLinkParamsAreValid)
{
    EXPECT_NO_THROW(CxlLinkParams{}.validate());
}

TEST(ConfigValidation, LinkRejectsBadRates)
{
    CxlLinkParams p;
    p.rawGBps = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlLinkParams{};
    p.rawGBps = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlLinkParams{};
    p.flitEfficiency = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlLinkParams{};
    p.flitEfficiency = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigValidation, LinkRejectsZeroMessageCostsAndRetryBuffer)
{
    CxlLinkParams p;
    p.headerBytes = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlLinkParams{};
    p.dataBytes = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlLinkParams{};
    p.retryBufferFlits = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigValidation, LinkDirectionValidatesAtConstruction)
{
    EventQueue eq;
    CxlLinkParams p;
    p.rawGBps = 0.0;
    EXPECT_THROW(CxlLinkDirection(eq, p), std::invalid_argument);
}

/* --------------------------- cache ------------------------------- */

TEST(ConfigValidation, CacheRejectsBadGeometry)
{
    EXPECT_NO_THROW(CacheParams{}.validate());
    EXPECT_NO_THROW(SetAssocCache({"c", cachelineBytes * 16, 16, 0}));
    EXPECT_NO_THROW(SetAssocCache({"c", cachelineBytes * 4, 4, 0}));
    EXPECT_THROW(SetAssocCache({"c", 4 * kiB, 0, 0}),
                 std::invalid_argument);
    EXPECT_THROW(SetAssocCache({"c", 4 * kiB, 17, 0}),
                 std::invalid_argument);
    EXPECT_THROW(SetAssocCache({"c", cachelineBytes * 4 - 1, 4, 0}),
                 std::invalid_argument);
    EXPECT_THROW(SetAssocCache({"c", 0, 1, 0}), std::invalid_argument);
}

/* --------------------------- device ------------------------------ */

TEST(ConfigValidation, DefaultDeviceParamsAreValid)
{
    EXPECT_NO_THROW(CxlDeviceParams{}.validate());
}

TEST(ConfigValidation, DeviceRejectsZeroQueues)
{
    CxlDeviceParams p;
    p.readQueueEntries = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlDeviceParams{};
    p.writeBufferEntries = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlDeviceParams{};
    p.hostPostedEntries = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlDeviceParams{};
    p.backendChannels = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigValidation, DeviceValidatesNestedLinkAndBackend)
{
    CxlDeviceParams p;
    p.link.flitEfficiency = 2.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CxlDeviceParams{};
    p.backend.numBanks = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigValidation, DeviceCtorValidates)
{
    EventQueue eq;
    CxlDeviceParams p;
    p.readQueueEntries = 0;
    EXPECT_THROW(CxlMemDevice(eq, p), std::invalid_argument);
}

/* ---------------------------- DRAM ------------------------------- */

TEST(ConfigValidation, DefaultDramParamsAreValid)
{
    EXPECT_NO_THROW(DramChannelParams{}.validate());
}

TEST(ConfigValidation, DramRejectsEachBadClause)
{
    DramChannelParams p;
    p.numBanks = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.peakGBps = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.busEfficiency = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.busEfficiency = 1.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.writeEfficiency = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.rowBytes = cachelineBytes / 2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.bankStripeBytes = cachelineBytes / 2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.rowBytes = 8 * kiB;
    p.bankStripeBytes = 3 * kiB; // row is not a whole number of stripes
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.scanDepth = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.maxHitRun = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.maxDirectionRun = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = DramChannelParams{};
    p.ntPostedEntries = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigValidation, DramChannelCtorValidates)
{
    EventQueue eq;
    DramChannelParams p;
    p.busEfficiency = 0.0;
    EXPECT_THROW(DramChannel(eq, p), std::invalid_argument);
}

TEST(ConfigValidation, InterleavedMemoryRejectsZeroChannels)
{
    EventQueue eq;
    EXPECT_THROW(
        InterleavedMemory(eq, "mem", DramChannelParams{}, 0, 256),
        std::invalid_argument);
}

/* ------------------------- event queue --------------------------- */

TEST(ConfigValidation, ScheduleInRejectsNegativeAndOverflowingDelays)
{
    // Same throwing style as the parameter structs: a delay that wraps
    // the tick counter (which is what a negative delay looks like once
    // cast to the unsigned Tick) is a caller bug, reported eagerly.
    EventQueue eq;
    eq.schedule(1000, [] {});
    eq.run();
    EXPECT_THROW(eq.scheduleIn(static_cast<Tick>(-1), [] {}),
                 std::invalid_argument);
    EXPECT_THROW(eq.scheduleIn(maxTick, [] {}), std::invalid_argument);
    EXPECT_NO_THROW(eq.scheduleIn(0, [] {}));
}

/* -------------------------- fault spec --------------------------- */

TEST(ConfigValidation, FaultSpecDefaultIsValid)
{
    EXPECT_NO_THROW(FaultSpec{}.validate());
}

TEST(ConfigValidation, FaultSpecRejectsBadProbabilitiesAndRetries)
{
    FaultSpec s;
    s.dramStallRate = 1.0001;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = FaultSpec{};
    s.timeoutRate = -0.5;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = FaultSpec{};
    s.maxHostRetries = 17;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = FaultSpec{};
    s.requestTimeout = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = FaultSpec{};
    s.backoffBase = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

} // namespace
} // namespace cxlmemo
