/**
 * @file
 * Integration tests for the MEMO microbenchmark suite: the relations
 * the paper reports must hold in the simulation (these are the
 * shape-level acceptance criteria of EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include "memo/memo.hh"

namespace cxlmemo
{
namespace
{

memo::Options
fastOpts()
{
    memo::Options o;
    o.warmupUs = 20.0;
    o.measureUs = 60.0;
    return o;
}

TEST(MemoLatency, OrderingAcrossTargets)
{
    const auto local = memo::runLatency(memo::Target::Ddr5Local);
    const auto remote = memo::runLatency(memo::Target::Ddr5Remote);
    const auto cxl = memo::runLatency(memo::Target::Cxl);

    // Paper Fig. 2 orderings.
    EXPECT_LT(local.loadNs, remote.loadNs);
    EXPECT_LT(remote.loadNs, cxl.loadNs);
    EXPECT_LT(local.ptrChaseNs, remote.ptrChaseNs);
    EXPECT_LT(remote.ptrChaseNs, cxl.ptrChaseNs);

    // nt-store + sfence is far cheaper than store + clwb everywhere.
    EXPECT_LT(local.ntStoreNs, local.storeWbNs);
    EXPECT_LT(remote.ntStoreNs, remote.storeWbNs);
    EXPECT_LT(cxl.ntStoreNs, cxl.storeWbNs);
}

TEST(MemoLatency, PaperRatiosHold)
{
    const auto local = memo::runLatency(memo::Target::Ddr5Local);
    const auto remote = memo::runLatency(memo::Target::Ddr5Remote);
    const auto cxl = memo::runLatency(memo::Target::Cxl);

    // "CXL memory access latency is about 2.2x higher than DDR5-L8".
    EXPECT_NEAR(cxl.loadNs / local.loadNs, 2.2, 0.5);
    // "DDR5-R1 is 1x ~ 2.5x higher than DDR5-L8".
    EXPECT_GT(remote.loadNs / local.loadNs, 1.0);
    EXPECT_LT(remote.loadNs / local.loadNs, 2.5);
    // "pointer chasing in CXL has 3.7x higher latency than DDR5-L8".
    EXPECT_NEAR(cxl.ptrChaseNs / local.ptrChaseNs, 3.7, 0.8);
    // "...and 2.2x higher than DDR5-R1".
    EXPECT_NEAR(cxl.ptrChaseNs / remote.ptrChaseNs, 2.2, 0.5);
}

TEST(MemoWssSweep, CrossesCacheLevels)
{
    const auto lat = memo::runPtrChaseWssSweep(
        memo::Target::Ddr5Local,
        {16 * kiB, 1 * miB, 16 * miB, 256 * miB});
    ASSERT_EQ(lat.size(), 4u);
    EXPECT_LT(lat[0], 5.0);   // L1-resident
    EXPECT_LT(lat[1], 15.0);  // L2-resident
    EXPECT_LT(lat[2], 40.0);  // LLC-resident
    EXPECT_GT(lat[3], 80.0);  // memory-resident
}

TEST(MemoSeqBandwidth, Ddr5ScalesCxlSaturates)
{
    const auto opts = fastOpts();
    const double l8_1 = memo::runSeqBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 1, opts);
    const double l8_16 = memo::runSeqBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 16, opts);
    EXPECT_GT(l8_16, 8 * l8_1); // near-linear scaling

    const double cxl_8 = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 8, opts);
    const double cxl_32 = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 32, opts);
    EXPECT_LT(cxl_8, 22.0);      // bounded by DDR4-2666
    EXPECT_LT(cxl_32, cxl_8);    // declines beyond the peak
    EXPECT_GT(cxl_32, 0.5 * cxl_8);
}

TEST(MemoSeqBandwidth, CxlNtStorePeaksEarlyThenDrops)
{
    const auto opts = fastOpts();
    const double nt2 = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::NtStore, 2, opts);
    const double nt16 = memo::runSeqBandwidth(
        memo::Target::Cxl, MemOp::Kind::NtStore, 16, opts);
    EXPECT_GT(nt2, 12.0);  // near the DDR4 theoretical max
    EXPECT_LT(nt16, nt2);  // collapses with thread count
}

TEST(MemoSeqBandwidth, TemporalStoresLoseToNtStores)
{
    const auto opts = fastOpts();
    for (auto target : {memo::Target::Ddr5Local, memo::Target::Cxl}) {
        const double st = memo::runSeqBandwidth(
            target, MemOp::Kind::Store, 8, opts);
        const double nt = memo::runSeqBandwidth(
            target, MemOp::Kind::NtStore, 2, opts);
        // RFO halves effective write throughput (and worse on CXL).
        EXPECT_LT(st / 8 * 2, nt * 1.5)
            << "target " << memo::targetName(target);
    }
}

TEST(MemoRandBandwidth, BlockSizeHelpsEveryone)
{
    const auto opts = fastOpts();
    for (auto target : {memo::Target::Ddr5Local, memo::Target::Cxl}) {
        const double small = memo::runRandBandwidth(
            target, MemOp::Kind::Load, 1, 1 * kiB, opts);
        const double large = memo::runRandBandwidth(
            target, MemOp::Kind::Load, 1, 64 * kiB, opts);
        EXPECT_GE(large, small * 0.95)
            << "target " << memo::targetName(target);
    }
}

TEST(MemoRandBandwidth, ThreadScalingDivergesAt16KiB)
{
    const auto opts = fastOpts();
    // Paper: at 16 KiB blocks, DDR5-L8 keeps scaling with threads
    // while CXL stops gaining after ~4 threads.
    const double l8_4 = memo::runRandBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 4, 16 * kiB, opts);
    const double l8_32 = memo::runRandBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 32, 16 * kiB, opts);
    EXPECT_GT(l8_32, 3 * l8_4);

    const double cxl_4 = memo::runRandBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 4, 16 * kiB, opts);
    const double cxl_32 = memo::runRandBandwidth(
        memo::Target::Cxl, MemOp::Kind::Load, 32, 16 * kiB, opts);
    EXPECT_LT(cxl_32, 1.3 * cxl_4);
}

TEST(MemoLoadedLatency, RisesWithBackgroundTraffic)
{
    const auto opts = fastOpts();
    const double idle =
        memo::runLoadedLatency(memo::Target::Cxl, 1, opts);
    const double loaded =
        memo::runLoadedLatency(memo::Target::Cxl, 12, opts);
    EXPECT_GT(loaded, idle * 1.2);
}

TEST(MemoDataMove, PathAsymmetries)
{
    // Fig. 4 relations.
    const double d2d = memo::runCopyBandwidth(
        memo::CopyPath::D2D, memo::CopyMethod::DsaAsync, 16);
    const double d2c = memo::runCopyBandwidth(
        memo::CopyPath::D2C, memo::CopyMethod::DsaAsync, 16);
    const double c2d = memo::runCopyBandwidth(
        memo::CopyPath::C2D, memo::CopyMethod::DsaAsync, 16);
    const double c2c = memo::runCopyBandwidth(
        memo::CopyPath::C2C, memo::CopyMethod::DsaAsync, 16);
    EXPECT_GT(d2d, d2c);
    EXPECT_GT(c2d, d2c * 0.99); // "C2D higher due to faster writes"
    EXPECT_GT(d2c, c2c);        // splitting beats CXL-only
    EXPECT_GT(c2d, c2c);
}

TEST(MemoDataMove, AsyncAndBatchingImprove)
{
    const double sync1 = memo::runCopyBandwidth(
        memo::CopyPath::D2D, memo::CopyMethod::DsaSync, 1);
    const double async1 = memo::runCopyBandwidth(
        memo::CopyPath::D2D, memo::CopyMethod::DsaAsync, 1);
    const double async16 = memo::runCopyBandwidth(
        memo::CopyPath::D2D, memo::CopyMethod::DsaAsync, 16);
    EXPECT_GT(async1, 1.5 * sync1);
    EXPECT_GT(async16, 1.2 * async1);
}

TEST(MemoDataMove, MovdirBeatsMemcpyTowardCxl)
{
    const double memcpy_d2c = memo::runCopyBandwidth(
        memo::CopyPath::D2C, memo::CopyMethod::Memcpy);
    const double movdir_d2c = memo::runCopyBandwidth(
        memo::CopyPath::D2C, memo::CopyMethod::Movdir64);
    // The paper's first guideline: cache-bypassing stores win for
    // CXL-bound data movement (no RFO round trips over the link).
    EXPECT_GT(movdir_d2c, 1.5 * memcpy_d2c);
}

TEST(MemoPrefetch, HelpsSequentialSingleThread)
{
    memo::Options on = fastOpts();
    on.prefetchEnabled = true;
    const double with_pf = memo::runSeqBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 1, on);
    const double without = memo::runSeqBandwidth(
        memo::Target::Ddr5Local, MemOp::Kind::Load, 1, fastOpts());
    EXPECT_GT(with_pf, without);
}

TEST(Memo, MakeMachineKeepsEveryMachineOption)
{
    memo::Options o;
    o.tlbEnabled = true;
    o.cxlDevice = testbed_params::agilexCxlDevice();
    o.cxlDevice->name = "asic0";
    o.faults.crcPerFlit = 1e-4;
    std::string err;
    const auto qos = QosSpec::parse("credits=24", err);
    ASSERT_TRUE(qos.has_value()) << err;
    o.qos = *qos;
    o.watchdogInterval = ticksFromNs(5000.0);
    o.obs.attribution = true;
    o.prefetchEnabled = true;

    auto m = memo::makeMachine(memo::Target::Cxl, o, /*prefetch=*/false);
    EXPECT_TRUE(m->caches().params().tlbEnabled);
    EXPECT_EQ(m->cxlDev().name(), "asic0");
    EXPECT_NE(m->faults(), nullptr);
    EXPECT_TRUE(m->qosStats().has_value());
    EXPECT_NE(m->attribution(), nullptr);
    // The prefetch argument wins over opts.prefetchEnabled.
    EXPECT_FALSE(m->caches().params().prefetchEnabled);
    // The watchdog takes its first snapshot one interval in (an
    // observer event fires only while other work is pending).
    ASSERT_NE(m->watchdog(), nullptr);
    m->eq().schedule(ticksFromNs(6000.0), [] {});
    m->runUntil(ticksFromNs(5000.0) - 1);
    EXPECT_EQ(m->watchdog()->snapshots(), 0u);
    m->runUntil(ticksFromNs(5000.0));
    EXPECT_EQ(m->watchdog()->snapshots(), 1u);

    o.prefetchEnabled = false;
    EXPECT_TRUE(memo::makeMachine(memo::Target::Cxl, o, /*prefetch=*/true)
                    ->caches()
                    .params()
                    .prefetchEnabled);
}

} // namespace
} // namespace cxlmemo
