/**
 * @file
 * Tests for SweepRunner: positional determinism, worker pooling,
 * exception propagation -- and the contract the figure benches rely
 * on: a sweep's rendered output is byte-identical for every job count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memo/memo.hh"
#include "sim/sweep.hh"

namespace cxlmemo
{
namespace
{

TEST(SweepRunner, SerialMapReturnsResultsInIndexOrder)
{
    SweepRunner pool(1);
    const auto r = pool.map(5, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    EXPECT_EQ(r, (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(SweepRunner, ParallelMapReturnsResultsInIndexOrder)
{
    SweepRunner pool(4);
    const auto r = pool.map(100, [](std::size_t i) {
        return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(r.size(), 100u);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(i) * 3);
}

TEST(SweepRunner, EveryIndexRunsExactlyOnce)
{
    SweepRunner pool(8);
    std::vector<std::atomic<int>> hits(64);
    pool.forEach(64, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, SerialModeRunsOnCallingThread)
{
    SweepRunner pool(1);
    const auto caller = std::this_thread::get_id();
    pool.forEach(3, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(SweepRunner, ZeroJobsMeansHardwareConcurrency)
{
    SweepRunner pool(0);
    EXPECT_GE(pool.jobs(), 1u);
}

TEST(SweepRunner, MorePointsThanJobsAllComplete)
{
    SweepRunner pool(3);
    std::atomic<int> total{0};
    pool.forEach(57, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 57);
}

TEST(SweepRunner, MoreJobsThanPointsAllComplete)
{
    SweepRunner pool(16);
    const auto r = pool.map(2, [](std::size_t i) {
        return static_cast<int>(i) + 1;
    });
    EXPECT_EQ(r, (std::vector<int>{1, 2}));
}

TEST(SweepRunner, EmptySweepReturnsEmpty)
{
    SweepRunner pool(4);
    const auto r = pool.map(0, [](std::size_t) { return 1; });
    EXPECT_TRUE(r.empty());
}

TEST(SweepRunner, ExceptionsPropagateToCaller)
{
    SweepRunner pool(4);
    EXPECT_THROW(pool.forEach(32,
                              [](std::size_t i) {
                                  if (i == 7)
                                      throw std::runtime_error("point 7");
                              }),
                 std::runtime_error);
}

TEST(SweepRunner, SerialExceptionsPropagateToCaller)
{
    SweepRunner pool(1);
    EXPECT_THROW(pool.forEach(3,
                              [](std::size_t) {
                                  throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
}

TEST(SweepRunner, NonTrivialResultsSurviveTheHandoff)
{
    SweepRunner pool(4);
    const auto r = pool.map(20, [](std::size_t i) {
        return std::string(i, 'x');
    });
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i].size(), i);
}

/**
 * The contract the memo CLI and figure benches build on: running the
 * same simulated sweep with different job counts produces the same
 * result vector, so a CSV rendered from it is byte-identical.
 */
TEST(SweepRunner, SimulatedSweepIsDeterministicAcrossJobCounts)
{
    memo::Options opts;
    opts.warmupUs = 5.0;
    opts.measureUs = 20.0;
    const std::vector<std::uint32_t> threads = {1, 2};

    auto point = [&](std::size_t i) {
        return memo::runSeqBandwidth(memo::Target::Ddr5Local,
                                     MemOp::Kind::Load, threads[i],
                                     opts);
    };

    auto renderCsv = [&](const std::vector<double> &bws) {
        std::string csv = "target,op,threads,gbps\n";
        for (std::size_t i = 0; i < bws.size(); ++i) {
            char line[128];
            std::snprintf(line, sizeof(line), "%s,%s,%u,%.2f\n",
                          memo::targetName(memo::Target::Ddr5Local),
                          "load", threads[i], bws[i]);
            csv += line;
        }
        return csv;
    };

    SweepRunner serial(1);
    SweepRunner wide(4);
    const std::string csv1 =
        renderCsv(serial.map(threads.size(), point));
    const std::string csv4 = renderCsv(wide.map(threads.size(), point));
    EXPECT_EQ(csv1, csv4);
    EXPECT_NE(csv1.find("DDR5-L8,load,1,"), std::string::npos);
}

/**
 * Fault injection keeps that contract: every sweep point builds its
 * own Machine whose injector is seeded from the spec, so the fault
 * sequence -- and therefore both the figure values and the RAS
 * counters -- is identical for any job count.
 */
TEST(SweepRunner, FaultSweepIsDeterministicAcrossJobCounts)
{
    memo::Options opts;
    opts.warmupUs = 5.0;
    opts.measureUs = 20.0;
    opts.faults.crcPerFlit = 1e-3;
    opts.faults.readPoisonRate = 1e-4;
    const std::vector<std::uint32_t> threads = {1, 2, 4};

    auto point = [&](std::size_t i) {
        RasStats ras;
        memo::Options o = opts;
        o.onMachineDone = [&ras](Machine &m) {
            if (const RasStats *rs = m.rasStats())
                ras = *rs;
        };
        const double bw = memo::runSeqBandwidth(
            memo::Target::Cxl, MemOp::Kind::Load, threads[i], o);
        char line[512];
        std::snprintf(line, sizeof(line), "%u,%.3f,%s\n", threads[i],
                      bw, ras.summary().c_str());
        return std::string(line);
    };

    SweepRunner serial(1);
    SweepRunner wide(4);
    const auto rows1 = serial.map(threads.size(), point);
    const auto rows4 = wide.map(threads.size(), point);
    EXPECT_EQ(rows1, rows4);
    // Faults actually fired: the rendered rows carry nonzero CRC
    // counts, not an all-zero summary.
    EXPECT_EQ(rows1[0].find("crc-errors=0 "), std::string::npos);
}

} // namespace
} // namespace cxlmemo
