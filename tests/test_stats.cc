/**
 * @file
 * Tests for the statistics containers.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace cxlmemo
{
namespace
{

TEST(SampleSeries, ExactPercentiles)
{
    SampleSeries s;
    for (int i = 1; i <= 100; ++i)
        s.record(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(SampleSeries, NearestRankOnSmallSets)
{
    SampleSeries s;
    s.record(10.0);
    s.record(20.0);
    s.record(30.0);
    // nearest-rank: p99 of 3 samples = ceil(0.99*3)=3rd -> 30.
    EXPECT_DOUBLE_EQ(s.p99(), 30.0);
    EXPECT_DOUBLE_EQ(s.p50(), 20.0);
}

TEST(SampleSeries, UnsortedInputHandled)
{
    SampleSeries s;
    for (double v : {5.0, 1.0, 3.0, 2.0, 4.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(20), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(SampleSeries, EmptyReportsZeroNotNan)
{
    // Stats and CSV emitters run unconditionally, including for runs
    // that retired no requests; an empty series must report clean
    // zeros rather than asserting or dividing by zero.
    SampleSeries s;
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.p99(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

} // namespace
} // namespace cxlmemo
