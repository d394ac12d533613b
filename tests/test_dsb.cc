/**
 * @file
 * Tests for the DeathStarBench-style social-network model.
 */

#include <gtest/gtest.h>

#include "apps/dsb/dsb.hh"

namespace cxlmemo
{
namespace dsb
{
namespace
{

DsbParams
lightParams()
{
    DsbParams p;
    p.numPosts = 200'000;
    p.numUsers = 100'000;
    p.followersPerPost = 20;
    return p;
}

TEST(DsbStage, RunsQueuedWorkInOrder)
{
    Machine m(Testbed::SingleSocketCxl);
    Stage stage(m, 0, 1);
    std::vector<int> done;
    for (int i = 0; i < 3; ++i) {
        stage.submit({{MemOp::Kind::Compute, 0, 0, ticksFromUs(10)}},
                     [&done, i](Tick) { done.push_back(i); });
    }
    m.eq().run();
    EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(stage.completed(), 3u);
}

TEST(DsbStage, PoolRunsWorkInParallel)
{
    Machine m(Testbed::SingleSocketCxl);
    Stage wide(m, 0, 4);
    Tick last = 0;
    for (int i = 0; i < 4; ++i) {
        wide.submit({{MemOp::Kind::Compute, 0, 0, ticksFromUs(100)}},
                    [&last](Tick t) { last = std::max(last, t); });
    }
    m.eq().run();
    EXPECT_EQ(last, ticksFromUs(100)); // all four overlap
}

TEST(Dsb, RequestsCompleteAndRecordLatency)
{
    Machine m(Testbed::SingleSocketCxl);
    SocialNetwork app(m, lightParams(),
                      MemPolicy::membind(m.localNode()));
    app.submit(RequestType::ComposePost);
    app.submit(RequestType::ReadUserTimeline);
    app.submit(RequestType::ReadHomeTimeline);
    m.eq().run();
    EXPECT_EQ(app.latency(RequestType::ComposePost).count(), 1u);
    EXPECT_EQ(app.latency(RequestType::ReadUserTimeline).count(), 1u);
    EXPECT_EQ(app.latency(RequestType::ReadHomeTimeline).count(), 1u);
    // ms-scale end-to-end latencies.
    EXPECT_GT(app.latency(RequestType::ComposePost).mean(), 1e6);
    EXPECT_GT(app.latency(RequestType::ReadUserTimeline).mean(), 1e6);
}

TEST(Dsb, ComposeSlowerThanReadHome)
{
    Machine m(Testbed::SingleSocketCxl);
    SocialNetwork app(m, lightParams(),
                      MemPolicy::membind(m.localNode()));
    app.submit(RequestType::ComposePost);
    m.eq().run();
    app.submit(RequestType::ReadHomeTimeline);
    m.eq().run();
    EXPECT_GT(app.latency(RequestType::ComposePost).mean(),
              app.latency(RequestType::ReadHomeTimeline).mean());
}

TEST(Dsb, CxlPenalizesComposeNotReadUser)
{
    DsbParams p = lightParams();
    const DsbRunResult compose_ddr = runDsb(1, 0, 0, false, 800, 0.15,
                                            p);
    const DsbRunResult compose_cxl = runDsb(1, 0, 0, true, 800, 0.15,
                                            p);
    const DsbRunResult read_ddr = runDsb(0, 1, 0, false, 800, 0.15, p);
    const DsbRunResult read_cxl = runDsb(0, 1, 0, true, 800, 0.15, p);

    // Compose-post: a visible gap (database-heavy path).
    EXPECT_GT(compose_cxl.p99ComposeMs,
              compose_ddr.p99ComposeMs * 1.02);
    // Read-user-timeline: little to no difference.
    EXPECT_NEAR(read_cxl.p99ReadUserMs / read_ddr.p99ReadUserMs, 1.0,
                0.03);
}

TEST(Dsb, MixedWorkloadRecordsAllClasses)
{
    const DsbRunResult r = runDsb(0.1, 0.3, 0.6, false, 2000, 0.1,
                                  lightParams());
    EXPECT_GT(r.p99ComposeMs, 0.0);
    EXPECT_GT(r.p99ReadUserMs, 0.0);
    EXPECT_GT(r.p99ReadHomeMs, 0.0);
    EXPECT_NEAR(r.achievedQps, 2000, 400);
}

TEST(Dsb, MemoryBreakdownCoversComponents)
{
    Machine m(Testbed::SingleSocketCxl);
    SocialNetwork app(m, lightParams(),
                      MemPolicy::membind(m.localNode()));
    const auto breakdown = app.memoryBreakdown();
    ASSERT_EQ(breakdown.size(), 5u);
    // Databases dominate the footprint (the premise of pinning them).
    std::uint64_t db = 0;
    std::uint64_t compute = 0;
    for (const auto &[name, bytes] : breakdown) {
        if (name.find("local") != std::string::npos)
            compute += bytes;
        else
            db += bytes;
    }
    EXPECT_GT(db, 0u);
    EXPECT_GT(compute, 0u);
}

TEST(Dsb, LatencyGrowsTowardSaturation)
{
    DsbParams p = lightParams();
    const DsbRunResult low = runDsb(1, 0, 0, false, 500, 0.12, p);
    const DsbRunResult high = runDsb(1, 0, 0, false, 4500, 0.12, p);
    EXPECT_GT(high.p99ComposeMs, low.p99ComposeMs);
}

} // namespace
} // namespace dsb
} // namespace cxlmemo
