/**
 * @file
 * Tests for the deterministic RNG and the YCSB-style distribution
 * generators, including statistical property checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hh"

namespace cxlmemo
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(42);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.reseed(42);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL,
                                (1ULL << 40) + 17}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsApproximatelyUniform)
{
    Rng r(99);
    constexpr std::uint64_t buckets = 10;
    constexpr int draws = 100000;
    std::vector<int> histo(buckets, 0);
    for (int i = 0; i < draws; ++i)
        histo[r.below(buckets)]++;
    for (std::uint64_t b = 0; b < buckets; ++b) {
        EXPECT_NEAR(histo[b], draws / buckets, draws / buckets * 0.1);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    const double mean = 250.0;
    double sum = 0.0;
    constexpr int draws = 200000;
    for (int i = 0; i < draws; ++i)
        sum += r.exponential(mean);
    EXPECT_NEAR(sum / draws, mean, mean * 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / static_cast<double>(draws), 0.3, 0.01);
}

TEST(Zipfian, StaysInDomain)
{
    Rng r(3);
    ZipfianGenerator z(1000);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(z.next(r), 1000u);
}

TEST(Zipfian, ItemZeroIsHottest)
{
    Rng r(23);
    ZipfianGenerator z(10000, 0.99);
    std::map<std::uint64_t, int> histo;
    for (int i = 0; i < 100000; ++i)
        histo[z.next(r)]++;
    // With theta=0.99 over 10k items, the hottest item draws a large
    // share, and popularity decays with rank.
    EXPECT_GT(histo[0], histo[1]);
    EXPECT_GT(histo[0], 100000 / 50);
    EXPECT_GT(histo[1], histo[10]);
}

TEST(Zipfian, SkewConcentratesMass)
{
    Rng r(29);
    ZipfianGenerator z(100000, 0.99);
    int in_top_100 = 0;
    constexpr int draws = 50000;
    for (int i = 0; i < draws; ++i)
        in_top_100 += z.next(r) < 100;
    // YCSB zipfian 0.99: the top 0.1% of items draw >30% of accesses.
    EXPECT_GT(in_top_100, draws * 3 / 10);
}

TEST(ScrambledZipfian, SpreadsHotItemsAcrossKeySpace)
{
    Rng r(31);
    ScrambledZipfianGenerator z(100000);
    std::map<std::uint64_t, int> histo;
    for (int i = 0; i < 50000; ++i)
        histo[z.next(r)]++;
    // The hottest items should NOT be the lowest ids once scrambled:
    // count draws landing in the first 100 ids -- should be tiny.
    int low = 0;
    for (const auto &[k, v] : histo)
        if (k < 100)
            low += v;
    EXPECT_LT(low, 50000 / 20);
}

TEST(SplitMix, IsDeterministicAndMixes)
{
    EXPECT_EQ(splitMix64(1), splitMix64(1));
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outs.insert(splitMix64(i));
    EXPECT_EQ(outs.size(), 1000u); // no collisions on consecutive ints
}

} // namespace
} // namespace cxlmemo
