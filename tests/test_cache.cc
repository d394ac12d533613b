/**
 * @file
 * Tests for the set-associative cache and the three-level hierarchy:
 * hit/miss behaviour, LRU (checked against the unpacked lastUse
 * algorithm on random operation sequences), RFO semantics, writeback
 * traffic, inclusivity, flush instructions and the stream prefetcher.
 */

#include <gtest/gtest.h>

#include <random>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "mem/request.hh"
#include "numa/numa.hh"
#include "sim/event_queue.hh"

namespace cxlmemo
{
namespace
{

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    EXPECT_FALSE(c.find(100));
    c.insert(100, LineState::Exclusive, 0);
    ASSERT_TRUE(c.find(100));
    EXPECT_EQ(c.find(100).state(), LineState::Exclusive);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // 4-way cache: fill one set with 4 lines, insert a 5th.
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    const std::uint32_t sets = c.numSets();
    std::vector<std::uint64_t> addrs;
    // Lines mapping to the same set: the index hash is
    // (la ^ (la >> 17)) & mask; for small la (< 2^17) it is identity,
    // so stride by `sets`.
    for (std::uint64_t i = 0; i < 5; ++i)
        addrs.push_back(7 + i * sets);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(c.insert(addrs[i], LineState::Exclusive, 0));
    // Touch line 0 to refresh it; then line 1 is the LRU victim.
    EXPECT_TRUE(c.find(addrs[0]));
    auto victim = c.insert(addrs[4], LineState::Exclusive, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, addrs[1]);
    EXPECT_TRUE(c.find(addrs[0]));
    EXPECT_FALSE(c.find(addrs[1]));
}

TEST(SetAssocCache, InvalidateReturnsPriorState)
{
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    c.insert(42, LineState::Modified, 3);
    EXPECT_EQ(c.invalidate(42), LineState::Modified);
    EXPECT_EQ(c.invalidate(42), LineState::Invalid);
    EXPECT_FALSE(c.find(42));
}

TEST(SetAssocCache, ReinsertMergesState)
{
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    c.insert(42, LineState::Exclusive, 0);
    EXPECT_FALSE(c.insert(42, LineState::Modified, 0).has_value());
    EXPECT_EQ(c.find(42).state(), LineState::Modified);
}

TEST(SetAssocCache, FlushAllEmptiesEverything)
{
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    for (std::uint64_t i = 0; i < 64; ++i)
        c.insert(i, LineState::Exclusive, 0);
    c.flushAll();
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_FALSE(c.find(i));
}

TEST(SetAssocCacheDeathTest, LineAddressWiderThanTheTagAborts)
{
    SetAssocCache c({"c", 4 * kiB, 4, ticksFromNs(1.0)});
    const std::uint64_t widest =
        (std::uint64_t(1) << SetAssocCache::lineAddrBits) - 1;
    c.insert(widest, LineState::Exclusive, 0);
    EXPECT_TRUE(c.find(widest));
    EXPECT_DEATH(c.insert(widest + 1, LineState::Exclusive, 0),
                 "wider than a 44-bit tag");
}

/**
 * Reference model: one 32-byte line per way and a global use clock;
 * the victim of a full set is the line with the least lastUse. The
 * packed store must make exactly the same decisions.
 */
class LastUseReference
{
  public:
    struct Line
    {
        std::uint64_t tag = ~std::uint64_t(0);
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
        std::uint16_t owner = 0;
        bool prefetched = false;
    };

    LastUseReference(std::uint32_t sets, std::uint32_t assoc)
        : sets_(sets), assoc_(assoc), lines_(sets * assoc)
    {
    }

    Line *
    find(std::uint64_t la)
    {
        Line *base = set(la);
        for (Line *l = base; l != base + assoc_; ++l) {
            if (l->state != LineState::Invalid && l->tag == la) {
                l->lastUse = ++useClock_;
                return l;
            }
        }
        return nullptr;
    }

    bool
    peek(std::uint64_t la)
    {
        Line *base = set(la);
        for (Line *l = base; l != base + assoc_; ++l) {
            if (l->state != LineState::Invalid && l->tag == la)
                return true;
        }
        return false;
    }

    std::optional<SetAssocCache::Victim>
    insert(std::uint64_t la, LineState state, std::uint16_t owner,
           bool prefetched)
    {
        Line *base = set(la);
        Line *slot = nullptr;
        Line *lru = &base[0];
        for (Line *l = base; l != base + assoc_; ++l) {
            if (l->state == LineState::Invalid) {
                slot = l;
                break;
            }
            if (l->tag == la) {
                l->state = state;
                l->lastUse = ++useClock_;
                l->owner = owner;
                return std::nullopt;
            }
            if (l->lastUse < lru->lastUse)
                lru = l;
        }
        std::optional<SetAssocCache::Victim> victim;
        if (!slot) {
            victim = SetAssocCache::Victim{lru->tag, lru->state, lru->owner};
            slot = lru;
        }
        *slot = Line{la, state, ++useClock_, owner, prefetched};
        return victim;
    }

    LineState
    invalidate(std::uint64_t la)
    {
        Line *base = set(la);
        for (Line *l = base; l != base + assoc_; ++l) {
            if (l->state != LineState::Invalid && l->tag == la) {
                const LineState prior = l->state;
                l->state = LineState::Invalid;
                return prior;
            }
        }
        return LineState::Invalid;
    }

    void
    flushAll()
    {
        for (Line &l : lines_)
            l.state = LineState::Invalid;
    }

  private:
    Line *
    set(std::uint64_t la)
    {
        const std::uint64_t mixed = la ^ (la >> 17);
        return &lines_[(mixed & (sets_ - 1)) * assoc_];
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

class SetAssocCacheDifferential
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SetAssocCacheDifferential, MatchesLastUseReference)
{
    const std::uint32_t ways = GetParam();
    for (const std::uint32_t sets : {1u, 8u}) {
        SetAssocCache c({"c", std::uint64_t(sets) * ways * cachelineBytes,
                         ways, 0});
        ASSERT_EQ(c.numSets(), sets);
        LastUseReference ref(sets, ways);
        // A pool of twice the capacity: hits, misses and evictions
        // all stay common. Half the addresses use the full tag width.
        std::mt19937_64 rng(ways * 1000 + sets);
        std::vector<std::uint64_t> pool(2 * sets * ways);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            pool[i] = i % 2 ? rng() >> (64 - SetAssocCache::lineAddrBits)
                            : i;
        }
        std::uint64_t evictions = 0;
        std::uint64_t dirty = 0;
        for (int step = 0; step < 100000; ++step) {
            if (step % 4096 == 4095) {
                c.flushAll();
                ref.flushAll();
                continue;
            }
            const std::uint64_t la = pool[rng() % pool.size()];
            const auto st = static_cast<LineState>(1 + rng() % 3);
            const std::uint32_t op = rng() % 100;
            if (op < 35) {
                const auto owner = static_cast<std::uint16_t>(rng());
                const bool pf = rng() % 2;
                const auto got = c.insert(la, st, owner, pf);
                const auto want = ref.insert(la, st, owner, pf);
                ASSERT_EQ(got.has_value(), want.has_value()) << step;
                if (want) {
                    ASSERT_EQ(got->lineAddr, want->lineAddr) << step;
                    ASSERT_EQ(got->state, want->state) << step;
                    ASSERT_EQ(got->owner, want->owner) << step;
                    ++evictions;
                    dirty += want->state == LineState::Modified;
                }
            } else if (op < 85) {
                auto got = c.find(la);
                auto *want = ref.find(la);
                ASSERT_EQ(bool(got), want != nullptr) << step;
                if (!want)
                    continue;
                ASSERT_EQ(got.state(), want->state) << step;
                ASSERT_EQ(got.prefetched(), want->prefetched) << step;
                if (op >= 72) {
                    got.clearPrefetched();
                    want->prefetched = false;
                } else if (op >= 60) {
                    got.setState(st);
                    want->state = st;
                }
            } else if (op < 92) {
                ASSERT_EQ(c.peek(la), ref.peek(la)) << step;
            } else {
                ASSERT_EQ(c.invalidate(la), ref.invalidate(la)) << step;
            }
        }
        EXPECT_EQ(c.stats().evictions, evictions);
        EXPECT_EQ(c.stats().dirtyEvictions, dirty);
        EXPECT_GT(evictions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, SetAssocCacheDifferential,
                         ::testing::Values(1u, 2u, 4u, 12u, 15u, 16u));

/** Device that counts per-command traffic and completes after 50 ns. */
class CountingDevice : public MemoryDevice
{
  public:
    explicit CountingDevice(EventQueue &eq) : eq_(eq) {}

    void
    access(MemRequest req) override
    {
        if (req.cmd == MemCmd::Read || req.cmd == MemCmd::Prefetch)
            ++reads;
        else
            ++writes;
        const Tick done = eq_.curTick() + ticksFromNs(50.0);
        if (req.onComplete) {
            eq_.schedule(done,
                         [cb = std::move(req.onComplete), done] {
                cb(done);
            });
        }
    }

    const std::string &name() const override { return name_; }

    int reads = 0;
    int writes = 0;

  private:
    EventQueue &eq_;
    std::string name_ = "counting";
};

class HierarchyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dev = std::make_unique<CountingDevice>(eq);
        node = numa.addNode("mem", dev.get(), 1 * giB);
        HierarchyParams p;
        p.numCores = 2;
        p.l1 = {"l1", 4 * kiB, 4, ticksFromNs(2.0)};
        p.l2 = {"l2", 32 * kiB, 8, ticksFromNs(8.0)};
        p.llc = {"llc", 256 * kiB, 8, ticksFromNs(20.0)};
        p.uncoreLatency = ticksFromNs(10.0);
        hier = std::make_unique<CacheHierarchy>(eq, numa, p);
        buf = numa.alloc(16 * miB, MemPolicy::membind(node));
    }

    Addr a(std::uint64_t off) { return buf.translate(off); }

    EventQueue eq;
    NumaSpace numa;
    std::unique_ptr<CountingDevice> dev;
    NodeId node = 0;
    std::unique_ptr<CacheHierarchy> hier;
    NumaBuffer buf;
};

TEST_F(HierarchyTest, ColdLoadMissesToMemory)
{
    Tick done = 0;
    auto hit = hier->load(0, a(0), 0, [&](Tick t) { done = t; });
    EXPECT_FALSE(hit.has_value());
    eq.run();
    EXPECT_EQ(dev->reads, 1);
    // l1 2 + l2 8 + llc 20 + uncore 10 + device 50 = 90 ns.
    EXPECT_EQ(done, ticksFromNs(90.0));
}

TEST_F(HierarchyTest, SecondLoadHitsInL1)
{
    hier->load(0, a(0), 0, [](Tick) {});
    eq.run();
    auto hit = hier->load(0, a(0), eq.curTick(), nullptr);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - eq.curTick(), ticksFromNs(2.0));
    EXPECT_EQ(dev->reads, 1);
}

TEST_F(HierarchyTest, OtherCoreHitsInLlc)
{
    hier->load(0, a(0), 0, [](Tick) {});
    eq.run();
    // Core 1 misses its private L1/L2 but hits the shared LLC.
    auto hit = hier->load(1, a(0), eq.curTick(), nullptr);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - eq.curTick(), ticksFromNs(30.0));
    EXPECT_EQ(dev->reads, 1);
}

TEST_F(HierarchyTest, StoreMissPerformsRfoRead)
{
    Tick done = 0;
    auto hit = hier->store(0, a(64), 0, [&](Tick t) { done = t; });
    EXPECT_FALSE(hit.has_value());
    eq.run();
    EXPECT_EQ(dev->reads, 1);  // ownership fill
    EXPECT_EQ(dev->writes, 0); // nothing written back yet
}

TEST_F(HierarchyTest, StoreHitIsCheap)
{
    hier->store(0, a(64), 0, [](Tick) {});
    eq.run();
    auto hit = hier->store(0, a(64), eq.curTick(), nullptr);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - eq.curTick(), ticksFromNs(2.0));
}

TEST_F(HierarchyTest, DirtyEvictionsWriteBack)
{
    // Dirty many lines, then stream far past every level's capacity;
    // evicted dirty lines must reach memory as writes.
    for (std::uint64_t i = 0; i < 64; ++i) {
        hier->store(0, a(i * cachelineBytes), eq.curTick(), nullptr);
        eq.run();
    }
    for (std::uint64_t i = 0; i < 16384; ++i) {
        hier->load(0, a(1 * miB + i * cachelineBytes), eq.curTick(),
                   nullptr);
        eq.run();
    }
    EXPECT_GT(dev->writes, 32);
}

TEST_F(HierarchyTest, NtStoreBypassesAndInvalidates)
{
    hier->store(0, a(0), 0, nullptr);
    eq.run();
    const int reads_before = dev->reads;
    Tick accepted = 0;
    Tick drained = 0;
    hier->ntStore(0, a(0), eq.curTick(),
                  [&](Tick t) { accepted = t; },
                  [&](Tick t) { drained = t; });
    eq.run();
    EXPECT_EQ(dev->reads, reads_before); // no fill
    EXPECT_EQ(dev->writes, 1);
    EXPECT_GT(drained, 0u);
    // The cached copy must be gone: the next load misses to memory.
    auto hit = hier->load(0, a(0), eq.curTick(), [](Tick) {});
    EXPECT_FALSE(hit.has_value());
    eq.run();
    (void)accepted;
}

TEST_F(HierarchyTest, FlushCleanLineIsLocal)
{
    hier->load(0, a(0), 0, nullptr);
    eq.run();
    auto done = hier->flush(0, a(0), eq.curTick(), nullptr);
    ASSERT_TRUE(done.has_value()); // no dirty data: resolves locally
    EXPECT_EQ(dev->writes, 0);
}

TEST_F(HierarchyTest, FlushDirtyLineWritesBack)
{
    hier->store(0, a(0), 0, nullptr);
    eq.run();
    Tick done = 0;
    auto local = hier->flush(0, a(0), eq.curTick(),
                             [&](Tick t) { done = t; });
    EXPECT_FALSE(local.has_value());
    eq.run();
    EXPECT_EQ(dev->writes, 1);
    EXPECT_GT(done, 0u);
    // Line invalidated: next load misses.
    EXPECT_FALSE(hier->load(0, a(0), eq.curTick(), [](Tick) {})
                     .has_value());
    eq.run();
}

TEST_F(HierarchyTest, ClwbKeepsACleanCopy)
{
    hier->store(0, a(0), 0, nullptr);
    eq.run();
    hier->clwb(0, a(0), eq.curTick(), [](Tick) {});
    eq.run();
    EXPECT_EQ(dev->writes, 1);
    // Unlike clflush, the line stays cached.
    auto hit = hier->load(0, a(0), eq.curTick(), nullptr);
    EXPECT_TRUE(hit.has_value());
}

TEST_F(HierarchyTest, FlushedLinePaysHandshakeOnDram)
{
    hier->load(0, a(0), 0, nullptr);
    eq.run();
    hier->flush(0, a(0), eq.curTick(), nullptr);
    eq.run();
    Tick done = 0;
    const Tick t0 = eq.curTick();
    hier->load(0, a(0), t0, [&](Tick t) { done = t; });
    eq.run();
    // 90 ns miss + 70 ns flush handshake (default penalty).
    EXPECT_EQ(done - t0, ticksFromNs(160.0));
}

TEST_F(HierarchyTest, HandshakeSkippedWhenNodeOptsOut)
{
    numa.setScatterFrames(node, true);
    // Mark the node as CXL-like: no flush handshake.
    const_cast<NumaNode &>(numa.node(node)).flushHandshake = false;
    hier->load(0, a(0), 0, nullptr);
    eq.run();
    hier->flush(0, a(0), eq.curTick(), nullptr);
    eq.run();
    Tick done = 0;
    const Tick t0 = eq.curTick();
    hier->load(0, a(0), t0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done - t0, ticksFromNs(90.0));
}

TEST_F(HierarchyTest, InclusiveLlcBackInvalidatesOwner)
{
    // Fill the LLC far past capacity from core 0; early lines must
    // disappear from core 0's L1/L2 as well (inclusive back-inval).
    hier->load(0, a(0), 0, nullptr);
    eq.run();
    for (std::uint64_t i = 1; i < 8192; ++i) {
        hier->load(0, a(i * cachelineBytes), eq.curTick(), nullptr);
        eq.run();
    }
    const int reads_before = dev->reads;
    hier->load(0, a(0), eq.curTick(), [](Tick) {});
    eq.run();
    EXPECT_EQ(dev->reads, reads_before + 1); // full miss again
}

TEST_F(HierarchyTest, PrefetcherFetchesAheadOnStreams)
{
    hier->setPrefetch(true);
    for (std::uint64_t i = 0; i < 64; ++i) {
        hier->load(0, a(512 * kiB + i * cachelineBytes), eq.curTick(),
                   [](Tick) {});
        eq.run();
    }
    EXPECT_GT(hier->prefetchStats().issued, 32u);
    EXPECT_GT(hier->prefetchStats().usefulHits, 16u);
    // Demand reads + prefetches both reached memory, but far fewer
    // than 2x demand (prefetched lines were not re-fetched).
    EXPECT_LT(dev->reads, 64 + 80);
}

TEST_F(HierarchyTest, PrimeLlcDirtyMakesFillsEvictDirty)
{
    NumaBuffer prime = numa.alloc(512 * kiB, MemPolicy::membind(node));
    hier->primeLlcDirty(prime, 0);
    const int writes_before = dev->writes;
    for (std::uint64_t i = 0; i < 512; ++i) {
        hier->load(0, a(2 * miB + i * cachelineBytes), eq.curTick(),
                   nullptr);
        eq.run();
    }
    EXPECT_GT(dev->writes - writes_before, 256);
}

} // namespace
} // namespace cxlmemo
