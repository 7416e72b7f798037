/**
 * @file
 * Unit tests for src/memory: cache behaviour, stride prefetcher, and
 * the two-level memory system.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "memory/cache.hh"
#include "memory/memory_system.hh"
#include "memory/prefetcher.hh"

namespace
{

sb::CacheConfig
smallCache()
{
    sb::CacheConfig c;
    c.sizeBytes = 1024; // 2 sets x 8 ways x 64 B.
    c.assoc = 8;
    c.lineBytes = 64;
    c.latency = 3;
    return c;
}

TEST(Cache, MissThenHit)
{
    sb::Cache cache("t", smallCache());
    EXPECT_FALSE(cache.probe(0x100, 10).has_value());
    cache.insert(0x100, 10, 10);
    const auto hit = cache.probe(0x100, 20);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 23u); // now + latency.
}

TEST(Cache, SameLineDifferentOffsetsHit)
{
    sb::Cache cache("t", smallCache());
    cache.insert(0x100, 1, 1);
    EXPECT_TRUE(cache.probe(0x13F, 2).has_value());
    EXPECT_FALSE(cache.probe(0x140, 2).has_value());
}

TEST(Cache, InFlightFillAddsResidualLatency)
{
    sb::Cache cache("t", smallCache());
    cache.insert(0x100, 10, 100); // Fill completes at cycle 100.
    const auto hit = cache.probe(0x100, 20);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 103u); // readyAt + latency, not now + latency.
}

TEST(Cache, LruEvictionOrder)
{
    sb::Cache cache("t", smallCache());
    // Fill all 8 ways of set 0 (set stride is 2 lines = 128 B).
    for (unsigned i = 0; i < 8; ++i)
        cache.insert(0x1000 + i * 128, i + 1, i + 1);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(cache.probe(0x1000, 50).has_value());
    cache.insert(0x9000, 60, 60); // Same set, evicts LRU.
    EXPECT_TRUE(cache.probe(0x1000, 70).has_value());
    EXPECT_FALSE(cache.probe(0x1000 + 128, 70).has_value());
}

TEST(Cache, InvalidateRemovesLine)
{
    sb::Cache cache("t", smallCache());
    cache.insert(0x100, 1, 1);
    cache.invalidate(0x100);
    EXPECT_FALSE(cache.probe(0x100, 5).has_value());
}

TEST(Cache, FlushAllEmptiesEverything)
{
    sb::Cache cache("t", smallCache());
    cache.insert(0x100, 1, 1);
    cache.insert(0x200, 1, 1);
    cache.flushAll();
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_FALSE(cache.contains(0x200));
}

TEST(Cache, StatsCountHitsAndMisses)
{
    sb::Cache cache("t", smallCache());
    cache.probe(0x100, 1);
    cache.insert(0x100, 1, 1);
    cache.probe(0x100, 2);
    EXPECT_EQ(cache.stats().value("misses"), 1u);
    EXPECT_EQ(cache.stats().value("hits"), 1u);
}

TEST(Prefetcher, DetectsStableStride)
{
    sb::StridePrefetcher pf("t", 16, 2);
    std::vector<sb::Addr> out;
    for (int i = 0; i < 5; ++i)
        pf.observe(7, 0x1000 + i * 64, out);
    EXPECT_FALSE(out.empty());
    // Prefetches run ahead of the last observed address.
    for (const auto a : out)
        EXPECT_GT(a, 0x1000u + 4 * 64);
}

TEST(Prefetcher, StridesAcrossTwoToTheSixtyThree)
{
    // Addresses at and past 2^63 read as negative int64: a stride
    // crossing that boundary, or a target past it, must not be a
    // signed overflow. Targets at or past 2^63 are never prefetched.
    constexpr sb::Addr top = sb::Addr(1) << 63;
    sb::StridePrefetcher pf("t", 16, 2);
    std::vector<sb::Addr> down;
    for (int i = 0; i < 5; ++i)
        pf.observe(8, top + 2 * 64 - i * 64, down);
    EXPECT_EQ(down, (std::vector<sb::Addr>{top - 192, top - 256,
                                           top - 256, top - 320}));

    std::vector<sb::Addr> up;
    for (int i = 0; i < 8; ++i)
        pf.observe(7, top - 6 * 64 + i * 64, up);
    EXPECT_EQ(up, std::vector<sb::Addr>{top - 64});
}

TEST(Prefetcher, IgnoresRandomPattern)
{
    sb::StridePrefetcher pf("t", 16, 2);
    std::vector<sb::Addr> out;
    const sb::Addr addrs[] = {0x1000, 0x9333, 0x2789, 0xF001, 0x0437,
                              0x8888, 0x1234, 0xCAFE};
    for (const auto a : addrs)
        pf.observe(7, a, out);
    EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, TracksPerPcIndependently)
{
    sb::StridePrefetcher pf("t", 16, 1);
    std::vector<sb::Addr> out;
    // Interleaved streams with different strides on different PCs.
    for (int i = 0; i < 6; ++i) {
        pf.observe(1, 0x1000 + i * 64, out);
        pf.observe(2, 0x80000 + i * 128, out);
    }
    EXPECT_GE(out.size(), 4u);
}

TEST(MemorySystem, LatencyTiers)
{
    sb::CoreConfig cfg = sb::CoreConfig::mega();
    cfg.l1d.stridePrefetcher = false;
    cfg.l2.stridePrefetcher = false;
    sb::MemorySystem mem(cfg);

    // Cold: full DRAM path.
    const auto cold = mem.access(0x10000, 1, 100, false);
    ASSERT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_GE(cold.completeAt,
              100 + cfg.memLatency);

    // Warm L1 hit after the fill completes.
    const sb::Cycle later = cold.completeAt + 10;
    const auto warm = mem.access(0x10000, 1, later, false);
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.completeAt, later + cfg.l1d.latency);
}

TEST(MemorySystem, L2HitAfterL1Eviction)
{
    sb::CoreConfig cfg = sb::CoreConfig::mega();
    cfg.l1d.stridePrefetcher = false;
    cfg.l2.stridePrefetcher = false;
    sb::MemorySystem mem(cfg);

    auto first = mem.access(0x10000, 1, 1, false);
    mem.l1Cache().invalidate(0x10000);
    const sb::Cycle later = first.completeAt + 10;
    const auto l2hit = mem.access(0x10000, 1, later, false);
    EXPECT_FALSE(l2hit.l1Hit);
    // Much faster than DRAM: an L2 hit plus the L1 fill.
    EXPECT_LT(l2hit.completeAt, later + cfg.memLatency);
}

TEST(MemorySystem, MshrLimitRejects)
{
    sb::CoreConfig cfg = sb::CoreConfig::mega();
    cfg.l1d.mshrs = 2;
    cfg.l1d.stridePrefetcher = false;
    sb::MemorySystem mem(cfg);

    EXPECT_TRUE(mem.access(0x100000, 1, 1, false).accepted);
    EXPECT_TRUE(mem.access(0x200000, 2, 1, false).accepted);
    EXPECT_FALSE(mem.access(0x300000, 3, 1, false).accepted);
    // After the fills complete, capacity returns.
    EXPECT_TRUE(mem.access(0x300000, 3, 1000, false).accepted);
}

TEST(MemorySystem, PrefetcherHidesStreamLatency)
{
    sb::CoreConfig cfg = sb::CoreConfig::mega();
    sb::MemorySystem with(cfg);
    cfg.l1d.stridePrefetcher = false;
    cfg.l2.stridePrefetcher = false;
    sb::MemorySystem without(cfg);

    sb::Cycle t_with = 0;
    sb::Cycle t_without = 0;
    sb::Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        now += 10;
        auto a = with.access(0x100000 + i * 64, 1, now, false);
        auto b = without.access(0x100000 + i * 64, 1, now, false);
        if (a.accepted)
            t_with += a.completeAt - now;
        if (b.accepted)
            t_without += b.completeAt - now;
    }
    EXPECT_LT(t_with, t_without / 2);
}

TEST(MemorySystem, CachedOracleSeesBothLevels)
{
    sb::CoreConfig cfg = sb::CoreConfig::mega();
    cfg.l1d.stridePrefetcher = false;
    sb::MemorySystem mem(cfg);
    mem.access(0x40000, 1, 1, false);
    EXPECT_TRUE(mem.cached(0x40000));
    mem.l1Cache().invalidate(0x40000);
    EXPECT_TRUE(mem.cached(0x40000)); // Still in L2.
    mem.invalidate(0x40000);
    EXPECT_FALSE(mem.cached(0x40000));
}

} // anonymous namespace
