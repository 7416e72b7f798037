/**
 * @file
 * Two-level memory hierarchy: L1D + L2 + fixed-latency DRAM, with
 * MSHR-limited outstanding misses and stride prefetchers at both
 * levels. This is the timing side only; functional data is read from
 * the program's MemoryImage plus a store-forwarding overlay owned by
 * the core.
 */

#ifndef SB_MEMORY_MEMORY_SYSTEM_HH
#define SB_MEMORY_MEMORY_SYSTEM_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "memory/cache.hh"
#include "memory/prefetcher.hh"

namespace sb
{

/** Result of a demand access. */
struct MemAccessResult
{
    bool accepted = true;  ///< false: out of MSHRs, retry next cycle.
    bool l1Hit = false;
    Cycle completeAt = 0;  ///< Cycle the data is available.
};

/** Cached counter handles for the memory system's demand path. */
struct MemStats
{
    explicit MemStats(StatGroup &g)
        : loads(g.counter("loads")),
          stores(g.counter("stores")),
          mshrRejects(g.counter("mshr_rejects")),
          prefetchFills(g.counter("prefetch_fills"))
    {
    }

    Counter &loads;
    Counter &stores;
    Counter &mshrRejects;
    Counter &prefetchFills;
};

/** L1D + L2 + DRAM with per-level stride prefetchers. */
class MemorySystem
{
  public:
    explicit MemorySystem(const CoreConfig &config);

    /**
     * Issue a demand access (load or store) for @p addr by static
     * instruction @p pc at time @p now.
     */
    MemAccessResult access(Addr addr, std::uint64_t pc, Cycle now,
                           bool is_store);

    /** Probe L1 residency without side effects (covert-channel probe). */
    bool l1Contains(Addr addr) const { return l1.contains(addr); }

    /** Residency anywhere in the hierarchy (covert-channel oracle). */
    bool
    cached(Addr addr) const
    {
        return l1.contains(addr) || l2.contains(addr);
    }

    /** Evict one line from the whole hierarchy (attack setup / tests). */
    void invalidate(Addr addr);

    /** Empty both cache levels. */
    void flushAll();

    Cache &l1Cache() { return l1; }
    Cache &l2Cache() { return l2; }

    StatGroup &stats() { return statGroup; }

  private:
    /** Reclaim MSHRs whose fills completed. */
    void reapMshrs(Cycle now);

    /** Timing-only fill walk for prefetches. */
    void prefetchInto(Addr addr, Cycle now);

    CoreConfig cfg;
    Cache l1;
    Cache l2;
    StridePrefetcher l1Prefetcher;
    StridePrefetcher l2Prefetcher;
    std::vector<Cycle> mshrs;  ///< Completion times of in-flight misses.
    std::vector<Addr> prefetchQueue;
    StatGroup statGroup;
    MemStats st;
};

} // namespace sb

#endif // SB_MEMORY_MEMORY_SYSTEM_HH
