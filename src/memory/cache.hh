/**
 * @file
 * Set-associative cache tag model with LRU replacement and in-flight
 * fills. Only timing state is kept here; functional data lives in the
 * MemoryImage. Lines carry a readyAt cycle so accesses that hit a
 * line still being filled (hit-under-miss) see the residual latency.
 */

#ifndef SB_MEMORY_CACHE_HH
#define SB_MEMORY_CACHE_HH

#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sb
{

/** Cached counter handles for one cache level (hot-path increments). */
struct CacheStats
{
    explicit CacheStats(StatGroup &g)
        : hits(g.counter("hits")),
          misses(g.counter("misses")),
          evictions(g.counter("evictions")),
          fills(g.counter("fills"))
    {
    }

    Counter &hits;
    Counter &misses;
    Counter &evictions;
    Counter &fills;
};

/** One cache level (tags only). */
class Cache
{
  public:
    Cache(const std::string &name, const CacheConfig &config);

    /**
     * Look up @p addr at time @p now.
     * @return the cycle the data is available if present (>= now),
     *         or std::nullopt on a miss. Updates LRU on hit.
     */
    std::optional<Cycle> probe(Addr addr, Cycle now);

    /** Look up without updating replacement state or stats. */
    bool contains(Addr addr) const;

    /** Allocate a line that becomes ready at @p ready_at. */
    void insert(Addr addr, Cycle now, Cycle ready_at);

    /** Invalidate one line if present (used by tests and the attack). */
    void invalidate(Addr addr);

    /** Invalidate everything. */
    void flushAll();

    unsigned lineBytes() const { return cfg.lineBytes; }

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

  private:
    /** No member initializers: a trivial type, so the line array is
     *  zero-filled in one pass (value-initialized) at construction. */
    struct Line
    {
        Addr tag;
        Cycle lastUse;
        Cycle readyAt;
        bool valid;
    };

    // lineBytes and numSets are powers of two (asserted at
    // construction), so these are the division formulas as shifts.
    Addr lineAddr(Addr addr) const { return addr >> lineShift; }
    unsigned
    setIndex(Addr line) const
    {
        return static_cast<unsigned>(line & (numSets - 1));
    }
    Addr tagOf(Addr line) const { return line >> setShift; }

    CacheConfig cfg;
    unsigned numSets;
    unsigned lineShift;  ///< log2(lineBytes).
    unsigned setShift;   ///< log2(numSets).
    std::vector<Line> lines;  ///< numSets x assoc, row-major.
    StatGroup statGroup;
    CacheStats st;
};

} // namespace sb

#endif // SB_MEMORY_CACHE_HH
