/**
 * @file
 * Bucketed timing wheel for the core's timed events.
 *
 * The core keeps one wheel for both of its event kinds, instruction
 * completions and delayed wakeup broadcasts. They all land within a
 * small, configuration-bounded latency horizon (the longest memory
 * round trip plus the longest functional-unit latency). A wheel of
 * power-of-two bucket count larger than that horizon makes push and
 * per-cycle drain O(1) amortized with no comparisons and no per-event
 * heap traffic, replacing the std::priority_queues of the original
 * engine. Events beyond the horizon (possible for scheme-owned
 * deferred broadcasts) spill into a rarely-touched overflow vector.
 *
 * Invariant: drainDue(now) is called with `now` strictly increasing
 * and never past a pending event. It may skip cycles, but only ones
 * whose buckets are empty and that no overflow event is due at
 * (nextDue() names the first cycle a caller must not skip). So
 * bucket[now & mask] only ever holds events due exactly at `now`.
 */

#ifndef SB_CORE_TIMING_WHEEL_HH
#define SB_CORE_TIMING_WHEEL_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace sb
{

template <typename Event>
class TimingWheel
{
  public:
    /** @param horizon longest push delay expected (rounded up to pow2). */
    explicit TimingWheel(unsigned horizon = 256)
    {
        std::size_t n = 2;
        while (n <= horizon)
            n <<= 1;
        buckets.resize(n);
        mask = n - 1;
    }

    bool empty() const { return liveEvents == 0; }
    std::size_t size() const { return liveEvents; }
    std::size_t bucketCount() const { return buckets.size(); }

    /**
     * Schedule @p ev at cycle @p at. Events at or before @p now are
     * clamped to now + 1, matching the old priority-queue engine
     * where a same-cycle push was drained on the following cycle
     * (the drain for @p now has already run).
     */
    void
    push(Cycle at, Cycle now, Event ev)
    {
        if (at <= now)
            at = now + 1;
        ++liveEvents;
        if (at - now <= mask) {
            buckets[at & mask].push_back(std::move(ev));
        } else {
            overflow.emplace_back(at, std::move(ev));
        }
    }

    /**
     * Invoke @p fn on every event due at @p now, in FIFO push order.
     * @p fn may push new (strictly future) events.
     */
    template <typename Fn>
    void
    drainDue(Cycle now, Fn &&fn)
    {
        if (liveEvents == 0)
            return;
        if (!overflow.empty())
            reapOverflow(now);
        auto &bucket = buckets[now & mask];
        // Handlers push only into other cycles' buckets (delay >= 1),
        // so iterating by index while the wheel grows elsewhere is
        // safe; `bucket` itself cannot be appended to.
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            --liveEvents;
            fn(bucket[i]);
        }
        bucket.clear(); // Keeps capacity: zero steady-state allocation.
    }

    /**
     * Earliest cycle after @p now that holds an event, or @p bound if
     * no event is due before it. Scans at most the buckets between
     * @p now and @p bound, so a near bound keeps the call cheap.
     */
    Cycle
    nextDue(Cycle now, Cycle bound) const
    {
        if (liveEvents == 0)
            return bound;
        for (const auto &entry : overflow)
            bound = std::min(bound, entry.first);
        if (liveEvents == overflow.size())
            return bound;
        const Cycle end = std::min<Cycle>(bound, now + mask + 1);
        for (Cycle c = now + 1; c < end; ++c)
            if (!buckets[c & mask].empty())
                return c;
        return bound;
    }

    void
    clear()
    {
        for (auto &b : buckets)
            b.clear();
        overflow.clear();
        liveEvents = 0;
    }

  private:
    /** Move matured overflow events into their wheel buckets. */
    void
    reapOverflow(Cycle now)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < overflow.size(); ++i) {
            auto &entry = overflow[i];
            if (entry.first - now <= mask) {
                // Due this cycle or within the horizon: wheel it.
                buckets[entry.first & mask].push_back(
                    std::move(entry.second));
            } else {
                overflow[kept++] = std::move(entry);
            }
        }
        overflow.resize(kept);
    }

    std::vector<std::vector<Event>> buckets;
    std::vector<std::pair<Cycle, Event>> overflow;
    std::size_t mask = 0;
    std::size_t liveEvents = 0;
};

} // namespace sb

#endif // SB_CORE_TIMING_WHEEL_HH
