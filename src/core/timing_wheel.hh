/**
 * @file
 * Bucketed timing wheel for the core's timed events.
 *
 * The core keeps one wheel for both of its event kinds, instruction
 * completions and delayed wakeup broadcasts. They all land within a
 * small, configuration-bounded latency horizon (the longest memory
 * round trip plus the longest functional-unit latency). A wheel of
 * power-of-two bucket count larger than that horizon makes push and
 * per-cycle drain O(1) with no comparisons, replacing the
 * std::priority_queues of the original engine. Events beyond the
 * horizon (possible for scheme-owned deferred broadcasts) spill into a
 * rarely-touched overflow vector.
 *
 * Storage is one flat pool of event nodes with a free list; each
 * bucket is an intrusive FIFO (head and tail node index) threaded
 * through the pool. The caller sizes the pool from the most events
 * it expects in flight, so steady state never allocates; a push onto
 * an exhausted pool doubles it (as a full Ring does), which moves the
 * nodes but keeps their indices. A drain therefore copies each event
 * out of its node before calling the handler, whose pushes may grow
 * the pool.
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
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace sb
{

template <typename Event>
class TimingWheel
{
  public:
    /**
     * @param horizon longest push delay expected (rounded up to pow2).
     * @param pool_nodes events the pool holds before it first grows.
     */
    explicit TimingWheel(unsigned horizon = 256,
                         std::size_t pool_nodes = 64)
    {
        std::size_t n = 2;
        while (n <= horizon)
            n <<= 1;
        buckets.resize(n);
        mask = n - 1;
        nodes.resize(std::max<std::size_t>(pool_nodes, 1));
        linkFree(0);
    }

    bool empty() const { return liveEvents == 0; }
    std::size_t size() const { return liveEvents; }
    std::size_t bucketCount() const { return buckets.size(); }
    /** Event nodes in the pool (grows only when every one is in use). */
    std::size_t poolCapacity() const { return nodes.size(); }

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
            append(buckets[at & mask], std::move(ev));
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
        // Detach the whole list first. Handlers push only into other
        // cycles' buckets (delay >= 1), so nothing joins it meanwhile.
        Bucket &bucket = buckets[now & mask];
        std::uint32_t i = bucket.head;
        bucket.head = bucket.tail = nil;
        while (i != nil) {
            // Copy out and free the node before the handler runs: a
            // push from the handler may reuse the node or grow (and so
            // move) the pool.
            Event ev = std::move(nodes[i].ev);
            const std::uint32_t next = nodes[i].next;
            nodes[i].next = freeHead;
            freeHead = i;
            --liveEvents;
            fn(ev);
            i = next;
        }
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
            if (buckets[c & mask].head != nil)
                return c;
        return bound;
    }

    /** Drop every event; all nodes return to the pool. */
    void
    clear()
    {
        for (Bucket &b : buckets)
            b.head = b.tail = nil;
        overflow.clear();
        linkFree(0);
        liveEvents = 0;
    }

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    struct Node
    {
        Event ev;
        std::uint32_t next;
    };

    /** Intrusive FIFO of pool nodes (nil-terminated). */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /** Thread nodes [@p from, end) onto the free list, in order. */
    void
    linkFree(std::size_t from)
    {
        for (std::size_t i = from; i + 1 < nodes.size(); ++i)
            nodes[i].next = static_cast<std::uint32_t>(i + 1);
        nodes.back().next = nil;
        freeHead = static_cast<std::uint32_t>(from);
    }

    void
    append(Bucket &bucket, Event &&ev)
    {
        if (freeHead == nil) {
            // Every node is in flight: double the pool.
            const std::size_t old = nodes.size();
            nodes.resize(old * 2);
            linkFree(old);
        }
        const std::uint32_t i = freeHead;
        freeHead = nodes[i].next;
        nodes[i].ev = std::move(ev);
        nodes[i].next = nil;
        if (bucket.tail == nil)
            bucket.head = i;
        else
            nodes[bucket.tail].next = i;
        bucket.tail = i;
    }

    /** Move matured overflow events into their wheel buckets. */
    void
    reapOverflow(Cycle now)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < overflow.size(); ++i) {
            auto &entry = overflow[i];
            if (entry.first - now <= mask) {
                // Due this cycle or within the horizon: wheel it.
                append(buckets[entry.first & mask],
                       std::move(entry.second));
            } else {
                overflow[kept++] = std::move(entry);
            }
        }
        overflow.resize(kept);
    }

    std::vector<Bucket> buckets;
    std::vector<Node> nodes;
    std::uint32_t freeHead = nil;
    std::vector<std::pair<Cycle, Event>> overflow;
    std::size_t mask = 0;
    std::size_t liveEvents = 0;
};

} // namespace sb

#endif // SB_CORE_TIMING_WHEEL_HH
