#include "memory/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

MemorySystem::MemorySystem(const CoreConfig &config)
    : cfg(config),
      l1("l1d", config.l1d),
      l2("l2", config.l2),
      l1Prefetcher("l1d.prefetcher", 64, config.l1d.prefetchDegree),
      l2Prefetcher("l2.prefetcher", 64, config.l2.prefetchDegree),
      statGroup("mem"),
      st(statGroup)
{
}

void
MemorySystem::reapMshrs(Cycle now)
{
    mshrs.erase(std::remove_if(mshrs.begin(), mshrs.end(),
                               [now](Cycle c) { return c <= now; }),
                mshrs.end());
}

MemAccessResult
MemorySystem::access(Addr addr, std::uint64_t pc, Cycle now, bool is_store)
{
    reapMshrs(now);

    MemAccessResult res;
    prefetchQueue.clear();
    if (cfg.l1d.stridePrefetcher)
        l1Prefetcher.observe(pc, addr, prefetchQueue);

    if (auto hit = l1.probe(addr, now)) {
        res.l1Hit = true;
        res.completeAt = *hit;
    } else {
        // L1 miss: need an MSHR.
        if (mshrs.size() >= cfg.l1d.mshrs) {
            ++st.mshrRejects;
            res.accepted = false;
            return res;
        }
        Cycle fill;
        if (auto l2hit = l2.probe(addr, now)) {
            fill = *l2hit;
            if (cfg.l2.stridePrefetcher)
                l2Prefetcher.observe(pc, addr, prefetchQueue);
        } else {
            fill = now + cfg.l2.latency + cfg.memLatency;
            l2.insert(addr, now, fill - cfg.l1d.latency);
        }
        l1.insert(addr, now, fill);
        mshrs.push_back(fill);
        res.l1Hit = false;
        res.completeAt = fill + cfg.l1d.latency;
    }

    if (is_store)
        ++st.stores;
    else
        ++st.loads;

    // Prefetches are timing-only and do not consume MSHRs in this
    // model (they ride the miss pipe in the background).
    for (Addr p : prefetchQueue)
        prefetchInto(p, now);

    return res;
}

void
MemorySystem::prefetchInto(Addr addr, Cycle now)
{
    if (l1.contains(addr))
        return;
    Cycle fill;
    if (auto l2hit = l2.probe(addr, now)) {
        fill = *l2hit;
    } else {
        fill = now + cfg.l2.latency + cfg.memLatency;
        l2.insert(addr, now, fill - cfg.l1d.latency);
    }
    l1.insert(addr, now, fill);
    ++st.prefetchFills;
}

void
MemorySystem::invalidate(Addr addr)
{
    l1.invalidate(addr);
    l2.invalidate(addr);
}

void
MemorySystem::flushAll()
{
    l1.flushAll();
    l2.flushAll();
}

} // namespace sb
