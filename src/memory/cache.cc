#include "memory/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

namespace
{

bool
isPow2(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // anonymous namespace

Cache::Cache(const std::string &name, const CacheConfig &config)
    : cfg(config), statGroup(name), st(statGroup)
{
    sb_assert(cfg.lineBytes > 0 && cfg.assoc > 0, "bad cache geometry");
    sb_assert(isPow2(cfg.lineBytes),
              "cache line size must be a power of two");
    sb_assert(cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) == 0,
              "cache size not divisible by way size");
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    sb_assert(isPow2(numSets), "cache must have a power-of-two set count");
    lineShift = static_cast<unsigned>(__builtin_ctz(cfg.lineBytes));
    setShift = static_cast<unsigned>(__builtin_ctz(numSets));
    lines.resize(static_cast<std::size_t>(numSets) * cfg.assoc);
}

std::optional<Cycle>
Cache::probe(Addr addr, Cycle now)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = lines[static_cast<std::size_t>(set) * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            l.lastUse = now;
            ++st.hits;
            return std::max(now + cfg.latency, l.readyAt + cfg.latency);
        }
    }
    ++st.misses;
    return std::nullopt;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const Line &l = lines[static_cast<std::size_t>(set) * cfg.assoc + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::insert(Addr addr, Cycle now, Cycle ready_at)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);

    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = lines[static_cast<std::size_t>(set) * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            // Already present (e.g. racing prefetch): keep earliest fill.
            l.readyAt = std::min(l.readyAt, ready_at);
            return;
        }
        if (!l.valid) {
            // Prefer any invalid way.
            if (!victim || victim->valid)
                victim = &l;
        } else if (!victim || (victim->valid
                               && l.lastUse < victim->lastUse)) {
            victim = &l;
        }
    }
    sb_assert(victim, "cache set with no victim");
    if (victim->valid)
        ++st.evictions;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = now;
    victim->readyAt = ready_at;
    ++st.fills;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &l = lines[static_cast<std::size_t>(set) * cfg.assoc + w];
        if (l.valid && l.tag == tag) {
            l.valid = false;
            return;
        }
    }
}

void
Cache::flushAll()
{
    for (auto &l : lines)
        l.valid = false;
}

} // namespace sb
