/**
 * @file
 * Fixed-capacity set-associative branch target buffer.
 *
 * Replaces the core's original unbounded `std::unordered_map` BTB: a
 * perfect, never-evicting, never-flushed target memory overstates how
 * trainable indirect branches are (an attacker's stale entry survives
 * forever) and cannot model flush-on-context-switch at all. This BTB
 * has real geometry — sets x ways with tags and LRU replacement — and
 * an explicit flush() for the predictor-flush switch policy.
 *
 * Trained at commit with the architectural target of indirect
 * branches (Op::JmpReg), probed at fetch; a miss predicts fall-through
 * (pc + 1), matching the original map's behaviour. The default
 * geometry (1024 sets x 4 ways) is deliberately large relative to the
 * handful of indirect sites in the kernel suite, so replacing the map
 * changes no existing cycle-level result — capacity pressure only
 * matters to workloads built to create it.
 */

#ifndef SB_BRANCH_BTB_HH
#define SB_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace sb
{

/** Set-associative, LRU-replaced branch target buffer. */
class BranchTargetBuffer
{
  public:
    explicit BranchTargetBuffer(unsigned sets = 1024, unsigned ways = 4)
        : numSets(sets), numWays(ways), entries(sets * ways)
    {
        sb_assert(sets > 0 && (sets & (sets - 1)) == 0,
                  "BTB set count must be a power of two");
        sb_assert(ways > 0, "BTB must have at least one way");
    }

    /**
     * Predicted target for the indirect branch at @p pc, or
     * fall-through (pc + 1) on a miss.
     */
    std::uint32_t
    predict(std::uint32_t pc) const
    {
        const Entry *e = find(pc);
        return e ? e->target : pc + 1;
    }

    /** Did fetch at @p pc hit a trained entry? */
    bool hit(std::uint32_t pc) const { return find(pc) != nullptr; }

    /** Train (commit-time) the target of the indirect branch at @p pc. */
    void
    train(std::uint32_t pc, std::uint32_t target)
    {
        ++stamp;
        Entry *base = &entries[setIndex(pc) * numWays];
        Entry *victim = base;
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = base[w];
            if (e.valid && e.tag == tagOf(pc)) {
                e.target = target;
                e.lastUse = stamp;
                return;
            }
            if (!e.valid) {
                victim = &e;
            } else if (victim->valid && e.lastUse < victim->lastUse) {
                victim = &e;
            }
        }
        victim->valid = true;
        victim->tag = tagOf(pc);
        victim->target = target;
        victim->lastUse = stamp;
    }

    /** Invalidate every entry (the flush-on-switch policy). */
    void
    flush()
    {
        for (Entry &e : entries)
            e = Entry{};
        stamp = 0;
    }

    /** Currently valid entries (bounded by sets x ways). */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::size_t capacity() const { return entries.size(); }

  private:
    /** No member initializers: a trivial type, so the entry array is
     *  zero-filled in one pass (value-initialized) at construction. */
    struct Entry
    {
        bool valid;
        std::uint32_t tag;
        std::uint32_t target;
        std::uint64_t lastUse;
    };

    unsigned setIndex(std::uint32_t pc) const { return pc & (numSets - 1); }
    std::uint32_t tagOf(std::uint32_t pc) const
    {
        // Full upper-pc tag: no aliasing between distinct sites.
        std::uint32_t t = pc;
        unsigned s = numSets;
        while (s > 1) {
            t >>= 1;
            s >>= 1;
        }
        return t;
    }

    const Entry *
    find(std::uint32_t pc) const
    {
        const Entry *base = &entries[setIndex(pc) * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            if (base[w].valid && base[w].tag == tagOf(pc))
                return &base[w];
        }
        return nullptr;
    }

    unsigned numSets;
    unsigned numWays;
    std::vector<Entry> entries;
    std::uint64_t stamp = 0;
};

} // namespace sb

#endif // SB_BRANCH_BTB_HH
