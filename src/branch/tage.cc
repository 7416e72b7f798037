#include "branch/tage.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

TagePredictor::TagePredictor(unsigned log_entries)
    : logEntries(log_entries),
      base(1u << (log_entries + 2), 1)
{
    sb_assert(log_entries >= 4 && log_entries <= 16,
              "unreasonable TAGE table size");
    for (unsigned len : {8u, 16u, 32u, 64u}) {
        Component c;
        c.historyLength = len;
        c.entries.resize(1u << log_entries);
        components.push_back(std::move(c));
    }
}

void
TagePredictor::flushSpeculativeState()
{
    std::fill(base.begin(), base.end(), 1);
    for (Component &c : components) {
        std::fill(c.entries.begin(), c.entries.end(), TaggedEntry{});
    }
    allocSeed = 0x1234;
}

std::uint64_t
TagePredictor::fold(std::uint64_t hist, unsigned len, unsigned bits)
{
    if (len < 64)
        hist &= (1ULL << len) - 1;
    std::uint64_t folded = 0;
    for (unsigned i = 0; i < len; i += bits)
        folded ^= (hist >> i);
    return folded & ((1ULL << bits) - 1);
}

TagePredictor::Lookup
TagePredictor::lookup(std::uint64_t pc, std::uint64_t hist) const
{
    Lookup l;
    const std::uint64_t index_mask = (1ULL << logEntries) - 1;
    for (unsigned i = 0; i < numComponents; ++i) {
        const unsigned len = components[i].historyLength;
        l.index[i] = static_cast<unsigned>(
            (pc ^ (pc >> logEntries) ^ fold(hist, len, logEntries))
            & index_mask);
        l.tag[i] = static_cast<std::uint16_t>(
            (pc ^ (pc >> 7) ^ (fold(hist, len, 9) << 1)) & 0x1ff);
    }
    l.provider = -1;
    for (int i = numComponents - 1; i >= 0; --i) {
        if (components[i].entries[l.index[i]].tag == l.tag[i]) {
            l.provider = i;
            break;
        }
    }
    return l;
}

bool
TagePredictor::predicted(const Lookup &l, std::uint64_t pc) const
{
    if (l.provider >= 0)
        return components[l.provider].entries[l.index[l.provider]].ctr
               >= 0;
    return base[pc & (base.size() - 1)] >= 2;
}

bool
TagePredictor::predict(std::uint64_t pc, std::uint64_t hist)
{
    return predicted(lookup(pc, hist), pc);
}

void
TagePredictor::update(std::uint64_t pc, std::uint64_t hist, bool taken)
{
    const Lookup l = lookup(pc, hist);
    const int p = l.provider;
    const bool correct = predicted(l, pc) == taken;

    if (p >= 0) {
        TaggedEntry &e = components[p].entries[l.index[p]];
        if (taken && e.ctr < 3)
            ++e.ctr;
        else if (!taken && e.ctr > -4)
            --e.ctr;
        if (correct && e.useful < 3)
            ++e.useful;
        else if (!correct && e.useful > 0)
            --e.useful;
    } else {
        auto &ctr = base[pc & (base.size() - 1)];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }

    // Allocate in a longer-history component on a misprediction.
    if (!correct && p < static_cast<int>(numComponents) - 1) {
        // Deterministic pseudo-random start slot among candidates.
        allocSeed = allocSeed * 6364136223846793005ULL + 1442695040888963407ULL;
        const unsigned start = p + 1
            + static_cast<unsigned>((allocSeed >> 33)
                                    % (numComponents - p - 1));
        bool allocated = false;
        for (unsigned i = start; i < numComponents && !allocated; ++i) {
            TaggedEntry &e = components[i].entries[l.index[i]];
            if (e.useful == 0) {
                e.tag = l.tag[i];
                e.ctr = taken ? 0 : -1;
                e.useful = 0;
                allocated = true;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations can succeed.
            for (unsigned i = p + 1; i < numComponents; ++i) {
                TaggedEntry &e = components[i].entries[l.index[i]];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }
}

} // namespace sb
