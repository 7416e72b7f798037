#include "memory/prefetcher.hh"

#include "common/logging.hh"

namespace sb
{

StridePrefetcher::StridePrefetcher(const std::string &name,
                                   unsigned table_entries, unsigned degree)
    : table(table_entries), degree(degree), statGroup(name),
      st(statGroup)
{
    sb_assert(table_entries > 0, "prefetcher needs a table");
}

void
StridePrefetcher::observe(std::uint64_t pc, Addr addr,
                          std::vector<Addr> &prefetches)
{
    Entry &e = table[pc % table.size()];
    if (e.pc != pc) {
        e.pc = pc;
        e.lastAddr = addr;
        e.stride = 0;
        e.confidence = 0;
        return;
    }
    // Address arithmetic is unsigned, then read as signed: it wraps
    // where int64 arithmetic would overflow (strides across 2^63) and
    // gives the same bits everywhere else.
    const auto stride = static_cast<std::int64_t>(addr - e.lastAddr);
    if (stride != 0 && stride == e.stride) {
        if (e.confidence < 4)
            ++e.confidence;
    } else {
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
        e.stride = stride;
    }
    e.lastAddr = addr;

    if (e.confidence >= 2 && e.stride != 0) {
        for (unsigned d = 1; d <= degree; ++d) {
            // Targets at or past 2^63 (negative as int64) are dropped.
            const Addr target =
                addr + static_cast<Addr>(e.stride) * (d + 1);
            if (static_cast<std::int64_t>(target) >= 0) {
                prefetches.push_back(target);
                ++st.issued;
            }
        }
    }
}

} // namespace sb
