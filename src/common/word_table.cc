#include "common/word_table.hh"

namespace sb
{

namespace
{

std::size_t
probeStart(Addr addr, std::size_t mask)
{
    // splitmix64-style multiply-shift on the word index.
    return static_cast<std::size_t>(
               ((addr >> 3) * 0x9e3779b97f4a7c15ULL) >> 24)
           & mask;
}

} // anonymous namespace

const WordTable::Slot *
WordTable::probe(Addr aligned) const
{
    const std::size_t mask = table.size() - 1;
    std::size_t i = probeStart(aligned, mask);
    while (table[i].addr != emptySlot && table[i].addr != aligned)
        i = (i + 1) & mask;
    return &table[i];
}

const WordTable::Slot *
WordTable::find(Addr aligned) const
{
    if (table.empty())
        return nullptr;
    const Slot *s = probe(aligned);
    return s->addr == aligned ? s : nullptr;
}

void
WordTable::grow(std::size_t min_capacity)
{
    std::size_t cap = 64;
    while (cap < min_capacity)
        cap <<= 1;
    std::vector<Slot> old;
    old.swap(table);
    table.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (const Slot &s : old) {
        if (s.addr == emptySlot)
            continue;
        std::size_t i = probeStart(s.addr, mask);
        while (table[i].addr != emptySlot)
            i = (i + 1) & mask;
        table[i] = s;
    }
}

void
WordTable::reserve(std::size_t entries)
{
    // The same bound put() keeps: entries * 10 < capacity * 7.
    if (entries * 10 >= table.size() * 7)
        grow(entries * 10 / 7 + 1);
}

bool
WordTable::put(Addr aligned, Word value)
{
    // Keep the load factor under ~70% (count is pre-incremented for
    // the possible insert); doubling leaves it at ~35%.
    if ((count + 1) * 10 >= table.size() * 7)
        grow(2 * table.size());

    Slot *s = const_cast<Slot *>(probe(aligned));
    const bool inserted = s->addr == emptySlot;
    if (inserted) {
        s->addr = aligned;
        ++count;
    }
    s->value = value;
    return inserted;
}

} // namespace sb
