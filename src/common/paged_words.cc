#include "common/paged_words.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

namespace
{

/** Bits set in @p x. The build targets baseline x86-64, which has no
 *  popcount instruction, and __builtin_popcountll would be a call. */
inline unsigned
popcount(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return unsigned((x * 0x0101010101010101ULL) >> 56);
}

} // anonymous namespace

std::size_t
PagedWords::Pages::slotOf(Addr number) const
{
    // Fibonacci hashing: the product's top bits, so neighbouring
    // pages spread over the whole index.
    const std::size_t mask = index.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((number * 0x9e3779b97f4a7c15ULL)
                                 >> indexShift);
    while (index[i] != noPage && records[index[i]].number != number)
        i = (i + 1) & mask;
    return i;
}

std::uint32_t
PagedWords::Pages::pageFor(Addr number)
{
    std::size_t slot = 0;
    if (!index.empty()) {
        slot = slotOf(number);
        if (index[slot] != noPage)
            return index[slot];
    }
    // A new page: keep the index at most half full.
    if (2 * (records.size() + 1) > index.size()) {
        const std::size_t cap =
            std::max<std::size_t>(16, 2 * index.size());
        index.assign(cap, noPage);
        indexShift = 64 - unsigned(__builtin_ctzll(cap));
        for (std::uint32_t at = 0; at < records.size(); ++at)
            index[slotOf(records[at].number)] = at;
        slot = slotOf(number);
    }
    // A logged write keeps the position in 32 bits beside its word.
    sb_assert(records.size() < (std::size_t(1) << (32 - wordShift)),
              "PagedWords: too many pages");
    const auto at = static_cast<std::uint32_t>(records.size());
    records.emplace_back();
    records.back().number = number;
    index[slot] = at;
    return at;
}

PagedWords::PagedWords(Builder builder) : pages(std::move(builder.pages))
{
    // Done growing: drop the slack before the values join the log.
    pages.records.shrink_to_fit();

    std::size_t total = 0;
    for (Page &page : pages.records) {
        sb_assert(total < noPage, "PagedWords: too many words");
        page.first = static_cast<std::uint32_t>(total);
        unsigned count = 0;
        for (unsigned i = 0; i < presenceWords; ++i) {
            page.before[i] = static_cast<std::uint16_t>(count);
            count += popcount(page.present[i]);
        }
        total += count;
    }
    values.resize(total);

    // Scatter the values in write order, so the last write to a word
    // wins. The builder, log included, is released on return.
    for (std::size_t i = 0; i < builder.where.size(); ++i) {
        const std::uint32_t w = builder.where[i];
        values[valueIndex(pages.records[w >> wordShift],
                          w & (wordsPerPage - 1))] = builder.what[i];
    }
}

std::size_t
PagedWords::valueIndex(const Page &page, unsigned word)
{
    const std::uint64_t below = page.present[word / 64]
                                & ((std::uint64_t(1) << (word % 64)) - 1);
    return page.first + page.before[word / 64] + popcount(below);
}

const Word *
PagedWords::find(Addr addr) const
{
    if (pages.index.empty())
        return nullptr;
    const std::uint32_t at = pages.index[pages.slotOf(addr >> pageShift)];
    if (at == noPage)
        return nullptr;
    const Page &page = pages.records[at];
    const unsigned word = unsigned(addr >> 3) & (wordsPerPage - 1);
    if (!(page.present[word / 64] >> (word % 64) & 1))
        return nullptr;
    return &values[valueIndex(page, word)];
}

} // namespace sb
