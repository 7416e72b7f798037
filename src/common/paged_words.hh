/**
 * @file
 * Read-only map from word addresses to 64-bit words, built once from
 * a log of writes and stored by 4 KiB page.
 *
 * Every page that holds a word has one record: its page number, the
 * index of its first value, eight 64-bit presence words (one bit per
 * word of the page) and eight running counts of the bits set in the
 * presence words before each one. The values are packed in page
 * order, 8 bytes per word, so the map costs 8 bytes a word plus about
 * 100 a page, where a half-empty hash table of (address, value) slots
 * costs about 31 a word. Pages are found through an open-addressed
 * index of page records (power-of-two size, at most half full), so a
 * lookup is one page probe plus one popcount.
 *
 * A Builder finds each write's page as the write arrives and logs it
 * in 12 bytes; freezing it is one pass over that log. Nothing changes
 * after construction, so any number of threads may read one map at
 * once. MemoryImage (isa/program.hh) keeps the shared base of every
 * built image in one.
 */

#ifndef SB_COMMON_PAGED_WORDS_HH
#define SB_COMMON_PAGED_WORDS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sb
{

class PagedWords
{
    static constexpr unsigned pageShift = 12;
    static constexpr unsigned wordShift = pageShift - 3;
    static constexpr unsigned wordsPerPage = 1u << wordShift;
    static constexpr unsigned presenceWords = wordsPerPage / 64;
    static constexpr std::uint32_t noPage = ~std::uint32_t(0);

    struct Page
    {
        Addr number = 0;         ///< Address >> pageShift.
        std::uint32_t first = 0; ///< Index of the page's first value.
        /** Words set in present[0..i). */
        std::uint16_t before[presenceWords] = {};
        /** Bit w % 64 of present[w / 64]: word w is stored. */
        std::uint64_t present[presenceWords] = {};
    };

    /** The page records and the open-addressed index that finds them. */
    struct Pages
    {
        std::vector<Page> records;        ///< In order of first write.
        std::vector<std::uint32_t> index; ///< Record positions, or noPage.
        unsigned indexShift = 64;         ///< 64 - log2(index.size()).

        /** The index slot holding page @p number, else the empty slot
         *  that ends its probe (the index must be non-empty). */
        std::size_t slotOf(Addr number) const;

        /** The position of page @p number's record, added if new. */
        std::uint32_t pageFor(Addr number);
    };

  public:
    /**
     * The writes for one map, append-only: nothing can be read back
     * before the map is built. Each write's page is found as it
     * arrives (a run of writes to one page, once) and its word marked
     * present; the write is logged as its page position and word
     * beside its value.
     */
    class Builder
    {
      public:
        /** Write @p value to the word holding @p addr. */
        void
        write(Addr addr, Word value)
        {
            if (lastAt == noPage || addr >> pageShift != lastNumber) {
                lastNumber = addr >> pageShift;
                lastAt = pages.pageFor(lastNumber);
            }
            const unsigned word = unsigned(addr >> 3) & (wordsPerPage - 1);
            pages.records[lastAt].present[word / 64] |=
                std::uint64_t(1) << (word % 64);
            where.push_back((lastAt << wordShift) | word);
            what.push_back(value);
        }

        /** Make room for @p writes more writes: a writer that knows
         *  how many are coming allocates the log once. */
        void
        reserve(std::size_t writes)
        {
            where.reserve(where.size() + writes);
            what.reserve(what.size() + writes);
        }

      private:
        friend class PagedWords;

        Pages pages;
        std::vector<std::uint32_t> where; ///< Position << 9 | word.
        std::vector<Word> what;           ///< The value written.
        Addr lastNumber = 0;              ///< The last write's page...
        std::uint32_t lastAt = noPage;    ///< ...and its position.
    };

    /** Freeze @p builder's writes, the last write to a word winning. */
    explicit PagedWords(Builder builder);

    /** The value stored at the word holding @p addr, or nullptr. */
    const Word *find(Addr addr) const;

    /** Words stored. */
    std::size_t size() const { return values.size(); }

    /** Call @p visit(addr, value) once for every stored word. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Page &page : pages.records) {
            const Word *value = values.data() + page.first;
            for (unsigned i = 0; i < presenceWords; ++i) {
                for (std::uint64_t bits = page.present[i]; bits != 0;
                     bits &= bits - 1) {
                    const unsigned word =
                        64 * i + unsigned(__builtin_ctzll(bits));
                    visit((page.number << pageShift) | (Addr(word) << 3),
                          *value++);
                }
            }
        }
    }

  private:
    /** Where the value of word @p word of @p page sits in `values`. */
    static std::size_t valueIndex(const Page &page, unsigned word);

    Pages pages;
    std::vector<Word> values; ///< Packed in page order.
};

} // namespace sb

#endif // SB_COMMON_PAGED_WORDS_HH
