/**
 * @file
 * Flat open-addressing table from 8-aligned word addresses to 64-bit
 * words (linear probe, power-of-two size, load factor under ~70%).
 *
 * An insert that would pass the 70% bound doubles the table, so after
 * a growth it is about 35% full and a table never holds more than
 * about three slots per entry. A writer that knows how many entries
 * are coming calls reserve() first and pays one allocation at the
 * final size instead of a chain of growths, each of which briefly
 * holds the old table and the new one at once.
 *
 * The table only ever inserts or overwrites: no deletions, hence no
 * tombstones, which keeps every lookup one probe sequence instead of
 * node-based hashing. A user that needs "remove" stores a value that
 * means absent. MemoryImage keeps its private write layer in it (a
 * built image's shared base is a PagedWords, common/paged_words.hh),
 * and the contract shadow its secret memory labels.
 */

#ifndef SB_COMMON_WORD_TABLE_HH
#define SB_COMMON_WORD_TABLE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace sb
{

class WordTable
{
  public:
    /** Keys are 8-aligned, so an odd address marks an empty slot. */
    static constexpr Addr emptySlot = 1;

    struct Slot
    {
        Addr addr = emptySlot;
        Word value = 0;
    };

    /** The slot holding @p aligned, or nullptr. */
    const Slot *find(Addr aligned) const;

    /** Insert or overwrite; true if @p aligned was new. */
    bool put(Addr aligned, Word value);

    /** Grow so that @p entries (in total) fit without a rehash. */
    void reserve(std::size_t entries);

    std::size_t size() const { return count; }

    /** Every slot, empty ones included (addr == emptySlot). */
    const std::vector<Slot> &slots() const { return table; }

  private:
    /** The slot holding @p aligned, else the first empty slot on its
     *  probe path (the table must be non-empty). */
    const Slot *probe(Addr aligned) const;
    void grow(std::size_t min_capacity);

    std::vector<Slot> table; ///< Empty until the first put.
    std::size_t count = 0;
};

} // namespace sb

#endif // SB_COMMON_WORD_TABLE_HH
