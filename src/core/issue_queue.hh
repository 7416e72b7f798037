/**
 * @file
 * Unified issue queue with indexed wakeup and an age-ordered candidate
 * list. Stores occupy one entry but expose two independently
 * issueable halves (address and data), modelling BOOM's partial store
 * issue (paper Sec. 9.2). Selection policy lives in the core; the
 * queue provides storage, wakeup, and age-ordered iteration over the
 * issue candidates.
 *
 * Hot-path design:
 *  - Entries live in a fixed slot array with a free list; a slot
 *    index is stamped on the DynInst so remove() is O(1). Slot numbers
 *    carry no age: the only order the queue keeps is the candidate
 *    list's, and squash() sweeps the slot array.
 *  - Entries hold an InstHandle plus a cached copy of the fields the
 *    wakeup/squash/select scans touch (seq, operand registers, store
 *    flag, ready bits). Wakeup and the not-ready skip in the select
 *    scan never dereference the slab record — the queue is its own
 *    dense struct-of-arrays slice.
 *  - wakeup(preg) walks a wakeup bit matrix instead of scanning every
 *    entry: each physical register owns a row of ceil(capacity/64)
 *    words with one bit per slot waiting on it. insert() sets a bit
 *    per outstanding operand, freeing a slot clears the bits it still
 *    holds, and a broadcast visits the set bits in slot order and
 *    clears its row (a physical register wakes at most once per
 *    allocation). Candidates join the age-ordered candidate list by an
 *    ordered insert on unique sequence numbers, so neither the
 *    visiting order nor the slot numbers change the list.
 */

#ifndef SB_CORE_ISSUE_QUEUE_HH
#define SB_CORE_ISSUE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "core/dyn_inst.hh"
#include "core/inst_slab.hh"

namespace sb
{

/** One issue-queue slot: handle + cached scan fields. */
struct IqEntry
{
    InstHandle handle = invalidInstHandle;
    SeqNum seq = 0;
    PhysReg psrc1 = invalidPhysReg;
    PhysReg psrc2 = invalidPhysReg;
    bool hasSrc1 = false;
    bool hasSrc2 = false;
    bool isStore = false;
    bool src1Ready = false;
    bool src2Ready = false;

    // Intrusive bookkeeping (owned by IssueQueue).
    std::int32_t rdyPrev = -1; ///< Ready-list links (candidate scan).
    std::int32_t rdyNext = -1;
    bool inReady = false;

    bool ready() const { return src1Ready && src2Ready; }
};

/** Fixed-capacity unified issue queue. */
class IssueQueue
{
  public:
    /** @param num_phys_regs rows of the wakeup matrix: every register
     *  insert() and wakeup() see is below it. */
    IssueQueue(unsigned capacity, unsigned num_phys_regs);

    /** Bind the backing slab (squash revalidates handles through it). */
    void attachSlab(InstSlab *s) { slab = s; }

    bool full() const { return count >= cap; }
    std::size_t size() const { return count; }
    unsigned capacity() const { return cap; }

    /** Insert a dispatched instruction with its initial ready bits. */
    void insert(InstHandle h, DynInst &inst, bool src1_ready,
                bool src2_ready);

    /** Broadcast: wake every entry sourcing @p preg. */
    void wakeup(PhysReg preg);

    /** Remove entries younger than @p seq (squash). */
    void squash(SeqNum seq);

    /** Remove one fully issued (live) instruction. */
    void remove(DynInst &inst);

    /** The entry in slot @p idx (an index from the walk below, or any
     *  slot below capacity(); a free slot holds invalidInstHandle). */
    IqEntry &entryAt(std::int32_t idx) { return slots[idx]; }

    /**
     * Age-ordered walk over issue *candidates* only — entries with at
     * least one ready, unissued half. Entries an age-order scan of the
     * whole queue would skip without side effects (operands
     * outstanding) never appear, so walking this list is behaviorally
     * identical to that scan while touching ~issue-width entries
     * instead of the whole queue. Membership is maintained by insert/wakeup
     * (join) and freeSlot (leave); entries stay listed until they
     * leave the queue, so scheme-vetoed or port-starved candidates
     * are rescanned next cycle exactly as before.
     */
    std::int32_t firstReady() const { return rdyHead; }
    std::int32_t nextReady(std::int32_t idx) const
    {
        return slots[idx].rdyNext;
    }

  private:
    /** Row @p preg of the wakeup matrix. */
    std::uint64_t *
    waitRow(PhysReg preg)
    {
        return &waiting[static_cast<std::size_t>(preg) * rowWords];
    }
    void setWaiting(PhysReg preg, std::int32_t slot);
    void clearWaiting(PhysReg preg, std::int32_t slot);

    /** Return slot @p slot to the free list (the record, if any, is
     *  the caller's to update). */
    void freeSlot(std::int32_t slot);

    /** Any ready, potentially unissued half? (Stores issue in halves.) */
    static bool
    candidate(const IqEntry &e)
    {
        return e.isStore ? (e.src1Ready || e.src2Ready)
                         : (e.src1Ready && e.src2Ready);
    }

    void readyLink(std::int32_t slot);
    void readyUnlink(std::int32_t slot);

    unsigned cap;
    InstSlab *slab = nullptr;
    std::vector<IqEntry> slots;          ///< cap entries, index-stable.
    std::vector<std::int32_t> freeSlots;
    std::int32_t rdyHead = -1;           ///< Oldest candidate.
    std::int32_t rdyTail = -1;           ///< Youngest candidate.
    std::size_t count = 0;

    unsigned numPregs;
    unsigned rowWords;                   ///< ceil(cap / 64).
    /** Wakeup matrix: numPregs rows of rowWords words; bit s of a row
     *  is set while slot s waits on that register. */
    std::vector<std::uint64_t> waiting;
};

} // namespace sb

#endif // SB_CORE_ISSUE_QUEUE_HH
