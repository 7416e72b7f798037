/**
 * @file
 * Load-store unit: load queue, store queue, store-to-load forwarding,
 * and memory-order violation detection.
 *
 * Loads may speculatively bypass older stores whose addresses are not
 * yet known (BOOM's optimistic memory disambiguation). When such a
 * store later generates a conflicting address, the load (and
 * everything younger) is flushed and refetched — these flushes are
 * the "store-to-load forwarding errors" of paper Sec. 9.2, which STT
 * inflates by delaying store address generation.
 *
 * Queue entries hold cached copies of every field the scans touch
 * (seq, pc, address, data, validity bits), so the forwarding and
 * violation scans never dereference slab records, and the post-commit
 * store drain works after the store's record has been freed. Each SQ
 * entry also owns the flat waiter list of loads stalled on its data
 * half — the replacement for the core's old ordered-map
 * forwardWaiters. The forwarding scan is the only store-queue search:
 * a load it sends to memory reads committed memory, because no older
 * store with a known address holds its word.
 *
 * Both queues are rings in program order. Allocation stamps the
 * instruction with a ticket (DynInst::lqTicket / sqTicket) that counts
 * the queue's allocations; an entry sits at position ticket - the head
 * entry's ticket, so the per-instruction updates find it without a
 * scan (and assert that its seq matches). A forwarding outcome names
 * its source store by ticket too, so parking a load on that store's
 * waiter list is also direct.
 *
 * Matching granularity is the 8-byte word (all modelled accesses are
 * word-sized).
 */

#ifndef SB_CORE_LSU_HH
#define SB_CORE_LSU_HH

#include <vector>

#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/inst_slab.hh"
#include "core/ring.hh"

namespace sb
{

/** Store-queue entry; every drained/scanned field is cached here. */
struct SqEntry
{
    SeqNum seq = 0;
    std::uint32_t pc = 0;
    Addr addr = 0;
    bool addrValid = false;
    bool dataValid = false;
    Word data = 0;
    bool committed = false;
    /** Loads stalled on this store's data half (StallData outcome). */
    std::vector<InstHandle> waiters;
};

/** Load-queue entry. */
struct LqEntry
{
    InstHandle handle = invalidInstHandle;
    SeqNum seq = 0;
    std::uint32_t pc = 0;
    Addr addr = 0;       ///< Cached when data returns.
    bool dataReturned = false;
    /** Store the load forwarded from, or invalidSeqNum. */
    SeqNum forwardedFrom = invalidSeqNum;
};

/** Outcome of the forwarding scan at load execute. */
struct ForwardOutcome
{
    enum class Kind
    {
        NoMatch,      ///< No older conflicting store: access memory.
        Forward,      ///< Forward @ref data from store @ref source.
        StallData,    ///< Conflicting store's data not ready: retry.
    };
    Kind kind = Kind::NoMatch;
    Word data = 0;
    /** The matching store (Forward, StallData): its seq and SQ
     *  ticket. */
    SeqNum source = invalidSeqNum;
    std::uint32_t sourceTicket = 0;
    /** True if an older store's address was still unknown. */
    bool bypassedUnknown = false;
};

/** Load and store queues (program-ordered rings). */
class Lsu
{
  public:
    Lsu(unsigned lq_capacity, unsigned sq_capacity);

    bool lqFull() const { return lq.size() >= lqCap; }
    bool sqFull() const { return sq.size() >= sqCap; }
    std::size_t lqSize() const { return lq.size(); }
    std::size_t sqSize() const { return sq.size(); }

    /** Allocate at rename (program order); stamps the ticket. */
    void allocateLoad(InstHandle h, DynInst &inst);
    void allocateStore(DynInst &inst);

    /** Cache a store's generated address (at address execute). */
    void storeAddrReady(const DynInst &store);

    /** Scan older stores for a forwarding source for @p load. */
    ForwardOutcome checkForwarding(const DynInst &load) const;

    /** Park @p waiter on the data half of the source store of
     *  @p stall (a StallData outcome of checkForwarding). */
    void addForwardWaiter(const ForwardOutcome &stall, InstHandle waiter);

    /** Record that @p load received data (from @p source, if any). */
    void loadDataReturned(const DynInst &load, SeqNum source);

    /**
     * Record the data half of a store; hands back (appends) the
     * waiter list so the core can retry the stalled loads.
     */
    void storeDataReady(const DynInst &store, Word data,
                        std::vector<InstHandle> &woken);

    /**
     * After a store's address generation, find the oldest younger
     * load that already read data it should have received from this
     * store. Returns nullptr if none (no violation).
     */
    const LqEntry *checkViolation(const DynInst &store) const;

    /** Mark the store-queue entry committed (drains later). */
    void markStoreCommitted(const DynInst &store);

    /** Committed store at the SQ head ready to drain, else nullptr. */
    SqEntry *drainableStore();

    /** Pop the drained SQ head. */
    void popDrainedStore();

    /** Release the LQ entry of a committing load. */
    void releaseLoad(const DynInst &load);

    /** Remove all entries younger than @p seq. */
    void squash(SeqNum seq);

  private:
    static Addr wordAddr(Addr a) { return a & ~Addr(7); }

    /** The entry of an allocated load / store, found by its ticket. */
    LqEntry &lqEntry(const DynInst &load);
    SqEntry &sqEntry(std::uint32_t ticket, SeqNum seq);
    SqEntry &
    sqEntry(const DynInst &store)
    {
        return sqEntry(store.sqTicket, store.seq);
    }

    unsigned lqCap;
    unsigned sqCap;
    Ring<LqEntry> lq;
    Ring<SqEntry> sq;
    /** Tickets of the head entries (tickets wrap with the counters). */
    std::uint32_t lqHeadTicket = 0;
    std::uint32_t sqHeadTicket = 0;
};

} // namespace sb

#endif // SB_CORE_LSU_HH
