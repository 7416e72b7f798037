/**
 * @file
 * Index-addressed, generation-tagged storage for in-flight DynInst
 * records.
 *
 * Every pipeline structure (queues, ROB, issue queue, LSU, event
 * wheel, scheme-owned lists) refers to instructions by a 32-bit
 * InstHandle instead of a shared_ptr: 4-byte queue elements, no
 * atomic refcount traffic, and records packed in one flat array the
 * stage loops walk cache-linearly.
 *
 * Lifetime is explicit and single-owner:
 *  - allocated at fetch,
 *  - freed at commit (the record's fields the LSU still needs for the
 *    post-commit store drain are cached in its SqEntry), or
 *  - freed during the squash walk.
 *
 * Safety comes from the generation tag: the handle's upper half must
 * match the slot's current generation, which is bumped on every
 * free. Any structure that can legitimately outlive its instruction
 * (completion events, retry queues, forwarding waiter lists, parked
 * loads) revalidates through tryGet() and treats nullptr as "the
 * instruction was squashed" — the exact places the shared_ptr engine
 * checked a `squashed` flag.
 */

#ifndef SB_CORE_INST_SLAB_HH
#define SB_CORE_INST_SLAB_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "core/dyn_inst.hh"

namespace sb
{

/** Handle to a slab slot: low 16 bits index, high 16 bits generation. */
using InstHandle = std::uint32_t;

/** Sentinel: never matches a live slot. */
constexpr InstHandle invalidInstHandle = 0xFFFFFFFFu;

/** Fixed-capacity slab of DynInst records with generation tags. */
class InstSlab
{
  public:
    /**
     * @param capacity maximum simultaneously live records. The core
     * sizes this from its geometry (every live instruction sits in
     * exactly one of the fetch queue, decode queue, or ROB), so
     * alloc() never grows storage and record references stay stable
     * for the life of the slab.
     */
    explicit InstSlab(std::size_t capacity) : cap(capacity)
    {
        sb_assert(capacity > 0 && capacity < slotMask,
                  "slab capacity must fit in the handle's index bits");
        records.resize(capacity);
        gens.assign(capacity, 0);
        freeList.reserve(capacity);
        for (std::size_t i = capacity; i-- > 0;)
            freeList.push_back(static_cast<std::uint32_t>(i));
    }

    /**
     * Allocate a slot. The record is returned as-is (stale contents);
     * the caller overwrites it wholesale (the core assigns a decoded
     * template; tests assign DynInst{}).
     */
    InstHandle
    alloc()
    {
        sb_assert(!freeList.empty(), "instruction slab overflow");
        const std::uint32_t idx = freeList.back();
        freeList.pop_back();
        ++liveNow;
        if (liveNow > hiWater)
            hiWater = liveNow;
        return (static_cast<InstHandle>(gens[idx]) << indexBits) | idx;
    }

    /** Free a live slot; its generation bumps, staling all handles. */
    void
    free(InstHandle h)
    {
        const std::uint32_t idx = h & slotMask;
        sb_assert(idx < cap && gens[idx] == (h >> indexBits),
                  "freeing a stale or invalid instruction handle");
        ++gens[idx]; // uint16 wrap is fine: stale handles die young.
        freeList.push_back(idx);
        --liveNow;
        ++recycledCount;
    }

    /** Record for a live handle (asserts liveness in debug builds). */
    DynInst &
    get(InstHandle h)
    {
        sb_assert(alive(h), "dereferencing a stale instruction handle");
        return records[h & slotMask];
    }

    const DynInst &
    get(InstHandle h) const
    {
        sb_assert(alive(h), "dereferencing a stale instruction handle");
        return records[h & slotMask];
    }

    /** Record if @p h is live, nullptr if freed (= squashed). */
    DynInst *
    tryGet(InstHandle h)
    {
        const std::uint32_t idx = h & slotMask;
        if (idx >= cap || gens[idx] != (h >> indexBits))
            return nullptr;
        return &records[idx];
    }

    const DynInst *
    tryGet(InstHandle h) const
    {
        const std::uint32_t idx = h & slotMask;
        if (idx >= cap || gens[idx] != (h >> indexBits))
            return nullptr;
        return &records[idx];
    }

    /** Does @p h still address the record it was created for? */
    bool
    alive(InstHandle h) const
    {
        const std::uint32_t idx = h & slotMask;
        return idx < cap && gens[idx] == (h >> indexBits);
    }

    std::size_t capacity() const { return cap; }
    std::size_t liveCount() const { return liveNow; }

    /** Most records simultaneously live over the slab's lifetime. */
    std::size_t highWater() const { return hiWater; }

    /** Total slots freed (= handles recycled) over the lifetime. */
    std::uint64_t recycled() const { return recycledCount; }

  private:
    static constexpr unsigned indexBits = 16;
    static constexpr std::uint32_t slotMask = (1u << indexBits) - 1;

    /** records.size(), kept apart: the vector's size is a pointer
     *  difference divided by sizeof(DynInst). */
    std::size_t cap;
    std::vector<DynInst> records;        ///< Never reallocated.
    std::vector<std::uint16_t> gens;     ///< Current generation per slot.
    std::vector<std::uint32_t> freeList;
    std::size_t liveNow = 0;
    std::size_t hiWater = 0;
    std::uint64_t recycledCount = 0;
};

} // namespace sb

#endif // SB_CORE_INST_SLAB_HH
