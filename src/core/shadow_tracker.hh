/**
 * @file
 * Speculation-shadow tracking (paper Sec. 6).
 *
 * Tracks C-shadows (unresolved branches) and D-shadows (stores whose
 * address is not yet known). Shadows resolve in program order: the
 * visibility point is the sequence number of the oldest unresolved
 * shadow, and every instruction older than it is bound-to-commit.
 * Speculative loads are registered at rename and handed back (oldest
 * first) as the visibility point passes them, which drives STT's
 * untaint broadcast and NDA's delayed broadcast.
 *
 * Entries are {handle, seq} pairs; a front entry whose handle no
 * longer resolves in the slab was squashed (its record freed during
 * the squash walk) and is retired like the shared_ptr engine retired
 * `squashed` fronts. Commit cannot free a tracked front first: a
 * shadow source must resolve (branch) or generate its address (store)
 * before it can complete, and a speculative load cannot reach the ROB
 * head while an older shadow is still open.
 *
 * The three lists are rings sized from the slab's capacity (each entry
 * was a live record when it was pushed). Squashed entries leave only
 * from the front, so a list can briefly outgrow that bound; its ring
 * then doubles.
 */

#ifndef SB_CORE_SHADOW_TRACKER_HH
#define SB_CORE_SHADOW_TRACKER_HH

#include <vector>

#include "core/dyn_inst.hh"
#include "core/inst_slab.hh"
#include "core/ring.hh"

namespace sb
{

/** In-order C/D-shadow tracker with a monotonic visibility point. */
class ShadowTracker
{
  public:
    /** Bind the backing slab (handle revalidation) and size the
     *  lists from its capacity. Call before the first onRename(). */
    void
    attachSlab(const InstSlab *s)
    {
        slab = s;
        branches = Ring<Entry>(s->capacity());
        stores = Ring<Entry>(s->capacity());
        specLoads = Ring<Entry>(s->capacity());
    }

    /** Register a renamed instruction (branches, stores, loads). */
    void onRename(InstHandle h, DynInst &inst);

    /**
     * Advance the visibility point.
     * @param next_seq the next sequence number to be assigned; the
     *        visibility point equals it when no shadows are live.
     * @param[out] now_safe loads that just became non-speculative,
     *        oldest first (appended).
     */
    void update(SeqNum next_seq, std::vector<InstHandle> &now_safe);

    /** Current visibility point. */
    SeqNum visibilityPoint() const { return vp; }

    /** Visibility point as of the end of the previous cycle. */
    SeqNum visibilityPointPrev() const { return vpPrev; }

    /** Latch the previous-cycle visibility point (call at tick start). */
    void latchPrev() { vpPrev = vp; }

    /** Is an instruction speculative (younger than an open shadow)? */
    bool isSpeculative(SeqNum seq) const { return seq > vp; }

  private:
    struct Entry
    {
        InstHandle handle;
        SeqNum seq;
    };

    const InstSlab *slab = nullptr;
    Ring<Entry> branches;  ///< Unresolved C-shadow sources.
    Ring<Entry> stores;    ///< Unknown-address D-shadow sources.
    Ring<Entry> specLoads; ///< Loads awaiting the point.
    SeqNum vp = 0;
    SeqNum vpPrev = 0;
};

} // namespace sb

#endif // SB_CORE_SHADOW_TRACKER_HH
