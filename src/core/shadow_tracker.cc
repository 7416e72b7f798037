#include "core/shadow_tracker.hh"

#include "common/logging.hh"

namespace sb
{

void
ShadowTracker::onRename(InstHandle h, DynInst &inst)
{
    if (inst.isBranch()) {
        branches.push_back(Entry{h, inst.seq});
    } else if (inst.isStore()) {
        stores.push_back(Entry{h, inst.seq});
    } else if (inst.isLoad()) {
        // Only loads renamed under an open shadow are speculative;
        // older instructions all renamed earlier, so no later shadow
        // can appear behind this load.
        if (isSpeculative(inst.seq)) {
            inst.specAtRename = true;
            specLoads.push_back(Entry{h, inst.seq});
        }
    }
}

void
ShadowTracker::update(SeqNum next_seq, std::vector<InstHandle> &now_safe)
{
    // Retire resolved / squashed shadow sources from the front. A
    // handle that no longer resolves was freed by the squash walk.
    while (!branches.empty()) {
        const DynInst *r = slab->tryGet(branches.front().handle);
        if (r && !r->resolved)
            break;
        branches.pop_front();
    }
    while (!stores.empty()) {
        const DynInst *r = slab->tryGet(stores.front().handle);
        if (r && !r->effAddrValid)
            break;
        stores.pop_front();
    }

    SeqNum new_vp = next_seq;
    if (!branches.empty())
        new_vp = std::min(new_vp, branches.front().seq);
    if (!stores.empty())
        new_vp = std::min(new_vp, stores.front().seq);
    sb_assert(new_vp >= vp, "visibility point must be monotonic");
    vp = new_vp;

    while (!specLoads.empty()) {
        const Entry &front = specLoads.front();
        if (!slab->alive(front.handle)) { // Squashed (freed).
            specLoads.pop_front();
            continue;
        }
        if (front.seq > vp)
            break;
        // seq == vp cannot happen (vp points at a branch or store).
        now_safe.push_back(front.handle);
        specLoads.pop_front();
    }
}

} // namespace sb
