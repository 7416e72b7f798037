#include "secure/stt_rename.hh"

#include "common/logging.hh"
#include "secure/taint_util.hh"

namespace sb
{

void
SttRenameScheme::onRenameGroup(const std::vector<DynInst *> &group)
{
    // The untaint broadcast reaches the rename-stage taint RAT one
    // cycle after the visibility point moves.
    const SeqNum vp = coreRef->visibilityPointPrev();

    // Serial pass over the group: younger instructions see the taint
    // writes of older same-cycle instructions — the dependency chain
    // of Fig. 3.
    for (DynInst *inst : group) {
        YRoT src1_taint = invalidSeqNum;
        YRoT src2_taint = invalidSeqNum;
        if (inst->uop.hasSrc1())
            src1_taint = filterRoot(taintRat[inst->uop.src1], vp);
        if (inst->uop.hasSrc2())
            src2_taint = filterRoot(taintRat[inst->uop.src2], vp);
        const YRoT unified = youngestRoot(src1_taint, src2_taint);

        inst->yrot = unified;
        if (inst->isStore() && schemeCfg.twoTaintStores) {
            // Sec. 9.2 optimization: separate taints for the address
            // and data operands of a store. Only the address half
            // transmits, so the data half's taint is never consulted.
            inst->yrotAddr = src1_taint;
        }

        if (inst->uop.hasDst()) {
            inst->staleYrot = taintRat[inst->uop.dst];
            if (inst->isLoad()) {
                // Speculative loads root a fresh taint; bound-to-
                // commit loads produce clean data (Sec. 3.1).
                taintRat[inst->uop.dst] =
                    inst->specAtRename ? inst->seq : invalidSeqNum;
            } else {
                taintRat[inst->uop.dst] = unified;
            }
        }
    }
}

bool
SttRenameScheme::selectVeto(const DynInst &inst, bool addr_half)
{
    const SeqNum vp = coreRef->visibilityPointPrev();

    if (inst.isStore()) {
        if (schemeCfg.twoTaintStores) {
            // Address half transmits; data half is unobservable.
            return addr_half && rootLive(inst.yrotAddr, vp);
        }
        // Single-taint store: the unified YRoT blocks both halves,
        // delaying address generation (the Sec. 9.2 pathology).
        return rootLive(inst.yrot, vp);
    }
    if (!inst.uop.isTransmitter())
        return false;
    return rootLive(inst.yrot, vp);
}

void
SttRenameScheme::onSquashWalk(const DynInst &inst)
{
    // Youngest-first walk restores the taint RAT exactly; stale
    // roots are filtered against the visibility point on read.
    if (inst.uop.hasDst())
        taintRat[inst.uop.dst] = inst.staleYrot;
}

} // namespace sb
