#include "secure/stt_issue.hh"

#include "common/logging.hh"
#include "secure/taint_util.hh"

namespace sb
{

void
SttIssueScheme::attach(Core &core)
{
    SecureScheme::attach(core);
    taintTable.assign(core.config().numPhysRegs, invalidSeqNum);
}

bool
SttIssueScheme::selectVeto(const DynInst &inst, bool /* addr_half */)
{
    // Only the back-propagated YRoT masks ready (Fig. 4, step 5);
    // it is checked against the *current* visibility point, so the
    // entry re-arms the same cycle its root becomes safe.
    return rootLive(inst.yrotMask, coreRef->visibilityPoint());
}

bool
SttIssueScheme::onSelect(DynInst &inst, bool addr_half)
{
    const SeqNum vp = coreRef->visibilityPoint();

    // The taint unit reads only the operands this issue consumes.
    YRoT y = invalidSeqNum;
    const bool use_src1 = !inst.isStore() || addr_half;
    const bool use_src2 = !inst.isStore() || !addr_half;
    if (use_src1 && inst.uop.hasSrc1())
        y = youngestRoot(y, filterRoot(taintTable[inst.psrc1], vp));
    if (use_src2 && inst.uop.hasSrc2())
        y = youngestRoot(y, filterRoot(taintTable[inst.psrc2], vp));

    // Transmitting uses: a load's or store's address, a branch's
    // condition. A tainted transmitter is killed into a nop and its
    // YRoT back-propagated to the issue-queue entry.
    const bool transmitting_use =
        inst.isLoad() || inst.isBranch() || (inst.isStore() && addr_half);
    if (transmitting_use && y != invalidSeqNum) {
        inst.yrotMask = y;
        return false;
    }

    inst.yrot = y;
    if (inst.uop.hasDst()) {
        if (inst.isLoad()) {
            // A speculative load roots a fresh taint; its address
            // taint was necessarily clear to get here.
            taintTable[inst.pdst] =
                coreRef->isSpeculative(inst.seq) ? inst.seq
                                                 : invalidSeqNum;
        } else {
            taintTable[inst.pdst] = y;
        }
    }
    return true;
}

} // namespace sb
