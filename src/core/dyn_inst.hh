/**
 * @file
 * Dynamic instruction record.
 *
 * One DynInst is created per fetched micro-op and carries all
 * per-instance pipeline state: rename mappings, issue/execute status,
 * functional values, branch resolution, LSU indices, and the secure
 * schemes' taint fields (YRoT = youngest root of taint, paper
 * Sec. 3.1).
 *
 * Records live in the core's InstSlab (core/inst_slab.hh) and are
 * addressed by 32-bit generation-tagged InstHandles; pipeline
 * structures store handles, never pointers.
 */

#ifndef SB_CORE_DYN_INST_HH
#define SB_CORE_DYN_INST_HH

#include "common/types.hh"
#include "isa/microop.hh"

namespace sb
{

/** One in-flight dynamic instruction. */
struct DynInst
{
    // --- Identity -----------------------------------------------------
    SeqNum seq = 0;           ///< Global program-order sequence number.
    std::uint32_t pc = 0;     ///< Static code index.
    /** Protection domain this instruction was fetched under. */
    TenantId tenant = 0;
    MicroOp uop;

    // --- Rename -------------------------------------------------------
    PhysReg pdst = invalidPhysReg;
    PhysReg psrc1 = invalidPhysReg;
    PhysReg psrc2 = invalidPhysReg;
    PhysReg stalePdst = invalidPhysReg; ///< Previous mapping of dst.

    // --- Pipeline status ------------------------------------------------
    /** Issue-queue slot index while in the issue queue, else -1. */
    std::int32_t iqSlot = -1;
    bool addrIssued = false;  ///< Loads & store address halves.
    bool dataIssued = false;  ///< Store data halves; ALU "the" issue.
    bool storeDataDone = false; ///< Store data half has executed.
    bool completed = false;   ///< Result final; eligible to commit.
    bool squashed = false;

    // --- Functional values ----------------------------------------------
    Word result = 0;
    Addr effAddr = 0;
    bool effAddrValid = false;

    // --- Branch state -----------------------------------------------------
    bool predTaken = false;
    bool actualTaken = false;
    bool resolved = false;
    std::uint64_t histSnapshot = 0; ///< Global history before this branch.
    /** Fetch-time predicted next PC (BTB output for JmpReg). */
    std::uint32_t predTarget = 0;
    /** Resolved next PC (commit-time BTB training for JmpReg). */
    std::uint32_t actualTarget = 0;

    // --- Memory state -----------------------------------------------------
    /** LSU allocation tickets (Lsu::allocateLoad / allocateStore). */
    std::uint32_t lqTicket = 0;
    std::uint32_t sqTicket = 0;
    bool l1Hit = false;
    Cycle completeAt = 0;

    // --- Secure-scheme state (STT / NDA) -----------------------------------
    /** Unified YRoT assigned at rename (STT-Rename). */
    YRoT yrot = invalidSeqNum;
    /** Address-operand YRoT (two-taint store ablation, Sec. 9.2). */
    YRoT yrotAddr = invalidSeqNum;
    /** Back-propagated YRoT masking ready in the IQ (STT-Issue). */
    YRoT yrotMask = invalidSeqNum;
    /** taint-RAT value this instruction overwrote (walk-back undo). */
    YRoT staleYrot = invalidSeqNum;
    /** Load registered as speculative at rename (has a taint root). */
    bool specAtRename = false;

    // --- Convenience ------------------------------------------------------
    bool isLoad() const { return uop.isLoad(); }
    bool isStore() const { return uop.isStore(); }
    bool isBranch() const { return uop.isBranch(); }
};

} // namespace sb

#endif // SB_CORE_DYN_INST_HH
