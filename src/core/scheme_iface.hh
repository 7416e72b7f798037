/**
 * @file
 * Extension point for secure speculation schemes.
 *
 * The core calls these hooks at the microarchitectural points the
 * paper's designs modify: the rename group (STT-Rename taint
 * computation, Sec. 4.1), issue select (STT-Issue taint unit,
 * Sec. 4.3), result broadcast (NDA delayed broadcast, Sec. 5.1), and
 * squash walk-back (checkpoint restore, Sec. 4.2).
 *
 * The base class implements the *unsafe baseline*: every hook is a
 * no-op / pass-through.
 */

#ifndef SB_CORE_SCHEME_IFACE_HH
#define SB_CORE_SCHEME_IFACE_HH

#include <vector>

#include "common/config.hh"
#include "core/dyn_inst.hh"
#include "core/inst_slab.hh"
#include "core/security_contract.hh"

namespace sb
{

class Core;

/** Secure speculation scheme hooks; base class = unsafe baseline. */
class SecureScheme
{
  public:
    virtual ~SecureScheme() = default;

    virtual const char *name() const { return "Baseline"; }
    virtual Scheme kind() const { return Scheme::Baseline; }

    /** Bind to a core. Called once before simulation. */
    virtual void attach(Core &core) { coreRef = &core; }

    /**
     * Rename-stage hook: the group of instructions renamed this
     * cycle, oldest first. STT-Rename performs the serial YRoT chain
     * here (Fig. 3).
     */
    virtual void onRenameGroup(const std::vector<DynInst *> &) {}

    /**
     * Ready-signal veto evaluated during select: return true to keep
     * the instruction (or the given store half) from being selected
     * this cycle.
     */
    virtual bool
    selectVeto(const DynInst &, bool /* addr_half */)
    {
        return false;
    }

    /**
     * Taint unit at issue (STT-Issue): called when an instruction (or
     * store half) wins a select port. Return false to kill the issue
     * into a nop, wasting the slot (Fig. 4, step 4).
     */
    virtual bool
    onSelect(DynInst &, bool /* addr_half */)
    {
        return true;
    }

    /**
     * Broadcast interposer: called when a result would wake its
     * dependents (ALU results at schedule time, load results at
     * completion). Return true to take ownership of the broadcast —
     * the scheme must later call Core::scheduleWakeup itself (NDA's
     * delayed, port-limited broadcast). Schemes that hold the
     * instruction past this call keep the handle and revalidate it
     * through the slab; a stale handle means the instruction was
     * squashed.
     */
    virtual bool
    deferBroadcast(InstHandle, const DynInst &, Cycle /* ready_at */)
    {
        return false;
    }

    /**
     * Miss-delay interposer (Delay-on-Miss): called from the load
     * memory stage when @p load is about to launch a demand access
     * (its address is known; store forwarding was already ruled out).
     * The scheme probes L1 residency / speculation state itself.
     * Return true to take ownership of the load — the scheme must
     * park it and later re-inject it via Core::retryLoad() (typically
     * once the visibility point has passed it). Returning false lets
     * the access proceed normally.
     */
    virtual bool delayLoadMiss(InstHandle, const DynInst &) { return false; }

    /**
     * Per-cycle scheme machinery (e.g. draining broadcast queues).
     *
     * Timing contract: Core::run() skips the cycles after a quiet one
     * up to the next core event, so a scheme keeps no timer of its
     * own that no core event covers. What tick() waits for must be
     * the visibility point (it only moves on a working cycle) or a
     * cycle with a core event: NDA-Strict's readyAt is its
     * instruction's completion cycle or the one after, and the tick
     * after a working one is never skipped. tick() acts only through
     * Core::scheduleWakeup() / Core::retryLoad(), which mark the cycle
     * as working, and selectVeto() must answer from the instruction
     * and core state alone.
     */
    virtual void tick() {}

    /**
     * Squash walk-back: called per squashed instruction, youngest
     * first, so rename-stage taint state can be unwound exactly
     * (the functional equivalent of checkpoint restore +
     * stale-invalidate, Sec. 4.2).
     */
    virtual void onSquashWalk(const DynInst &) {}

    /** Called once per squash after the walk, with the new tail seq. */
    virtual void onSquash(SeqNum /* youngest_surviving */) {}

    /**
     * Speculatively wake dependents of a load assuming an L1 hit and
     * replay them on a miss (Kim & Lipasti style). The baseline and
     * STT designs keep this; NDA removes it (Sec. 5.1).
     */
    virtual bool allowsSpeculativeScheduling() const { return true; }

    /**
     * Security contract self-description, consumed by the gadget
     * battery (src/harness/verify.hh), the conformance fuzzer and the
     * in-core contract shadow engine: the descriptor names the
     * declared policy and the dataflow obligations the harness holds
     * the scheme to. A scheme that obliges transmitter safety (no
     * transmitter executes with speculatively-tainted operands) must
     * show zero leaks and zero differential divergence across every
     * gadget; the verifier fails the run otherwise. The unsafe
     * baseline declares SecurityContract::none(), so the verifier
     * instead *requires* it to leak (proof the gadgets are armed).
     */
    virtual SecurityContract
    contract() const
    {
        return SecurityContract::none();
    }

  protected:
    Core *coreRef = nullptr;
};

} // namespace sb

#endif // SB_CORE_SCHEME_IFACE_HH
