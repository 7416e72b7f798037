/**
 * @file
 * In-core contract shadow engine.
 *
 * A shadow copy of architectural state that tracks the
 * contract-permitted observation set cycle by cycle, after Tan et
 * al., "RTL Verification for Secure Speculation Using Contract Shadow
 * Logic". Program data carries secret labels (Program::secretRegions
 * seeds them; the register file and memory image propagate them
 * taint-style alongside values), and at every transmitter site the
 * core already instruments for LoadObservation the engine checks
 * whether the observed operand is inside the active contract's
 * permitted set. On violation it records (cycle, seqNum, pc) — the
 * pinpointed repro behind the differential verifier's verdict.
 *
 * Two contracts are modelled simultaneously:
 *
 *  - **sandboxing** — the leak-freedom notion the differential
 *    verifier polices: a transmitter may not execute with an operand
 *    carrying a secret acquired through a still-speculative load
 *    (out-of-sandbox transient access).
 *  - **constant-time** — ProSpeCT (Daniel et al.): secret-labelled
 *    data may never reach a transmitter operand at all, even
 *    architecturally.
 *
 * Every label also carries the two dataflow roots the scheme
 * obligations are stated in (paper Sec. 2), secret or not:
 *
 *  - **STT (transmitter)** — no transmitter executes with an operand
 *    that transitively derives from a still-speculative load.
 *  - **NDA (consume)** — no instruction at all consumes a value
 *    produced directly by a still-speculative load.
 *
 * The unprotected baseline violates both; STT designs must have zero
 * transmit violations, NDA designs zero consume violations (which
 * implies zero transmit violations).
 *
 * The engine is a pure observer: every hook is gated on on() and no
 * result feeds timing, so goldens are bit-identical with it on or
 * off. Like the invariant checkers it defaults on in debug builds
 * and off in release, with SB_INVARIANTS=0/1 forcing either way.
 */

#ifndef SB_CORE_CONTRACT_SHADOW_HH
#define SB_CORE_CONTRACT_SHADOW_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/dyn_inst.hh"

namespace sb
{

/** One pinpointed contract violation: the exact retire-stream
 *  coordinates of the offending transmitter execution. */
struct ContractViolation
{
    Cycle cycle = 0;
    SeqNum seq = invalidSeqNum;
    std::uint32_t pc = 0;

    bool valid() const { return seq != invalidSeqNum; }
};

/** Shadow label/permitted-set tracker and contract checker. */
class ContractShadow
{
  public:
    explicit ContractShadow(unsigned num_phys_regs);

    /** Mirror of InvariantChecker::defaultActive(): SB_INVARIANTS=1
     *  forces the shadow on even in release builds. */
    static bool defaultActive();

    bool on() const { return active; }
    void setActive(bool enable) { active = enable; }

    /** Seed memory labels from a program secret region; @p owner is
     *  the protection domain the secret belongs to. */
    void markSecretRegion(Addr base, std::uint64_t bytes,
                          TenantId owner = 0);

    /** True if the word containing @p addr is secret-labelled. */
    bool memSecret(Addr addr) const;

    /** Owning tenant of a secret word (invalidTenant if not secret). */
    TenantId memOwner(Addr addr) const;

    // --- Core hooks (all no-ops unless on()) --------------------------

    /** A physical register was newly allocated: clear its label. */
    void onAllocate(PhysReg reg);

    /** A load's value was read from memory / forwarded from a store
     *  (Core::finishLoad): capture the value's label, keyed by seq,
     *  until the result drains to the register file. */
    void onLoadValue(const DynInst &load, SeqNum forward_source);

    /** The load's result reached the register file: apply the label
     *  captured by onLoadValue, rooted at the load itself if it is
     *  still speculative. */
    void onLoadData(const DynInst &load, bool still_speculative);

    /** A store's data half executed: capture the data label. */
    void onStoreData(const DynInst &store);

    /** A store committed: move its captured data label into the
     *  memory labels (clean data scrubs a previously secret word). */
    void onStoreCommit(const DynInst &store);

    /**
     * An instruction consumed operands: join the source labels into
     * the destination's and check the consume obligation. @p now is
     * the current cycle and @p vp the visibility point (a root older
     * than it is architecturally sanctioned). @p transmits marks
     * observable uses (load/store address, branch), where both
     * contracts and the transmitter obligation are checked.
     */
    void onConsume(const DynInst &inst, Cycle now, SeqNum vp,
                   bool use_src1, bool use_src2, bool transmits);

    /** Squash: purge captured labels of killed loads/stores. */
    void onSquash(SeqNum youngest_surviving);

    // --- Architectural (fast-forward) path ----------------------------
    // The functional interpreter bypasses the pipeline, so the label
    // flow collapses to architectural reads/writes; only the
    // constant-time contract can fire there (nothing is speculative).

    struct Label
    {
        bool secret = false;
        /** Youngest still-speculative load the secret flowed through;
         *  invalidSeqNum = architecturally acquired. */
        SeqNum root = invalidSeqNum;
        /** Protection domain the secret belongs to (meaningful only
         *  while secret is set). */
        TenantId owner = 0;
        /** STT taint root: the youngest still-speculative load the
         *  value derives from, secret or not. */
        SeqNum taint = invalidSeqNum;
        /** NDA: the still-speculative load that produced the value
         *  directly, if any. */
        SeqNum producerLoad = invalidSeqNum;
    };

    Label regLabel(PhysReg reg) const { return regs[reg]; }
    void setRegLabel(PhysReg reg, Label label) { regs[reg] = label; }
    void setMemSecret(Addr addr, bool secret, TenantId owner = 0);

    /** A transmitter executed architecturally (fast-forward) with
     *  @p secret_operand: constant-time check only. */
    void onArchTransmit(std::uint32_t pc, bool secret_operand);

    // --- Verdicts ------------------------------------------------------

    std::uint64_t sandboxViolations() const { return sandboxViol; }
    std::uint64_t ctViolations() const { return ctViol; }
    /** Transmitters that executed on an STT-tainted operand. */
    std::uint64_t transmitViolations() const { return transmitViol; }
    /** Instructions that consumed a still-speculative load's value. */
    std::uint64_t consumeViolations() const { return consumeViol; }
    /** Transmitters that executed with a secret operand owned by a
     *  *different* tenant than the executing instruction's — the
     *  protection-domain escalation of a constant-time violation. */
    std::uint64_t crossTenantViolations() const { return crossTenantViol; }
    const ContractViolation &firstSandboxViolation() const
    {
        return firstSandbox;
    }
    const ContractViolation &firstCtViolation() const { return firstCt; }
    const ContractViolation &firstCrossTenantViolation() const
    {
        return firstCrossTenant;
    }

  private:
    static Addr alignWord(Addr addr) { return addr & ~Addr(7); }

    bool active = false;
    std::vector<Label> regs;

    /** 8-aligned word addresses currently holding secret data, mapped
     *  to the protection domain that owns the secret. */
    std::unordered_map<Addr, TenantId> secretWords;

    /** Labels captured at finishLoad, pending writeback (by seq). */
    std::unordered_map<SeqNum, Label> pendingLoads;

    /** Store data labels captured at executeStoreData (by seq). */
    std::unordered_map<SeqNum, Label> storeData;

    std::uint64_t sandboxViol = 0;
    std::uint64_t ctViol = 0;
    std::uint64_t crossTenantViol = 0;
    std::uint64_t transmitViol = 0;
    std::uint64_t consumeViol = 0;
    ContractViolation firstSandbox;
    ContractViolation firstCt;
    ContractViolation firstCrossTenant;
};

} // namespace sb

#endif // SB_CORE_CONTRACT_SHADOW_HH
