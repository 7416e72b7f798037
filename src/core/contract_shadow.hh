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
 * Storage is flat and sized at construction, so the hooks never
 * allocate. Captured load and store-data labels sit in arrays indexed
 * by the instruction's LSU ticket (DynInst::lqTicket / sqTicket) and
 * tagged with its seq: a live load or store keeps its slot, because
 * its ticket is not reissued until it leaves its queue, and a
 * squashed instruction's stale slot can never match the younger one
 * that reuses the ticket, so a squash needs no purge. Secret memory
 * words live in a flat WordTable sized from the program's secret
 * regions; a store of clean data marks a word "not secret" rather
 * than erasing it, so the table needs no tombstones, and only a store
 * that spreads a secret to a new word can grow it.
 *
 * The engine is a pure observer: every hook is gated on on() and no
 * result feeds timing, so goldens are bit-identical with it on or
 * off. A core switches its engine on exactly when its invariant
 * checkers start on (InvariantChecker::defaultActive(): on in debug
 * builds, off in release, with SB_INVARIANTS=0/1 forcing either way);
 * a standalone engine starts off.
 */

#ifndef SB_CORE_CONTRACT_SHADOW_HH
#define SB_CORE_CONTRACT_SHADOW_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/word_table.hh"
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
    /** The label a value carries through registers, load and store
     *  captures, and (secret and owner only) memory words. */
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

    /** @param lq_entries, sq_entries the LSU queue capacities, which
     *  bound the live tickets the captured labels are indexed by. */
    ContractShadow(unsigned num_phys_regs, unsigned lq_entries,
                   unsigned sq_entries);

    bool on() const { return active; }
    void setActive(bool enable) { active = enable; }

    /** Seed memory labels from a program secret region; @p owner is
     *  the protection domain the secret belongs to. */
    void markSecretRegion(Addr base, std::uint64_t bytes,
                          TenantId owner = 0);

    // --- Core hooks (all no-ops unless on()) --------------------------

    /** A physical register was newly allocated: clear its label. */
    void onAllocate(PhysReg reg);

    /** A load's value was read from memory, or forwarded from the
     *  store with seq @p forward_source at SQ ticket @p forward_ticket
     *  (Core::finishLoad): capture the value's label at the load's LQ
     *  ticket until the result drains to the register file. */
    void onLoadValue(const DynInst &load, SeqNum forward_source,
                     std::uint32_t forward_ticket);

    /** The load's result reached the register file: apply the label
     *  captured by onLoadValue, rooted at the load itself if it is
     *  still speculative. */
    void onLoadData(const DynInst &load, bool still_speculative);

    /** A store's data half executed: capture the data label at the
     *  store's SQ ticket. */
    void onStoreData(const DynInst &store);

    /** A store committed: move its captured data label into the
     *  memory labels (clean data scrubs a previously secret word).
     *  The captured label is dropped here, so a younger load that
     *  forwards from the store before it drains reads a clean label
     *  (a known under-approximation, kept for result stability). */
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

    /** A physical register's label. Core::performContextSwitch banks
     *  a tenant's architectural registers out and back in with these,
     *  labels included. */
    Label regLabel(PhysReg reg) const { return regs[reg]; }
    void setRegLabel(PhysReg reg, Label label) { regs[reg] = label; }

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
    /** A label captured for one LSU ticket, tagged with the seq of the
     *  load or store that captured it (invalidSeqNum: none). */
    struct Captured
    {
        SeqNum seq = invalidSeqNum;
        Label label;
    };

    static Addr alignWord(Addr addr) { return addr & ~Addr(7); }

    /** The slot of LSU ticket @p ticket (power-of-two arrays). */
    static Captured &
    slotOf(std::vector<Captured> &slots, std::uint32_t ticket)
    {
        return slots[ticket & (slots.size() - 1)];
    }

    /** The captured label of @p seq at @p ticket, if that slot still
     *  holds it (clean otherwise); the slot is released. */
    static Label take(std::vector<Captured> &slots, std::uint32_t ticket,
                      SeqNum seq);

    /** The secret-word entry of the word containing @p addr, or
     *  nullptr if that word holds public data. */
    const WordTable::Slot *secretWord(Addr addr) const;

    /** Label the word containing @p addr secret (owned by @p owner)
     *  or clean. */
    void setMemSecret(Addr addr, bool secret, TenantId owner);

    bool active = false;
    std::vector<Label> regs;

    /** The 8-aligned words that ever held secret data: owner + 1
     *  while the word is secret, 0 once clean data overwrote it. */
    WordTable secretWords;

    /** Labels captured at finishLoad, pending writeback (by LQ
     *  ticket; power-of-two size >= the LQ capacity). */
    std::vector<Captured> loadLabels;

    /** Store data labels captured at executeStoreData (by SQ
     *  ticket; power-of-two size >= the SQ capacity). */
    std::vector<Captured> storeLabels;

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
