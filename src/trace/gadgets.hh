/**
 * @file
 * Spectre gadget battery: transient-leak programs for the security
 * verification subsystem (the stand-in for the BOOM-attacks suite the
 * paper verifies its schemes against).
 *
 * Every gadget shares one transmitter/receiver toolkit:
 *
 *  - *Transmitter*: a transient gadget reads a secret byte and encodes
 *    it into the set-state of a 256-slot probe array (one 512-byte
 *    slot per byte value), while the squash trigger (branch outcome,
 *    indirect target, or store address) is delayed behind a cold
 *    pointer chase, opening a ~300-cycle speculation window.
 *  - *Receiver*: after a serialising barrier, a fully serialised
 *    timing probe walks slots 1..255; the secret slot's load commits a
 *    full memory latency earlier than the misses around it. A
 *    cache-residency oracle cross-checks the timing channel.
 *
 * What differs per gadget is only the transient *entry* into the
 * transmitter:
 *
 *  - SpectreV1: classic bounds-check bypass (trained conditional
 *    branch, out-of-range index).
 *  - SpectreV1Mask: the same gadget behind an index-masking "false
 *    mitigation" — the mask is wide enough to pass the malicious
 *    index, so the gadget must still be caught leaking.
 *  - SpectreV2Indirect: indirect-branch target misprediction — the
 *    BTB is trained to the gadget body, and on the attack round the
 *    architectural target skips it.
 *  - SpectreV4StoreBypass: speculative store bypass — a sanitising
 *    store's address resolves late, so a younger load reads the stale
 *    malicious index and feeds it to the transmitter before the
 *    memory-order violation is detected.
 *  - SpectreV2CrossDomain: cross-tenant indirect-target injection —
 *    attacker tenant A trains a shared dispatcher's BTB entry at the
 *    gadget, context-switches to victim tenant B whose architectural
 *    target skips it, and (if predictor state survives the switch)
 *    B's own pointer to its own secret is transiently dereferenced
 *    and transmitted; A reads the probe after switching back.
 *  - SpectreV1Swapgs: cross-tenant conditional-path injection after
 *    CVE-2019-1125 — a shared entry routine conditionally takes a
 *    privileged path; tenant A trains the branch taken, tenant B's
 *    slow-resolving flag architecturally falls through, but the
 *    trained predictor transiently steers B into the privileged path
 *    with B's secret-pointing registers.
 *
 * Architecturally, no gadget ever touches a secret-dependent probe
 * slot: committed execution only ever warms slot 0 (excluded from
 * scoring), so any recovered byte is transient leakage by
 * construction.
 */

#ifndef SB_TRACE_GADGETS_HH
#define SB_TRACE_GADGETS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace sb
{

/** The battery's gadget variants. */
enum class GadgetKind
{
    SpectreV1,           ///< Classic bounds-check bypass.
    SpectreV1Mask,       ///< v1 behind an ineffective index mask.
    SpectreV2Indirect,   ///< Indirect-branch target misprediction.
    SpectreV4StoreBypass,///< Speculative store bypass (SSB).
    SpectreV2CrossDomain,///< Cross-tenant BTB injection over a switch.
    SpectreV1Swapgs,     ///< Cross-tenant branch-path injection
                         ///< (CVE-2019-1125 style).
};

/** Stable CLI / JSON handle, e.g. "spectre-v1". */
const char *gadgetName(GadgetKind kind);

/** All gadgets, in battery order. */
std::vector<GadgetKind> allGadgets();

/** Built gadget program plus the static PCs the harness needs. */
struct GadgetProgram
{
    Program program;
    /** First load of the pre-probe serialisation barrier. */
    std::uint32_t barrierPc = 0;
    /** First probe load (slot v=1); one probe group is 4 ops. */
    std::uint32_t firstProbePc = 0;
    /** The transmit load (array2[secret * 512]) inside the shared
     *  transmitter — where the contract shadow engine pinpoints an
     *  out-of-contract transmit. */
    std::uint32_t transmitPc = 0;

    /** Protection domain that owns the secret region. */
    TenantId secretOwner = 0;
    /** Protection domain that reads the probe (the attacker). A
     *  cross-domain gadget has observer != secretOwner: a recovered
     *  byte is then a cross-tenant leak, not just a transient one. */
    TenantId observer = 0;

    bool crossDomain() const { return observer != secretOwner; }
};

/** Shared memory layout the receiver and harness agree on. */
namespace gadget_layout
{
constexpr Addr array2Base = 0x400000;  ///< Probe array base.
constexpr unsigned probeStride = 512;  ///< One slot per byte value.
} // namespace gadget_layout

/**
 * Build the gadget program for @p kind leaking @p secret_byte
 * (1..255; slot 0 is warmed architecturally and excluded from
 * scoring). @p seed drives the pointer-chase shuffle only, so equal
 * seeds give byte-identical programs up to the secret.
 */
GadgetProgram buildGadgetProgram(GadgetKind kind,
                                 std::uint8_t secret_byte,
                                 std::uint64_t seed);

} // namespace sb

#endif // SB_TRACE_GADGETS_HH
