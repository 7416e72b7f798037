/**
 * @file
 * Gadget attack runner: executes one Spectre gadget program
 * (src/trace/gadgets.hh) against a configured core and recovers the
 * secret through both receivers — the serialised commit-time timing
 * probe and the cache-residency oracle — while recording the core's
 * committed-load observation trace for the differential leakage
 * verifier (verify.hh).
 *
 * The run is two-phase: the victim rounds execute until the first
 * barrier load commits (so the residency oracle sees the post-attack
 * cache before the probe pollutes it), then the timing probe runs to
 * completion and the per-slot commit gaps are scored.
 */

#ifndef SB_HARNESS_ATTACK_HH
#define SB_HARNESS_ATTACK_HH

#include <cstdint>
#include <memory>

#include "common/config.hh"
#include "core/contract_shadow.hh"
#include "core/scheme_iface.hh"
#include "isa/transform.hh"
#include "trace/gadgets.hh"

namespace sb
{

/** Outcome of one attack attempt. */
struct AttackResult
{
    /** Byte recovered via the timing probe, -1 if no clear signal. */
    int timingByte = -1;
    /** Byte recovered via the cache-residency oracle, -1 if none. */
    int oracleByte = -1;
    /** True if either receiver recovered the actual secret. */
    bool leaked = false;
    /** Contract shadow engine counts (contract_shadow.hh): transmit
     *  = a transmitter executed on an STT-tainted operand; consume =
     *  an instruction consumed a still-speculative load's value;
     *  sandboxing = a transmitter executed on a transiently-acquired
     *  secret; constant-time = a secret reached a transmitter at all. */
    std::uint64_t transmitViolations = 0;
    std::uint64_t consumeViolations = 0;
    std::uint64_t sandboxViolations = 0;
    std::uint64_t ctViolations = 0;
    /** Transmits of a secret owned by a different tenant than the
     *  transmitting instruction's (protection-domain model). */
    std::uint64_t crossTenantViolations = 0;
    /** Pinpointed first violation of each contract (invalid seq if
     *  the contract was never violated). */
    ContractViolation firstSandboxViolation;
    ContractViolation firstCtViolation;
    ContractViolation firstCrossTenantViolation;
    /** Context switches the core performed during the run. */
    std::uint64_t contextSwitches = 0;
    /** Median / minimum probe gaps (diagnostics). */
    double medianGap = 0.0;
    double minGap = 0.0;
    /** FNV-1a digest + length of the committed-load observation trace
     *  (Core::observationTrace()); the differential checker compares
     *  these across secret-flipped paired runs. */
    std::uint64_t traceHash = 0;
    std::uint64_t traceLength = 0;
    /** Total simulated cycles (also part of the observable surface). */
    std::uint64_t cycles = 0;
};

/** Build and run gadget @p kind against the scheme in @p scheme_config. */
AttackResult runGadget(GadgetKind kind, const CoreConfig &core_config,
                       const SchemeConfig &scheme_config,
                       std::uint8_t secret_byte,
                       std::uint64_t seed = 42);

/**
 * Run a pre-built gadget with an explicit scheme instance — the
 * injection point the differential-checker tests use to verify that
 * an intentionally leaky scheme is caught.
 *
 * When @p mitigated is non-null the core executes its (software-
 * hardened) program instead of gadget.program, and the commit-time
 * receiver maps committed PCs through TransformedProgram::origin so
 * the probe-slot arithmetic and barrier detection stay exact: thunk
 * PCs live past firstProbePc and would otherwise misread as probes.
 */
AttackResult runGadgetAttack(const GadgetProgram &gadget,
                             const CoreConfig &core_config,
                             const SchemeConfig &scheme_config,
                             std::unique_ptr<SecureScheme> scheme,
                             std::uint8_t secret_byte,
                             const TransformedProgram *mitigated =
                                 nullptr);

/** The original Spectre-v1 entry point (kept for the seed tests). */
AttackResult runSpectreV1(const CoreConfig &core_config,
                          const SchemeConfig &scheme_config,
                          std::uint8_t secret_byte,
                          std::uint64_t seed = 42);

} // namespace sb

#endif // SB_HARNESS_ATTACK_HH
