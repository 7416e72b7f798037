/**
 * @file
 * Differential leakage verifier.
 *
 * The battery runs every (gadget x scheme x config) cell as a *pair*
 * of executions that differ only in the secret byte, and checks two
 * independent things:
 *
 *  - *Recovery*: does either receiver (timing probe, residency
 *    oracle) recover the run's own secret? The unsafe baseline must
 *    leak on every gadget — proof the gadgets are armed — while any
 *    scheme claiming the STT obligation must never leak.
 *  - *Differential equivalence* (the Contract-Shadow-Logic-style
 *    check): the committed-load observation traces of the paired runs
 *    must be bit-identical under a secure scheme. Architecturally the
 *    two programs are identical up to the secret byte sitting in
 *    memory, so any trace divergence is secret-dependent
 *    microarchitectural state becoming visible — leakage, even if
 *    neither receiver decodes the byte.
 *
 * Battery cells are ordinary RunSpecs with a "gadget:" workload, so
 * they flow through the ExperimentEngine's in-batch dedup and
 * content-addressed result cache like every performance cell, and the
 * battery is registered as the "security" scenario (sbsim). The
 * `sbsim verify` command folds the outcomes into a leak matrix
 * (SBSIM_verify.json) and fails the process on any contract breach.
 */

#ifndef SB_HARNESS_VERIFY_HH
#define SB_HARNESS_VERIFY_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/contract_shadow.hh"
#include "core/security_contract.hh"
#include "harness/experiment.hh"
#include "trace/gadgets.hh"

namespace sb
{

class ScenarioRegistry;

/** The paired secrets every battery cell is run with. */
constexpr std::uint8_t verifySecretA = 0xA7;
constexpr std::uint8_t verifySecretB = 0x3C;
/** Pointer-chase shuffle seed for battery programs. */
constexpr std::uint64_t verifyGadgetSeed = 42;

/**
 * Workload-name encoding of one gadget run, e.g.
 * "gadget:spectre-v1:secret=167:seed=42". RunSpec::specKey() hashes
 * the workload string, so the secret and seed are part of the cell's
 * cache address.
 */
std::string gadgetWorkloadName(GadgetKind kind, std::uint8_t secret,
                               std::uint64_t seed);

/** Is @p workload a gadget cell (vs a SPEC stand-in benchmark)? */
bool isGadgetWorkload(const std::string &workload);

/** Decode a gadgetWorkloadName(); false, with the outputs untouched,
 *  on any other spelling (common/workload_name.hh). */
bool parseGadgetWorkload(const std::string &workload, GadgetKind &kind,
                         std::uint8_t &secret, std::uint64_t &seed);

/**
 * The RunSpec of one gadget run: @p kind leaking @p secret on @p core
 * under @p scheme. A gadget run is a complete program, not a windowed
 * measurement, so the window fields stay zero and runs of equal
 * gadgets share a cache address.
 */
RunSpec gadgetSpec(GadgetKind kind, const CoreConfig &core,
                   const SchemeConfig &scheme, std::uint8_t secret,
                   std::uint64_t seed = verifyGadgetSeed);

/**
 * Read-side view of a gadget cell's RunOutcome. A gadget cell runs its
 * program whole (RunOutcome::cycles is the whole run; instructions
 * stays 0) and writes the receivers' verdicts, the contract shadow's
 * and the committed-load observation-trace digest under "gadget_*"
 * stats keys.
 */
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
    /** The core flushed predictors on every context switch. */
    bool flushOnSwitch = false;
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

/** Decode a gadget cell's @p outcome. */
AttackResult attackResult(const RunOutcome &outcome);

/** Does @p kind leak across a protection-domain boundary (observer
 *  tenant != secret-owner tenant)? Static property of the kind. */
bool gadgetIsCrossDomain(GadgetKind kind);

/** One folded (gadget x scheme x core) battery cell. */
struct VerifyCell
{
    std::string gadget;
    std::string core;
    Scheme scheme = Scheme::Baseline;
    /** The scheme's declared contract (SecureScheme::contract()).
     *  The dataflow obligations (transmitter/consume) are checked
     *  against the contract shadow's STT/NDA counts; the observational
     *  obligation (leak freedom + zero sandboxing shadow violations)
     *  binds every scheme with a non-None policy — Delay-on-Miss
     *  declares exactly the sandboxing policy and nothing stronger. */
    SecurityContract contract;
    /** The policy this cell is judged under: the declared policy, or
     *  the `sbsim verify --contract` override (which never touches
     *  None cells — the unsafe baseline keeps its armed-proof role). */
    ContractPolicy judgedPolicy = ContractPolicy::None;
    /** Either paired run recovered its own secret. */
    bool leaked = false;
    /** Both paired runs recovered their own secrets — the gadget is
     *  demonstrably armed (what the unsafe baseline must show). */
    bool armed = false;
    /** Paired observation traces differ (timing divergence). */
    bool diverged = false;
    /** Worst-case shadow transmit / consume counts over the pair. */
    std::uint64_t transmitViolations = 0;
    std::uint64_t consumeViolations = 0;
    /** Per-run diagnostics. */
    int timingByteA = -1;
    int timingByteB = -1;
    std::uint64_t cyclesA = 0;
    std::uint64_t cyclesB = 0;
    /** Worst-case contract shadow counts over the pair. */
    std::uint64_t sandboxViolations = 0;
    std::uint64_t ctViolations = 0;
    /** Pinpointed first violation of each contract (from run A when
     *  both runs violated; invalid seq when neither did). */
    ContractViolation firstSandboxViolation;
    ContractViolation firstCtViolation;
    /** Worst-case cross-tenant shadow count over the pair (transmits
     *  of a secret owned by a different protection domain than the
     *  transmitting instruction). */
    std::uint64_t crossTenantViolations = 0;
    ContractViolation firstCrossTenantViolation;
    /** Context switches per run (identical across the pair). */
    std::uint64_t contextSwitches = 0;
    /** The gadget's observer and secret owner are different tenants:
     *  a recovered byte is a cross-tenant leak. */
    bool crossDomain = false;
    /** Unprotected cell whose cross-domain channel the *core policy*
     *  (flush-predictors-on-switch) is expected to close: the verdict
     *  flips from must-demonstrably-leak to must-not-leak. */
    bool expectClosed = false;
    /** Supervision cut a paired run short (outcomeIsCacheable() is
     *  false): no leak or divergence verdict, and never a pass. */
    bool unfinished = false;

    /**
     * Contract check under judgedPolicy: a scheme with a declared
     * contract must block recovery, show no differential divergence,
     * keep whichever dataflow obligations it declares, and show zero
     * sandboxing shadow violations (zero constant-time violations
     * when judged under the ConstantTime override); a scheme
     * declaring nothing (the unsafe baseline) must demonstrably leak
     * — and the shadow engine must have pinpointed the secret
     * reaching a transmitter, so every leak verdict carries its
     * (cycle, seq, pc) repro.
     */
    bool pass() const;
};

/** The folded battery. */
struct VerifyMatrix
{
    std::vector<VerifyCell> cells;

    bool
    ok() const
    {
        for (const VerifyCell &cell : cells)
            if (!cell.pass())
                return false;
        return !cells.empty();
    }
};

/**
 * The battery's RunSpecs: for each scheme and gadget, the secret-A
 * and secret-B runs adjacent (foldVerifyOutcomes() relies on the
 * pairing order).
 */
std::vector<RunSpec>
verifyBatterySpecs(const CoreConfig &core,
                   const std::vector<SchemeConfig> &schemes);

/**
 * Fold one secret pair (@p a, @p b: the same gadget, scheme and seed
 * under two secrets) into a cell judged against @p contract — the
 * scheme's declared one in the battery, an injected scheme's in tests.
 * @p contract_override, when set, replaces the judged policy unless
 * @p contract declares none (the unsafe baseline keeps its armed-proof
 * role) — the `sbsim verify --contract` hook.
 */
VerifyCell
foldVerifyPair(const RunOutcome &a, const RunOutcome &b,
               const SecurityContract &contract,
               std::optional<ContractPolicy> contract_override =
                   std::nullopt);

/** Fold engine outcomes (in verifyBatterySpecs() order) into cells,
 *  each judged against its scheme's declared contract. */
VerifyMatrix
foldVerifyOutcomes(const std::vector<RunOutcome> &outcomes,
                   std::optional<ContractPolicy> contract_override =
                       std::nullopt);

/** Machine-readable leak matrix (the SBSIM_verify.json document). */
Json toJson(const VerifyMatrix &matrix);

/** Human-readable leak matrix. */
void printVerifyMatrix(const VerifyMatrix &matrix, std::FILE *out);

/** Register the "security" scenario (the whole battery) into @p r. */
void registerSecurityScenarios(ScenarioRegistry &registry);

// --- Software-mitigation co-study (isa/transform.hh) --------------------

/**
 * Closure map: is @p m designed to close @p gadget on an unprotected
 * core? SLH and conservative fencing neutralize the bounds-check
 * bypasses (v1, masked v1, and the cross-tenant swapgs variant — all
 * enter through a conditional branch), so v2 (BTB, same- or
 * cross-domain) and v4 (store bypass) stay open under them.
 * Retpoline starves the BTB and closes exactly the two v2s. Nothing
 * in the software roster closes v4.
 */
bool mitigationCloses(Mitigation m, GadgetKind gadget);

/** One (gadget x scheme) row of the mitigation co-study. */
struct MitigationCell
{
    std::string gadget;
    Scheme scheme = Scheme::Baseline;
    /** The hardware scheme's declared policy (None = unprotected). */
    ContractPolicy policy = ContractPolicy::None;
    /** Closure expected: unprotected core x a gadget the mitigation
     *  targets (mitigationCloses()). */
    bool target = false;
    /** Mitigated cell stopped leaking AND the shadow engine's
     *  first-violation record is gone. */
    bool closed = false;
    /** Mitigated cell still demonstrably leaks on both paired runs. */
    bool armed = false;
    /** Declared schemes: the mitigated cell still passes its
     *  hardware contract (redundancy confirmed, not broken). */
    bool schemePass = false;
    /** Secret-A cycles, unmitigated vs mitigated, and their ratio. */
    std::uint64_t cyclesBase = 0;
    std::uint64_t cyclesMitigated = 0;
    double overhead = 0.0;

    /**
     * Unprotected target cells must close; unprotected non-target
     * cells must stay armed (the pass must not quietly perturb a
     * gadget it does not claim); declared schemes must still pass.
     */
    bool pass() const;
};

/** The folded co-study for one mitigation. */
struct MitigationReport
{
    Mitigation mitigation = Mitigation::None;
    std::vector<MitigationCell> cells;

    bool
    ok() const
    {
        for (const MitigationCell &cell : cells)
            if (!cell.pass())
                return false;
        return !cells.empty();
    }
};

/**
 * Specs for `sbsim verify --mitigation`: the unmitigated battery
 * followed by the same battery under @p m (foldMitigationOutcomes()
 * relies on the halves lining up).
 */
std::vector<RunSpec>
mitigationBatterySpecs(const CoreConfig &core,
                       const std::vector<SchemeConfig> &schemes,
                       Mitigation m);

/** Fold engine outcomes (in mitigationBatterySpecs() order). */
MitigationReport
foldMitigationOutcomes(Mitigation m,
                       const std::vector<RunOutcome> &outcomes);

/** Machine-readable co-study (the SBSIM_verify_<m>.json document). */
Json toJson(const MitigationReport &report);

/** Human-readable closure + overhead matrix. */
void printMitigationReport(const MitigationReport &report,
                           std::FILE *out);

/**
 * Register the "mitigation_grid" scenario: (mitigations x schemes)
 * over the gadget battery plus a kernel-suite slice, reporting the
 * closure matrix and per-scheme software-mitigation overheads.
 */
void registerMitigationScenarios(ScenarioRegistry &registry);

} // namespace sb

#endif // SB_HARNESS_VERIFY_HH
