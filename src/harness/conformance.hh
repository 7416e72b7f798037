/**
 * @file
 * Differential conformance harness.
 *
 * ShadowBinding's schemes change *when* loads execute, never *what*
 * commits. This harness makes that claim testable at scale: seeded
 * random programs (src/isa/generator.hh) run under every scheme in
 * the roster, and an architectural-equivalence oracle demands, per
 * program, bit-identical results against the Baseline:
 *
 *  - identical committed register file (all architectural registers),
 *  - identical committed functional memory (MemoryImage fingerprint),
 *  - identical committed-instruction stream (PC-sequence digest) and
 *    committed-instruction count,
 *  - liveness: the run halts — no deadlock, no watchdog trip,
 *  - clean in-core invariant checkers (src/core/invariants.hh) and the
 *    STT/NDA obligations each scheme claims, counted by the contract
 *    shadow (src/core/contract_shadow.hh); both are force-enabled for
 *    every fuzz cell.
 *
 * Each (program, scheme) cell is an ordinary RunSpec with a
 * "fuzz:<profile>:seed=S:iters=N" workload, so fuzzing rides the
 * ExperimentEngine's dedup, worker pool, and content-addressed result
 * cache like every performance cell. Failures fold into a report
 * whose entries carry a replayable repro (`sbsim fuzz --programs 1
 * --seed S --profile P`).
 */

#ifndef SB_HARNESS_CONFORMANCE_HH
#define SB_HARNESS_CONFORMANCE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/experiment.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"

namespace sb
{

class ScenarioRegistry;

/**
 * Workload-name encoding of one fuzz cell, e.g.
 * "fuzz:mixed:seed=12345:iters=32". The seed, profile, and dynamic
 * length are part of the cell's cache address via specKey().
 */
std::string fuzzWorkloadName(OpMixProfile profile, std::uint64_t seed,
                             unsigned iterations);

/** Is @p workload a fuzz cell? */
bool isFuzzWorkload(const std::string &workload);

/**
 * Decode a fuzzWorkloadName(). Returns false on anything malformed,
 * leaving the outputs untouched: a name is accepted only in the form
 * fuzzWorkloadName() writes it.
 */
bool parseFuzzWorkload(const std::string &workload, OpMixProfile &profile,
                       std::uint64_t &seed, unsigned &iterations);

/**
 * Read-side view of a fuzz cell's RunOutcome: the architectural
 * fingerprint plus health bits the oracle compares. A fuzz cell runs
 * one generated program to completion with the invariant checkers
 * force-enabled and the soft watchdog armed, so a deadlock returns
 * with "fuzz_watchdog" set instead of aborting; its stats keys are
 * "fuzz_*". Under a mitigation the fingerprint is taken *modulo the
 * transform's glue*: inserted glue drops out of the commit digest and
 * RunOutcome::instructions counts only commits that stand for an
 * original instruction, so a correct transform produces a cell
 * architecturallyEqual() to the untransformed Baseline run.
 */
struct ConformanceCell
{
    std::uint64_t regHash = 0;    ///< All architectural registers.
    std::uint64_t memHash = 0;    ///< Committed MemoryImage fingerprint.
    std::uint64_t commitHash = 0; ///< Committed PC-stream digest.
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    bool halted = false;
    bool watchdogTripped = false;
    std::uint64_t invariantViolations = 0;
    /** Contract shadow verdicts (src/core/contract_shadow.hh): the
     *  STT transmit and NDA consume obligation counts, then the
     *  contracts over the generated program's secret-labelled buffer. */
    std::uint64_t transmitViolations = 0;
    std::uint64_t consumeViolations = 0;
    std::uint64_t sandboxViolations = 0;
    std::uint64_t ctViolations = 0;
    std::uint64_t firstSandboxCycle = 0;
    std::uint64_t firstSandboxPc = 0;

    /** The oracle's equality: architectural state only (timing and
     *  health bits are checked separately). */
    bool
    architecturallyEqual(const ConformanceCell &o) const
    {
        return regHash == o.regHash && memHash == o.memHash
               && commitHash == o.commitHash
               && instructions == o.instructions;
    }
};

/** Decode a fuzz cell's @p outcome. */
ConformanceCell conformanceCell(const RunOutcome &outcome);

/** Parameters of one fuzz campaign. */
struct FuzzParams
{
    std::uint64_t baseSeed = 0xC0FFEE;
    unsigned programs = 50;
    /** Profiles rotated across programs; empty = all profiles. */
    std::vector<OpMixProfile> profiles;
    CoreConfig core = CoreConfig::mega();
    unsigned outerIterations = 32;
    /** Per-cell cycle budget (soft watchdog trips well before). */
    std::uint64_t maxCycles = 4'000'000;
    /** Software mitigation applied to every non-oracle cell. When set
     *  the campaign grows an extra *unmitigated* Baseline cell per
     *  program (the oracle) and every scheme — including Baseline —
     *  runs the transformed program, judged for architectural
     *  equivalence against that oracle modulo inserted glue. */
    Mitigation mitigation = Mitigation::None;

    /** Program seed of the @p index -th program in the campaign. */
    std::uint64_t programSeed(unsigned index) const
    {
        return baseSeed + index;
    }

    /** Profile of the @p index -th program (rotating). */
    OpMixProfile profileFor(unsigned index) const;
};

/** One oracle failure, with everything a repro needs. */
struct FuzzFailure
{
    std::uint64_t seed = 0;
    OpMixProfile profile = OpMixProfile::Mixed;
    Scheme scheme = Scheme::Baseline;
    /** Mitigation active in the failing cell (None for oracle cells). */
    Mitigation mitigation = Mitigation::None;
    /** "divergence" | "deadlock" | "invariant" | "monitor" (nonzero
     *  shadow transmit/consume count against a declared STT/NDA
     *  obligation) | "contract" (shadow-engine sandboxing breach
     *  against a declared dataflow policy). */
    std::string kind;
    std::string detail;

    /** Minimized replay command for this failure. */
    std::string repro(const std::string &core_name) const;
};

/** The folded campaign verdict. */
struct FuzzReport
{
    unsigned programs = 0;
    unsigned cells = 0;
    std::string coreName;
    Mitigation mitigation = Mitigation::None;
    std::vector<FuzzFailure> failures;
    /** Cells supervision cut short (timed out, interrupted or
     *  quarantined): counted, never judged. A program whose Baseline
     *  oracle is among them has none of its cells judged. */
    unsigned unfinished = 0;

    bool
    ok() const
    {
        return cells > 0 && failures.empty() && unfinished == 0;
    }
};

/** The campaign's RunSpecs: for each program, every scheme in roster
 *  order with Baseline first (foldFuzzOutcomes relies on the order).
 *  With params.mitigation set, each program additionally *leads* with
 *  an unmitigated Baseline oracle cell, so the per-program stride is
 *  schemes + 1. */
std::vector<RunSpec> fuzzSpecs(const FuzzParams &params);

/** Fold engine outcomes (in fuzzSpecs() order) into the verdict. */
FuzzReport foldFuzzOutcomes(const FuzzParams &params,
                            const std::vector<RunOutcome> &outcomes);

/** Machine-readable report (the SBSIM_fuzz.json document). */
Json toJson(const FuzzReport &report);

/** Human-readable report, with repro lines for every failure and one
 *  line counting the unfinished cells. */
void printFuzzReport(const FuzzReport &report, std::FILE *out);

/** Register the "conformance" and "contract_check" scenarios (the
 *  same fixed small campaign; contract_check reports the contract
 *  shadow engine's per-scheme verdict over the generated programs'
 *  secret-labelled buffers). */
void registerConformanceScenarios(ScenarioRegistry &registry);

/** The contract_check report: per-scheme shadow-violation totals
 *  plus every "contract" failure with its repro, and one line
 *  counting the cut-short cells. Returns the printed verdict: true
 *  when there is neither. */
bool printContractReport(const FuzzParams &params,
                         const std::vector<RunOutcome> &outcomes,
                         std::FILE *out);

} // namespace sb

#endif // SB_HARNESS_CONFORMANCE_HH
