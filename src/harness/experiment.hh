/**
 * @file
 * The cell pipeline: one RunSpec (core config x scheme x workload) in,
 * one RunOutcome out. ExperimentRunner::runOne runs every cell kind —
 * windowed benchmark, gadget, fuzz and multi-tenant — through the same
 * steps; the ExperimentEngine (engine.hh) fans cells out to threads.
 */

#ifndef SB_HARNESS_EXPERIMENT_HH
#define SB_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "isa/transform.hh"

namespace sb
{

class SecureScheme;

/**
 * Version of the RunSpec canonical-serialization schema, folded into
 * every specKey(). Bump it whenever the meaning of a cached outcome
 * changes without the serialized fields changing (new stats harvested
 * into RunOutcome, semantic changes to a workload family, ...): old
 * cache lines then miss instead of resurfacing stale results. CI
 * keys its persisted result cache on this constant.
 */
constexpr unsigned specSchemaVersion = 6;

/** One simulation to run. */
struct RunSpec
{
    CoreConfig core;
    SchemeConfig scheme;
    /** SPEC stand-in name (a windowed measurement), or a whole-program
     *  cell: "gadget:" (harness/verify.hh), "fuzz:"
     *  (harness/conformance.hh) or "mt:" (harness/tenant.hh). */
    std::string workload;
    /** Software mitigation applied to the program before simulation
     *  (isa/transform.hh); None runs the workload as written. */
    MitigationConfig mitigation;
    std::uint64_t warmupInsts = 30000;
    std::uint64_t measureInsts = 120000;
    std::uint64_t maxCycles = 40'000'000;

    /**
     * Canonical serialization of everything that determines the
     * simulation's outcome (the simulator is deterministic, so this
     * string identifies the run by content).
     */
    std::string canonical() const;

    /**
     * Content hash of canonical() (16 hex chars, FNV-1a 64). Two
     * specs with the same key compute the same RunOutcome; the
     * ExperimentEngine uses it for in-batch dedup and as the
     * result-cache address.
     */
    std::string specKey() const;
};

/** Upper bound on worker threads accepted from SB_JOBS / --jobs. */
constexpr unsigned maxJobs = 4096;

/**
 * Worker-thread count policy, used everywhere a runner would
 * otherwise reach for hardware_concurrency(): an explicit
 * @p requested wins, then SB_JOBS when it holds an integer in
 * [1, maxJobs], then the hardware concurrency (min 1).
 */
unsigned resolveJobs(unsigned requested);

/** Measured outcome of one simulation (measurement window only). */
struct RunOutcome
{
    std::string workload;
    std::string coreName;
    Scheme scheme = Scheme::Baseline;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    /** Contract-shadow STT transmit / NDA consume counts over the
     *  whole run. Only shadow-on cells (gadget, fuzz, tenant) harvest
     *  them; windowed benchmark cells always carry 0. */
    std::uint64_t transmitViolations = 0;
    std::uint64_t consumeViolations = 0;

    /** Window cells: every core counter of the measurement window.
     *  Whole-program kinds: their own prefixed keys ("gadget_*",
     *  "fuzz_*", "mt_*"). Plus any supervision marker. */
    std::map<std::string, std::uint64_t> stats;

    std::uint64_t stat(const std::string &name) const;
};

/** An outcome carrying only @p spec's identity (workload, core,
 *  scheme): every outcome starts here. A supervision stub also
 *  carries its @p marker ("interrupted", "quarantined") set to 1. */
RunOutcome outcomeHeader(const RunSpec &spec,
                         const char *marker = nullptr);

/** Does @p outcome carry @p spec's identity, the fields
 *  outcomeHeader() fills? A cached outcome answers a spec only then. */
bool outcomeMatchesSpec(const RunOutcome &outcome, const RunSpec &spec);

/**
 * Supervision knobs for one cell execution. Deliberately NOT part of
 * RunSpec: none of these change the simulated outcome of a healthy
 * cell, so they must not perturb specKey() / the result cache.
 */
struct RunHooks
{
    /**
     * Wall-clock budget in seconds for the whole cell (warmup +
     * measurement); 0 = unlimited. A cell that exceeds it returns a
     * watchdog-tripped outcome (stats["watchdog_tripped"] = 1)
     * instead of wedging its worker slot; such outcomes are never
     * cached (a timeout depends on host speed, not cell content).
     */
    double wallDeadlineSec = 0;

    /** End the cell early when SIGINT/SIGTERM was requested
     *  (stats["interrupted"] = 1; never cached). */
    bool interruptible = false;
};

/** Executes cells. */
class ExperimentRunner
{
  public:
    /**
     * Execute one spec synchronously, whatever its kind, under the
     * supervision of @p hooks (per-cell deadline, interrupt
     * awareness); see RunHooks.
     */
    static RunOutcome runOne(const RunSpec &spec,
                             const RunHooks &hooks = RunHooks{});

    /** The same with @p scheme in place of makeScheme(spec.scheme):
     *  the injection point for deliberately broken schemes in tests.
     *  The outcome still reports spec.scheme. */
    static RunOutcome runOne(const RunSpec &spec,
                             std::unique_ptr<SecureScheme> scheme,
                             const RunHooks &hooks = RunHooks{});
};

/**
 * True when @p outcome represents the cell's real simulated result
 * (as opposed to a supervision artifact — timed out, interrupted, or
 * quarantined) and may therefore be persisted in the result cache.
 * Folds judge only such outcomes: a supervision artifact was cut short.
 */
bool outcomeIsCacheable(const RunOutcome &outcome);

/** Convenience: specs for (configs x schemes x whole suite). */
std::vector<RunSpec> suiteSpecs(const std::vector<CoreConfig> &configs,
                                const std::vector<SchemeConfig> &schemes,
                                std::uint64_t measure_insts = 120000);

} // namespace sb

#endif // SB_HARNESS_EXPERIMENT_HH
