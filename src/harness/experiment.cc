#include "harness/experiment.hh"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number.hh"
#include "common/signals.hh"
#include "core/core.hh"
#include "harness/cell_driver.hh"
#include "harness/conformance.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "secure/factory.hh"
#include "trace/spec_suite.hh"

namespace sb
{

std::uint64_t
RunOutcome::stat(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

std::string
RunSpec::canonical() const
{
    std::ostringstream oss;
    oss << "schema=" << specSchemaVersion << "|core{"
        << core.canonical() << "}|scheme{" << scheme.canonical()
        << "}|workload=" << workload << "|" << mitigation.canonical()
        << "|warmup=" << warmupInsts << "|measure=" << measureInsts
        << "|maxcycles=" << maxCycles;
    return oss.str();
}

std::string
RunSpec::specKey() const
{
    // FNV-1a 64-bit over the canonical serialization.
    return hex16(fnv1aString(fnv1aBasis, canonical()));
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    if (const char *env = std::getenv("SB_JOBS")) {
        std::uint64_t v = 0;
        if (parseUnsigned(env, v, maxJobs) && v > 0)
            return static_cast<unsigned>(v);
        sb_warn("ignoring SB_JOBS='", env, "' (want an integer in [1, ",
                maxJobs, "])");
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

RunOutcome
outcomeHeader(const RunSpec &spec, const char *marker)
{
    RunOutcome out;
    out.workload = spec.workload;
    out.coreName = spec.core.name;
    out.scheme = spec.scheme.scheme;
    if (marker)
        out.stats[marker] = 1;
    return out;
}

bool
outcomeMatchesSpec(const RunOutcome &outcome, const RunSpec &spec)
{
    return outcome.workload == spec.workload
           && outcome.coreName == spec.core.name
           && outcome.scheme == spec.scheme.scheme;
}

namespace
{

/** A SPEC stand-in measured over a window: warm up, reset the
 *  counters, measure. */
class WindowCell final : public CellDriver
{
  public:
    explicit WindowCell(const RunSpec &spec)
        : spec(spec), workload(SpecSuite::make(spec.workload))
    {
    }

    const Program &program() const override { return workload.program; }

    // Reached only under a mitigation, whose glue inflates the raw
    // commit count: count *useful* commits (instructions standing for
    // an original one) so overhead reports compare like with like.
    void onCommit(const DynInst &, std::uint32_t, Cycle) override
    {
        ++useful;
    }

    void
    drive(Core &core, RunOutcome &out) override
    {
        // Warmup: fill caches, train the predictor, reach steady state.
        core.run(spec.warmupInsts, spec.maxCycles);
        core.stats().reset();
        const Cycle cycles0 = core.now();
        const std::uint64_t insts0 = core.committedInstructions();
        const std::uint64_t useful0 = useful;

        core.run(spec.measureInsts, spec.maxCycles);

        out.cycles = core.now() - cycles0;
        out.instructions = core.committedInstructions() - insts0;
        for (const auto &kv : core.stats().counters())
            out.stats[kv.first] = kv.second.value();
        if (spec.mitigation.enabled())
            out.stats["useful_instructions"] = useful - useful0;
    }

  private:
    const RunSpec &spec;
    const Workload workload;
    std::uint64_t useful = 0;
};

std::unique_ptr<CellDriver>
makeWindowCell(const RunSpec &spec)
{
    return std::make_unique<WindowCell>(spec);
}

/** A workload family runOne executes. */
struct CellKind
{
    /** Does @p workload belong to this kind? nullptr: every name. */
    bool (*owns)(const std::string &workload);
    /** Parse the workload and build the cell's program. */
    std::unique_ptr<CellDriver> (*make)(const RunSpec &spec);
    /** Runs a whole program and judges it: the contract shadow is
     *  forced on whatever the build default, its STT/NDA obligation
     *  counts land in the outcome, and every commit reaches the
     *  driver. Window cells carry 0 counts, so their outcome never
     *  depends on that default, and see commits only when mitigated. */
    bool wholeProgram;
    /** Judges liveness itself: the soft watchdog is always armed, and
     *  a commit stall is the kind's verdict, not a supervision
     *  artifact. */
    bool judgesLiveness;
};

/** Every cell kind, searched in order. Window is the fallback: any
 *  name no other kind claims is a SPEC stand-in (SpecSuite::make
 *  rejects unknown names). */
const CellKind cellKinds[] = {
    // owns            make            whole  liveness
    {isGadgetWorkload, makeGadgetCell, true, false},
    {isFuzzWorkload, makeFuzzCell, true, true},
    {isTenantWorkload, makeTenantCell, true, false},
    {nullptr, makeWindowCell, false, false},
};

const CellKind &
cellKindOf(const std::string &workload)
{
    for (const CellKind &kind : cellKinds)
        if (!kind.owns || kind.owns(workload))
            return kind;
    sb_panic("no cell kind owns workload '", workload, "'");
}

} // anonymous namespace

RunOutcome
ExperimentRunner::runOne(const RunSpec &spec, const RunHooks &hooks)
{
    return runOne(spec, makeScheme(spec.scheme), hooks);
}

RunOutcome
ExperimentRunner::runOne(const RunSpec &spec,
                         std::unique_ptr<SecureScheme> scheme,
                         const RunHooks &hooks)
{
    const CellKind &kind = cellKindOf(spec.workload);
    const std::unique_ptr<CellDriver> cell = kind.make(spec);

    std::optional<TransformedProgram> mitigated;
    if (spec.mitigation.enabled())
        mitigated.emplace(
            applyMitigation(spec.mitigation.kind, cell->program()));
    Core core(spec.core, spec.scheme, std::move(scheme),
              mitigated ? mitigated->program : cell->program());

    if (kind.wholeProgram)
        core.setContractShadowEnabled(true);

    // Commits reach the kind at their original PCs: glue a mitigation
    // inserted is invisible to receivers, digests and useful-commit
    // counts alike. Unmitigated window cells install no hook at all.
    if (kind.wholeProgram || mitigated) {
        const TransformedProgram *transform =
            mitigated ? &*mitigated : nullptr;
        CellDriver *driver = cell.get();
        core.setCommitHook([transform, driver](const DynInst &inst,
                                               Cycle at) {
            std::int64_t pc = inst.pc;
            if (transform) {
                pc = transform->origin(inst.pc);
                if (pc < 0)
                    return;
            }
            driver->onCommit(inst, static_cast<std::uint32_t>(pc), at);
        });
    }

    // Supervision binds every kind, and runOne alone says why a cell
    // was stopped: the check tests the interrupt, then the deadline,
    // and records which one fired. A deadline must end the run, not
    // escalate a stall into the hard panic: a slow-but-healthy cell
    // is a timeout, not a bug.
    enum class Stop { None, Interrupt, Deadline } why = Stop::None;
    const bool timed = hooks.wallDeadlineSec > 0;
    if (timed || hooks.interruptible) {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point deadline =
            Clock::now()
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(hooks.wallDeadlineSec));
        core.setStopCheck([&why, interruptible = hooks.interruptible,
                           timed, deadline] {
            if (interruptible && interruptRequested())
                why = Stop::Interrupt;
            else if (timed && Clock::now() >= deadline)
                why = Stop::Deadline;
            return why != Stop::None;
        });
    }
    if (timed || kind.judgesLiveness)
        core.setSoftWatchdog(100000);

    RunOutcome out = outcomeHeader(spec);
    cell->drive(core, out);
    out.ipc = out.cycles == 0 ? 0.0
                              : static_cast<double>(out.instructions)
                                    / static_cast<double>(out.cycles);
    if (kind.wholeProgram) {
        const ContractShadow &shadow = core.contractShadow();
        out.transmitViolations = shadow.transmitViolations();
        out.consumeViolations = shadow.consumeViolations();
    }
    // Supervision artifacts, not measurements: marked so aggregation
    // and the cache can tell them apart.
    if (why == Stop::Interrupt)
        out.stats["interrupted"] = 1;
    else if (why == Stop::Deadline
             || (core.watchdogTripped() && !kind.judgesLiveness))
        out.stats["watchdog_tripped"] = 1;
    return out;
}

bool
outcomeIsCacheable(const RunOutcome &outcome)
{
    return outcome.stat("watchdog_tripped") == 0
           && outcome.stat("interrupted") == 0
           && outcome.stat("quarantined") == 0;
}

std::vector<RunSpec>
suiteSpecs(const std::vector<CoreConfig> &configs,
           const std::vector<SchemeConfig> &schemes,
           std::uint64_t measure_insts)
{
    std::vector<RunSpec> specs;
    for (const auto &core : configs) {
        for (const auto &scheme : schemes) {
            for (const auto &name : SpecSuite::benchmarkNames()) {
                RunSpec s;
                s.core = core;
                s.scheme = scheme;
                s.workload = name;
                s.measureInsts = measure_insts;
                specs.push_back(std::move(s));
            }
        }
    }
    return specs;
}

} // namespace sb
