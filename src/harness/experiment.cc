#include "harness/experiment.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/signals.hh"
#include "core/core.hh"
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
    const std::uint64_t hash = fnv1aString(fnv1aBasis, canonical());
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    if (const char *env = std::getenv("SB_JOBS")) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && errno == 0 && v > 0
            && v <= maxJobs)
            return static_cast<unsigned>(v);
        sb_warn("ignoring SB_JOBS='", env, "' (want an integer in [1, ",
                maxJobs, "])");
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

ExperimentRunner::ExperimentRunner(unsigned threads)
    : numThreads(resolveJobs(threads))
{
}

RunOutcome
ExperimentRunner::runOne(const RunSpec &spec)
{
    return runOne(spec, RunHooks{});
}

RunOutcome
ExperimentRunner::runOne(const RunSpec &spec, const RunHooks &hooks)
{
    // Security-battery cells run the attack harness instead of a
    // windowed measurement; they share dedup/cache with everything
    // else because the dispatch key (the workload string) is part of
    // specKey(). They build their own cores, so the per-cell wall
    // deadline covers only windowed measurement cells — gadget and
    // fuzz cells are short and carry their own cycle watchdogs.
    if (isGadgetWorkload(spec.workload))
        return runGadgetCell(spec);
    if (isFuzzWorkload(spec.workload))
        return runFuzzCell(spec);
    if (isTenantWorkload(spec.workload))
        return runServerMixCell(spec);

    const Workload workload = SpecSuite::make(spec.workload);
    const TransformedProgram transformed =
        applyMitigation(spec.mitigation.kind, workload.program);
    Core core(spec.core, spec.scheme, makeScheme(spec.scheme),
              transformed.program);

    // Under a mitigation the raw committed-instruction count includes
    // pass glue; track *useful* commits (instructions standing for an
    // original one) so overhead reports can compare like with like.
    std::uint64_t useful = 0;
    if (spec.mitigation.enabled()) {
        core.setCommitHook([&](const DynInst &inst, Cycle) {
            if (transformed.origin(inst.pc) >= 0)
                ++useful;
        });
    }

    if (hooks.wallDeadlineSec > 0) {
        core.setWallDeadline(hooks.wallDeadlineSec);
        // The deadline must end the run, not escalate the stall
        // panic: a slow-but-healthy cell is a timeout, not a bug.
        core.setSoftWatchdog(100000);
    }
    if (hooks.interruptible)
        core.setInterruptible(true);

    // Warmup: fill caches, train the predictor, reach steady state.
    core.run(spec.warmupInsts, spec.maxCycles);
    core.stats().reset();
    const Cycle cycles0 = core.now();
    const std::uint64_t insts0 = core.committedInstructions();
    const std::uint64_t useful0 = useful;

    core.run(spec.measureInsts, spec.maxCycles);

    RunOutcome out;
    out.workload = spec.workload;
    out.coreName = spec.core.name;
    out.scheme = spec.scheme.scheme;
    out.cycles = core.now() - cycles0;
    out.instructions = core.committedInstructions() - insts0;
    out.ipc = out.cycles == 0
                  ? 0.0
                  : static_cast<double>(out.instructions)
                        / static_cast<double>(out.cycles);
    // The obligation counts stay 0: they are judged on shadow-on
    // cells (attack, fuzz, tenant), and a window cell's outcome must
    // not depend on the build's shadow default.
    for (const auto &kv : core.stats().counters())
        out.stats[kv.first] = kv.second.value();
    if (spec.mitigation.enabled())
        out.stats["useful_instructions"] = useful - useful0;
    if (core.watchdogTripped()) {
        // Supervision artifact, not a measurement: the cell ran out
        // of wall clock (or was interrupted, or genuinely stalled).
        // Marked so aggregation and the cache can tell it apart.
        if (hooks.interruptible && interruptRequested()
            && !core.wallDeadlineHit())
            out.stats["interrupted"] = 1;
        else
            out.stats["watchdog_tripped"] = 1;
    }
    return out;
}

bool
outcomeIsCacheable(const RunOutcome &outcome)
{
    return outcome.stat("watchdog_tripped") == 0
           && outcome.stat("interrupted") == 0
           && outcome.stat("quarantined") == 0;
}

std::vector<RunOutcome>
ExperimentRunner::runAll(const std::vector<RunSpec> &specs) const
{
    std::vector<RunOutcome> results(specs.size());
    std::atomic<std::size_t> next{0};

    auto worker = [&]() {
        while (true) {
            const std::size_t idx =
                next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= specs.size())
                return;
            results[idx] = runOne(specs[idx]);
        }
    };

    const unsigned n =
        std::min<std::size_t>(numThreads, specs.size());
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
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
