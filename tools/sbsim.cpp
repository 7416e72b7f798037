/**
 * @file
 * sbsim: the unified driver over the scenario registry.
 *
 *   sbsim list                       # scenarios, cell counts, titles
 *   sbsim run <scenario...> [opts]   # any slice of the grid
 *   sbsim all [opts]                 # the whole reproduction
 *   sbsim verify [opts]              # security battery -> leak matrix
 *   sbsim fuzz [opts]                # differential conformance fuzz
 *
 * Common options, accepted identically by run/all/verify/fuzz (one
 * shared parser — parseCommonOpt — so the verbs cannot drift):
 *   --jobs N        workers, this thread and up to N - 1 threads
 *                   started for the batch (default: SB_JOBS, else
 *                   hardware)
 *   --cache-dir D   result-cache directory (default: .sbsim-cache)
 *   --no-cache      disable the on-disk result cache
 *   --json          also write SBSIM_<scenario>.json outcome dumps
 *   --shards N      run cells on N supervised worker processes
 *                   (forks of this one; crashes and hangs are
 *                   retried with backoff, poisoned cells quarantined,
 *                   and the tier degrades to in-process execution if
 *                   no worker survives)
 *   --cell-timeout S  per-cell wall-clock budget in seconds; overruns
 *                   come back as stats["watchdog_tripped"] outcomes
 *
 * Integer options (--jobs, --shards, --programs, --seed) and SB_JOBS
 * take decimal digits only, the spelling workload names use
 * (common/number.hh): no sign, no space, no leading zero. --seed also
 * takes 0x hex. Any other spelling exits 2 with a message.
 *
 * verify options:
 *   --contract C    contract to judge protected cells under:
 *                   declared (default; each scheme's own contract),
 *                   sandboxing, or constant-time. The override only
 *                   rebinds cells whose scheme declares a contract —
 *                   the unprotected baseline keeps its armed-proof
 *                   role (and its constant-time violation record is
 *                   the printed evidence against it).
 *   --mitigation M  software co-study: run the gadget battery twice
 *                   (unmitigated + under M in {slh, fence, retpoline})
 *                   and fold the closure + overhead matrix; exits
 *                   nonzero unless M closes its target gadgets on the
 *                   unprotected core, leaves the others armed, and
 *                   keeps every hardware contract intact. With --json
 *                   writes SBSIM_verify_<M>.json.
 *
 * SIGINT/SIGTERM stop dispatch gracefully: in-flight work is cut
 * short, finished cells stay in the cache, the partial report still
 * prints, and every simulating verb exits 128+signal.
 *
 * Fuzz options (sbsim fuzz only):
 *   --programs N    random programs per campaign (default 50)
 *   --seed S        base seed, decimal or 0x hex; program i uses seed
 *                   S+i (default 0xC0FFEE)
 *   --profile P     op-mix profile (mixed|alu|mem|branch|all; default all)
 *   --core C        core preset (small|medium|large|mega; default mega)
 *   --mitigation M  apply a software mitigation (isa/transform.hh) to
 *                   every cell and judge architectural equivalence —
 *                   modulo the transform's inserted glue — against an
 *                   extra unmitigated Baseline oracle per program
 *
 * All requested scenarios are collected into one ExperimentEngine
 * batch, so overlapping grid cells are simulated once (in-batch
 * dedup) and persist across invocations (content-addressed cache).
 * Every verb exits 1 when a printed verdict fails (the security
 * battery, conformance, contract_check, mitigation_grid,
 * multi_tenant, a mitigation's closure, a fuzz campaign) or a cell
 * was quarantined.
 * `sbsim all` additionally writes BENCH_gridspeed.json with the grid
 * throughput accounting (cells requested / simulated / deduped /
 * cached, wall-clock) so the perf trajectory tracks grid cost next
 * to BENCH_simspeed.json.
 *
 * `sbsim verify` runs the Spectre gadget battery (the "security"
 * scenario's cells) and folds the paired secret-flipped runs into a
 * leak matrix: the process exits nonzero if any scheme breaks its
 * security contract (a claiming scheme leaks or shows differential
 * timing divergence, or the unsafe baseline fails to leak). With
 * --json the matrix is written to SBSIM_verify.json.
 *
 * `sbsim fuzz` runs the differential conformance campaign: seeded
 * random programs under every scheme, checked against the Baseline's
 * architectural results (src/harness/conformance.hh). Failures print
 * a minimized, replayable repro (seed + profile + scheme) and the
 * process exits nonzero. With --json the report is written to
 * SBSIM_fuzz.json. Fuzz cells ride the same engine, so every common
 * option applies (authoritative CI smoke runs --no-cache, like the
 * security battery).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/number.hh"
#include "common/roster.hh"
#include "common/signals.hh"
#include "core/security_contract.hh"
#include "harness/conformance.hh"
#include "harness/engine.hh"
#include "harness/result_cache.hh"
#include "harness/reporting.hh"
#include "harness/scenario.hh"
#include "harness/verify.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s list\n"
                 "       %s run <scenario...> [common]\n"
                 "       %s all [common]\n"
                 "       %s verify [common]"
                 " [--contract declared|sandboxing|constant-time]\n"
                 "               [--mitigation slh|fence|retpoline]\n"
                 "       %s fuzz [common] [--programs N] [--seed S]"
                 " [--profile P] [--core C] [--mitigation M]\n"
                 "common options (identical for run/all/verify/fuzz):\n"
                 "       [--jobs N] [--cache-dir D] [--no-cache]"
                 " [--json] [--shards N]\n"
                 "       [--cell-timeout S]\n",
                 argv0, argv0, argv0, argv0, argv0);
    return 2;
}

/** @p text as a number in [@p min, @p max] for @p flag, spelled as
 *  sb::parseUnsigned() reads it; false after a diagnostic otherwise. */
bool
parseNumberOpt(const std::string &flag, const char *text,
               std::uint64_t min, std::uint64_t max, std::uint64_t &out,
               sb::Radix radix = sb::Radix::Decimal)
{
    if (sb::parseUnsigned(text, out, max, radix) && out >= min)
        return true;
    std::fprintf(stderr, "%s wants an integer in [%llu, %llu]%s (got '%s')\n",
                 flag.c_str(), static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max),
                 radix == sb::Radix::Decimal ? "" : ", decimal or 0x hex",
                 text);
    return false;
}

/** The item of @p roster named @p text for @p flag; otherwise false
 *  after a diagnostic naming what it takes (@p roster's names, then
 *  @p also). */
template <class Roster, class NameOf, class T>
bool
parseNameOpt(const std::string &flag, const char *text,
             const Roster &roster, NameOf nameOf, T &out,
             const char *also = "")
{
    if (sb::fromName(roster, nameOf, text, out))
        return true;
    std::fprintf(stderr, "%s wants %s%s (got '%s')\n", flag.c_str(),
                 sb::vocabulary(roster, nameOf).c_str(), also, text);
    return false;
}

/** Options every simulating verb accepts with identical semantics. */
struct CommonOpts
{
    unsigned jobs = 0;              // 0 = resolveJobs() default
    std::string cacheDir = ".sbsim-cache";
    bool useCache = true;
    bool emitJson = false;
    unsigned shards = 0;            // 0 = in-process workers only
    double cellTimeoutSec = 0;      // 0 = unlimited
};

/**
 * Shared flag parser for the cross-verb options. Attempts to consume
 * argv[i] (advancing @p i past any value argument). Returns 1 when
 * consumed, 0 when argv[i] is not a common option, -1 on a malformed
 * value (diagnostic already printed).
 */
int
parseCommonOpt(int argc, char **argv, int &i, CommonOpts &opts)
{
    const std::string arg = argv[i];
    if (arg == "--jobs" || arg == "--cache-dir" || arg == "--shards"
        || arg == "--cell-timeout") {
        if (++i >= argc) {
            std::fprintf(stderr, "%s wants a value\n", arg.c_str());
            return -1;
        }
    }
    std::uint64_t v = 0;
    if (arg == "--jobs") {
        if (!parseNumberOpt(arg, argv[i], 1, sb::maxJobs, v))
            return -1;
        opts.jobs = static_cast<unsigned>(v);
        return 1;
    }
    if (arg == "--cache-dir") {
        opts.cacheDir = argv[i];
        return 1;
    }
    if (arg == "--no-cache") {
        opts.useCache = false;
        return 1;
    }
    if (arg == "--json") {
        opts.emitJson = true;
        return 1;
    }
    if (arg == "--shards") {
        if (!parseNumberOpt(arg, argv[i], 0, 256, v))
            return -1;
        opts.shards = static_cast<unsigned>(v);
        return 1;
    }
    if (arg == "--cell-timeout") {
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(argv[i], &end);
        if (end == argv[i] || *end != '\0' || errno != 0 || v < 0) {
            std::fprintf(stderr, "--cell-timeout wants a nonnegative "
                                 "number of seconds\n");
            return -1;
        }
        opts.cellTimeoutSec = v;
        return 1;
    }
    return 0;
}

/** The engine options every simulating verb starts from. A request
 *  with no @p cells opens no cache, so it creates no directory. */
sb::ExperimentEngine::Options
engineOptions(const CommonOpts &common, bool cells)
{
    sb::ExperimentEngine::Options options;
    options.jobs = common.jobs;
    if (common.useCache && cells)
        options.cacheDir = common.cacheDir;
    options.shards = common.shards;
    options.cellTimeoutSec = common.cellTimeoutSec;
    return options;
}

/** How every simulating verb ends: an interrupt exits 128+signal;
 *  otherwise a @p failed verdict or a quarantined cell exits 1. */
int
exitStatus(const sb::ExperimentEngine &engine,
           const std::vector<std::string> &failed)
{
    const sb::EngineStats &st = engine.stats();
    if (st.interrupted) {
        std::fprintf(stderr,
                     "sbsim: interrupted; partial results "
                     "(%llu cell(s) unfinished)\n",
                     static_cast<unsigned long long>(
                         st.interruptedCells));
        const int sig = sb::interruptSignal();
        return sig > 0 ? 128 + sig : 130;
    }
    for (const std::string &name : failed)
        std::fprintf(stderr, "sbsim: %s verdict FAIL\n", name.c_str());
    if (!failed.empty())
        return 1;
    if (!st.quarantinedKeys.empty()) {
        std::fprintf(stderr,
                     "sbsim: %zu cell(s) quarantined; results "
                     "incomplete\n",
                     st.quarantinedKeys.size());
        return 1;
    }
    return 0;
}

int
listScenarios()
{
    const auto &registry = sb::ScenarioRegistry::instance();
    std::printf("%-16s %7s  %s\n", "scenario", "cells", "title");
    for (const auto &name : registry.names()) {
        const sb::Scenario *s = registry.find(name);
        std::printf("%-16s %7zu  %s\n", s->name.c_str(),
                    s->specs().size(), s->title.c_str());
    }
    return 0;
}

void
writeOutcomesJson(const std::string &scenario,
                  const std::vector<sb::RunOutcome> &outcomes)
{
    sb::Json doc = sb::Json::object();
    doc.set("scenario", sb::Json::str(scenario));
    sb::Json arr = sb::Json::array();
    for (const auto &o : outcomes)
        arr.push(sb::toJson(o));
    doc.set("outcomes", std::move(arr));
    sb::writeJsonFile("SBSIM_" + scenario + ".json", doc);
}

void
writeGridspeedJson(const std::vector<std::string> &scenarios,
                   const sb::ExperimentEngine &engine)
{
    const sb::EngineStats &st = engine.stats();
    sb::Json doc = sb::Json::object();
    doc.set("bench", sb::Json::str("gridspeed"));
    sb::Json names = sb::Json::array();
    for (const auto &n : scenarios)
        names.push(sb::Json::str(n));
    doc.set("scenarios", std::move(names));
    doc.set("jobs", sb::Json::num(std::uint64_t(engine.jobs())));
    doc.set("cells_requested", sb::Json::num(st.requested));
    doc.set("cells_simulated", sb::Json::num(st.simulated));
    doc.set("cells_from_dedup", sb::Json::num(st.dedupHits));
    doc.set("cells_from_cache", sb::Json::num(st.cacheHits));
    doc.set("wall_seconds", sb::Json::num(st.wallSeconds));
    doc.set("workers_spawned", sb::Json::num(st.workersSpawned));
    doc.set("worker_crashes", sb::Json::num(st.shardCrashes));
    doc.set("worker_hangs", sb::Json::num(st.shardHangs));
    doc.set("cell_retries", sb::Json::num(st.shardRetries));
    sb::writeJsonFile("BENCH_gridspeed.json", doc);
}

int
fuzzMain(int argc, char **argv)
{
    sb::FuzzParams params;
    CommonOpts common;

    for (int i = 2; i < argc; ++i) {
        const int consumed = parseCommonOpt(argc, argv, i, common);
        if (consumed < 0)
            return 2;
        if (consumed > 0)
            continue;
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        if (arg == "--programs" || arg == "--seed"
            || arg == "--profile" || arg == "--core"
            || arg == "--mitigation") {
            if (++i >= argc)
                return usage(argv[0]);
        }
        if (arg == "--programs") {
            if (!parseNumberOpt(arg, argv[i], 1, 1000000, v))
                return 2;
            params.programs = static_cast<unsigned>(v);
        } else if (arg == "--seed") {
            if (!parseNumberOpt(arg, argv[i], 0,
                                std::numeric_limits<std::uint64_t>::max(),
                                params.baseSeed, sb::Radix::DecimalOrHex))
                return 2;
        } else if (arg == "--profile") {
            sb::OpMixProfile profile;
            if (std::string(argv[i]) == "all")
                params.profiles.clear();
            else if (parseNameOpt(arg, argv[i], sb::allOpMixProfiles(),
                                  sb::opMixProfileName, profile, "|all"))
                params.profiles = {profile};
            else
                return 2;
        } else if (arg == "--core") {
            if (!parseNameOpt(arg, argv[i], sb::CoreConfig::boomPresets(),
                              &sb::CoreConfig::name, params.core))
                return 2;
        } else if (arg == "--mitigation") {
            if (!parseNameOpt(arg, argv[i], sb::allMitigations(),
                              sb::mitigationName, params.mitigation))
                return 2;
        } else {
            std::fprintf(stderr, "unknown fuzz option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    const std::vector<sb::RunSpec> specs = sb::fuzzSpecs(params);
    sb::ExperimentEngine engine(engineOptions(common, true));
    std::printf("sbsim fuzz: %u program(s), %zu cells, base seed %llu, "
                "mitigation %s, cache %s\n",
                params.programs, specs.size(),
                static_cast<unsigned long long>(params.baseSeed),
                sb::mitigationName(params.mitigation),
                common.useCache ? common.cacheDir.c_str() : "off");
    const sb::FuzzReport report =
        sb::foldFuzzOutcomes(params, engine.run(specs));
    printFuzzReport(report, stdout);
    if (common.emitJson)
        sb::writeJsonFile("SBSIM_fuzz.json", sb::toJson(report));
    if (report.ok())
        return exitStatus(engine, {});
    return exitStatus(engine, {"fuzz"});
}

/**
 * `sbsim verify --mitigation M`: the gadget battery twice — once
 * unmitigated, once under M — folded into the closure + overhead
 * co-study. Exits nonzero unless M closes every gadget it targets on
 * the unprotected core, leaves non-target gadgets demonstrably armed,
 * and breaks no hardware scheme's contract.
 */
int
verifyMitigationMain(sb::Mitigation m, const CommonOpts &common)
{
    const std::vector<sb::RunSpec> specs = sb::mitigationBatterySpecs(
        sb::CoreConfig::mega(), sb::allSchemeConfigs(), m);

    sb::ExperimentEngine engine(engineOptions(common, true));

    std::printf("sbsim verify: mitigation %s, %zu cells, %u jobs, "
                "cache %s\n",
                sb::mitigationName(m), specs.size(), engine.jobs(),
                common.useCache ? common.cacheDir.c_str() : "off");
    const auto outcomes = engine.run(specs);
    const sb::MitigationReport report =
        sb::foldMitigationOutcomes(m, outcomes);
    sb::printMitigationReport(report, stdout);

    if (common.emitJson)
        sb::writeJsonFile(std::string("SBSIM_verify_")
                              + sb::mitigationName(m) + ".json",
                          sb::toJson(report));

    if (report.ok())
        return exitStatus(engine, {});
    return exitStatus(engine, {std::string("verify --mitigation ")
                               + sb::mitigationName(m)});
}

/** `sbsim run`, `all` and `verify`: scenarios served as one batch,
 *  each folded into its report. */
int
scenariosMain(const std::string &command, int argc, char **argv)
{
    std::vector<std::string> names;
    CommonOpts common;
    std::optional<sb::ContractPolicy> contract_override;
    std::optional<sb::Mitigation> mitigation;

    for (int i = 2; i < argc; ++i) {
        const int consumed = parseCommonOpt(argc, argv, i, common);
        if (consumed < 0)
            return 2;
        if (consumed > 0)
            continue;
        const std::string arg = argv[i];
        if (arg == "--contract" && command == "verify") {
            if (++i >= argc)
                return usage(argv[0]);
            // The policies declared schemes may be re-judged under.
            const sb::ContractPolicy overrides[] = {
                sb::ContractPolicy::Sandboxing,
                sb::ContractPolicy::ConstantTime};
            sb::ContractPolicy policy;
            if (std::string(argv[i]) == "declared")
                contract_override.reset();
            else if (parseNameOpt(arg, argv[i], overrides,
                                  sb::contractPolicyName, policy,
                                  "|declared"))
                contract_override = policy;
            else
                return 2;
        } else if (arg == "--mitigation" && command == "verify") {
            if (++i >= argc)
                return usage(argv[0]);
            // Every pass: the roster without None, which comes first.
            const std::vector<sb::Mitigation> passes(
                sb::allMitigations().begin() + 1, sb::allMitigations().end());
            sb::Mitigation m;
            if (!parseNameOpt(arg, argv[i], passes, sb::mitigationName, m))
                return 2;
            mitigation = m;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown %s option '%s'\n",
                         command.c_str(), arg.c_str());
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }

    if (mitigation) {
        if (!names.empty())
            return usage(argv[0]);
        return verifyMitigationMain(*mitigation, common);
    }

    const auto &registry = sb::ScenarioRegistry::instance();
    if (command == "all" || command == "verify") {
        if (!names.empty())
            return usage(argv[0]);
        names = command == "verify"
                    ? std::vector<std::string>{"security"}
                    : registry.names();
    } else if (names.empty()) {
        return usage(argv[0]);
    }

    std::vector<const sb::Scenario *> scenarios;
    for (const auto &name : names) {
        const sb::Scenario *s = registry.find(name);
        if (!s) {
            std::fprintf(stderr,
                         "unknown scenario '%s' (try: %s list)\n",
                         name.c_str(), argv[0]);
            return 2;
        }
        scenarios.push_back(s);
    }

    // One batch over everything requested: cross-scenario cells dedup
    // inside the engine, and cached cells skip simulation entirely.
    std::vector<sb::RunSpec> specs;
    std::vector<std::size_t> offsets;
    for (const sb::Scenario *s : scenarios) {
        offsets.push_back(specs.size());
        auto mine = s->specs();
        specs.insert(specs.end(), std::make_move_iterator(mine.begin()),
                     std::make_move_iterator(mine.end()));
    }
    offsets.push_back(specs.size());

    sb::ExperimentEngine engine(engineOptions(common, !specs.empty()));

    std::printf("sbsim: %zu scenario(s), %zu cells, %u jobs, cache %s",
                scenarios.size(), specs.size(), engine.jobs(),
                common.useCache ? common.cacheDir.c_str() : "off");
    if (common.shards > 0)
        std::printf(", %u shard worker(s)", common.shards);
    std::printf("\n");
    const auto results = engine.run(specs);

    // Every printed verdict gates the exit code, however it was
    // reached: a report that prints "verdict: FAIL" must not exit 0.
    std::vector<std::string> failed;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const std::vector<sb::RunOutcome> slice(
            results.begin() + offsets[i],
            results.begin() + offsets[i + 1]);
        std::printf("\n");
        if (command == "verify") {
            // Only verify judges under a --contract override and
            // writes the folded matrix instead of the outcome dump.
            const sb::VerifyMatrix matrix =
                sb::foldVerifyOutcomes(slice, contract_override);
            sb::printVerifyMatrix(matrix, stdout);
            if (!matrix.ok())
                failed.push_back(scenarios[i]->name);
            if (common.emitJson)
                sb::writeJsonFile("SBSIM_verify.json",
                                  sb::toJson(matrix));
            continue;
        }
        if (!scenarios[i]->report(slice, stdout))
            failed.push_back(scenarios[i]->name);
        if (common.emitJson)
            writeOutcomesJson(scenarios[i]->name, slice);
    }

    const sb::EngineStats &st = engine.stats();
    std::printf("\n--- grid summary ---\n");
    std::printf("cells requested:   %llu\n",
                static_cast<unsigned long long>(st.requested));
    std::printf("cells simulated:   %llu\n",
                static_cast<unsigned long long>(st.simulated));
    std::printf("served by dedup:   %llu\n",
                static_cast<unsigned long long>(st.dedupHits));
    std::printf("served by cache:   %llu\n",
                static_cast<unsigned long long>(st.cacheHits));
    std::printf("wall-clock:        %.3f s (%u jobs)\n", st.wallSeconds,
                engine.jobs());
    if (engine.cache())
        std::printf("cache file:        %s (%zu entries)\n",
                    engine.cache()->path().c_str(),
                    engine.cache()->size());
    if (st.workersSpawned > 0) {
        std::printf("shard workers:     %llu spawned (crashes %llu, "
                    "hangs %llu, retries %llu)\n",
                    static_cast<unsigned long long>(st.workersSpawned),
                    static_cast<unsigned long long>(st.shardCrashes),
                    static_cast<unsigned long long>(st.shardHangs),
                    static_cast<unsigned long long>(st.shardRetries));
        if (st.shardDegraded)
            std::printf("shard tier:        degraded; remainder ran "
                        "in-process\n");
    }
    for (const std::string &key : st.quarantinedKeys)
        std::printf("quarantined cell:  %s\n", key.c_str());

    if (command == "all")
        writeGridspeedJson(names, engine);
    return exitStatus(engine, failed);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string command = argv[1];
    if (command == "list")
        return listScenarios();
    // Graceful interrupt for every simulating verb: finish nothing
    // new, keep what is done, print the partial summary, exit
    // 128+signal. Shard workers restore the default dispositions so
    // the dispatcher's supervision semantics stay observable.
    sb::installSignalHandlers();
    if (command == "fuzz")
        return fuzzMain(argc, argv);
    if (command == "run" || command == "all" || command == "verify")
        return scenariosMain(command, argc, argv);
    return usage(argv[0]);
}
