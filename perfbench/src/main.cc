/**
 * @file
 * sbbench: the repository benchmark driver (see perfbench/README.md).
 *
 *   sbbench --workload perf-window|verify-cells --seed N
 *           --seconds S --trace 0|1 [--work-dir DIR]
 *           [--setup-runs A,B,...] [--setup-only 1]
 *
 * --trace 0 repeats passes over the workload's cells, each cell a timed
 * one-cell ExperimentEngine::run batch, while S seconds allow (at least
 * minPasses passes) and prints the end-to-end metrics. --trace 1 runs
 * the pass as one engine batch, then every cell untraced and as a
 * traced replica back to back, and prints the per-layer metrics.
 * Both check every output and end with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --setup-only 1 prints "setup_s <seconds>", the time from entering
 * main() to the end of set-up; --setup-runs passes such times from
 * other processes in.
 * The exit code is 1 when any check failed, 2 on bad arguments and 3
 * for a build whose timings must not be reported.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"
#include "harness/conformance.hh"
#include "harness/engine.hh"
#include "harness/reporting.hh"
#include "harness/result_cache.hh"
#include "harness/scenario.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "secure/factory.hh"
#include "metrics.hh"
#include "replica.hh"
#include "workloads.hh"

namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;
using sb::RunOutcome;
using sb::RunSpec;

/** Passes a --trace 0 run makes at least, whatever --seconds says. */
constexpr unsigned minPasses = 3;
/** A run starts no pass after this long, even short of minPasses (a
 *  busy host can make a perf-window pass take 20 s). */
constexpr double hardStopSeconds = 60;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string workDir = ".bench_build/perfbench/work";
    /** Scratch of this process under workDir; removed on exit. */
    std::string runDir;
    /** Only set up, print the set-up time and exit. */
    bool setupOnly = false;
    /** Set-up times of separate --setup-only processes; setup_s is
     *  their median (one process's cold set-up moves with the host's
     *  speed by up to a half, so one process is not enough). */
    std::vector<double> setupRuns;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            if (!(opt.seconds > 0))
                return false;
        } else if (arg == "--trace") {
            opt.trace = std::string(val) == "1";
            if (!opt.trace && std::string(val) != "0")
                return false;
        } else if (arg == "--work-dir") {
            opt.workDir = val;
        } else if (arg == "--setup-only") {
            opt.setupOnly = std::string(val) == "1";
        } else if (arg == "--setup-runs") {
            for (const char *p = val; *p;) {
                opt.setupRuns.push_back(std::strtod(p, &end));
                if (end == p || (*end != ',' && *end != '\0'))
                    return false;
                p = *end ? end + 1 : end;
            }
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    const std::vector<std::string> &names = workloadNames();
    return std::find(names.begin(), names.end(), opt.workload)
           != names.end();
}

/** Why timings from this build must not be reported ("" when fine). */
std::string
unmeasurableBuild()
{
    if (std::string(SB_BENCH_BUILD_TYPE) != "Release")
        return std::string("build type is '") + SB_BENCH_BUILD_TYPE
               + "', not Release";
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    if (SB_BENCH_SANITIZED)
        return "built with a sanitizer";
    return "";
}

void
printProvenance()
{
#ifdef NDEBUG
    const int ndebug = 1;
#else
    const int ndebug = 0;
#endif
    std::printf("# build: type=%s ndebug=%d sanitized=%d compiler=\"%s\" "
                "flags=\"%s\" nproc=%u\n",
                SB_BENCH_BUILD_TYPE, ndebug, SB_BENCH_SANITIZED,
                SB_BENCH_COMPILER, SB_BENCH_CXX_FLAGS,
                std::thread::hardware_concurrency());
}

/** An engine with @p jobs workers. It gets a fresh cache directory when
 *  the workload has a cache; destroying it removes the directory. */
class PassEngine
{
  public:
    PassEngine(const Workload &w, unsigned jobs, std::string cache_dir)
        : cacheDir(w.useCache ? std::move(cache_dir) : std::string())
    {
        sb::ExperimentEngine::Options o;
        o.jobs = jobs;
        o.cacheDir = cacheDir;
        engine = std::make_unique<sb::ExperimentEngine>(o);
    }

    ~PassEngine()
    {
        engine.reset();
        std::error_code ec;
        if (!cacheDir.empty())
            fs::remove_all(cacheDir, ec);
    }

    PassEngine(const PassEngine &) = delete;
    PassEngine &operator=(const PassEngine &) = delete;

    std::unique_ptr<sb::ExperimentEngine> engine;

  private:
    std::string cacheDir;
};

/** The engines of one --trace 0 pass: a single-worker engine per
 *  client thread, each with its own fresh cache directory when the
 *  workload has a cache. */
using PassEngines = std::vector<std::unique_ptr<PassEngine>>;

PassEngines
passEngines(const Workload &w, const std::string &cache_root)
{
    PassEngines out;
    for (unsigned t = 0; t < w.workers; ++t)
        out.push_back(std::make_unique<PassEngine>(
            w, 1, cache_root + "-" + std::to_string(t)));
    return out;
}

/** Everything set-up builds before the first cell is dispatched. */
struct Prepared
{
    Workload workload;
    PassEngines engines;
};

Prepared
setUp(const Options &opt, const std::string &cache_root)
{
    // The registry every driver builds first (sbsim run/all/verify).
    sb::ScenarioRegistry registry;
    sb::registerPaperScenarios(registry);
    sb::registerSecurityScenarios(registry);
    sb::registerMitigationScenarios(registry);
    sb::registerConformanceScenarios(registry);
    sb::registerTenantScenarios(registry);

    Prepared p;
    makeWorkload(opt.workload, opt.seed, p.workload);
    p.engines = passEngines(p.workload, cache_root);
    return p;
}

/**
 * Run @p n jobs on @p threads fresh client threads (never the main
 * thread), pulling indices in order; the thread index is passed along.
 * Exceptions are forwarded to the caller after every thread has joined.
 */
template <typename Fn>
void
onClientThreads(std::size_t n, unsigned threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::atomic<bool> failed{false};
    auto body = [&](unsigned worker) {
        try {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(worker, i);
        } catch (...) {
            if (!failed.exchange(true))
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(body, t);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

struct PassResult
{
    double wall = 0;
    /** Each cell's ExperimentEngine::run time. */
    std::vector<double> cellSeconds;
    std::vector<RunOutcome> outcomes;
};

/**
 * One --trace 0 pass: Workload::workers client threads pull the cells
 * in order, and each submits its cell to its own single-worker engine
 * as a one-cell ExperimentEngine::run batch, timed. The engines are
 * destroyed (and their caches removed) when the pass ends.
 */
PassResult
enginePass(const Workload &w, PassEngines engines)
{
    PassResult r;
    const std::size_t n = w.cells.size();
    r.outcomes.resize(n);
    r.cellSeconds.resize(n);
    const auto t0 = Clock::now();
    onClientThreads(n, w.workers, [&](unsigned t, std::size_t i) {
        const std::vector<RunSpec> batch{w.cells[i]};
        const auto c0 = Clock::now();
        std::vector<RunOutcome> out = engines[t]->engine->run(batch);
        r.cellSeconds[i] = since(c0);
        r.outcomes[i] = std::move(out.front());
    });
    r.wall = since(t0);
    return r;
}

/** FNV-1a over per-cell (specKey, cycles, instructions). */
std::uint64_t
simDigest(const std::vector<RunSpec> &cells,
          const std::vector<RunOutcome> &outcomes)
{
    std::uint64_t h = sb::fnv1aBasis;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        h = sb::fnv1aString(h, cells[i].specKey());
        h = sb::fnv1aWord(h, outcomes[i].cycles);
        h = sb::fnv1aWord(h, outcomes[i].instructions);
    }
    return h;
}

/** The digest as a JSON-exact number: its top 53 bits. */
std::uint64_t
digestValue(std::uint64_t digest)
{
    return digest >> 11;
}

/**
 * Simulated work of one cell, as its outcome reports it. A window
 * cell's outcome covers the measurement window only, so its work is an
 * estimate: the window's instructions plus the requested warmup, and
 * the window's cycles scaled as if the warmup ran at the window's IPC.
 * A model change that moves warmup IPC alone therefore moves
 * host_ns_per_cycle; the traced run's core.host_ns_per_cycle.* divide
 * by exact whole-cell cycles. Gadget outcomes carry no instruction
 * count (0).
 */
void
cellWork(const RunSpec &spec, const RunOutcome &o, double &insts,
         double &cycles)
{
    insts = static_cast<double>(o.instructions);
    cycles = static_cast<double>(o.cycles);
    if (cellKind(spec) == CellKind::Window && o.instructions > 0) {
        insts += static_cast<double>(spec.warmupInsts);
        cycles *= insts / static_cast<double>(o.instructions);
    }
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const MetricSet &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.json().c_str());
}

void
printFailures(const std::vector<std::string> &messages)
{
    for (const std::string &m : messages)
        std::printf("# FAIL %s\n", m.c_str());
}

// --- --trace 0 ---------------------------------------------------------

/** The host-time end-to-end metrics from each cell's best time @p best.
 *  Rates are totals: simulated work over the sum of per-cell best times
 *  (cells without an instruction count, i.e. gadget cells, are left out
 *  of sim_mips). wall_s is that sum over the whole pass, divided by the
 *  client threads sharing it. */
void
addHostTimes(MetricSet &m, const Workload &w,
             const std::vector<RunOutcome> &outcomes,
             const std::vector<double> &best)
{
    std::vector<double> cell_ms;
    double insts_sum = 0, insts_time = 0, cycles_sum = 0, cycles_time = 0;
    double wall = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        double insts = 0;
        double cycles = 0;
        cellWork(w.cells[i], outcomes[i], insts, cycles);
        cell_ms.push_back(best[i] * 1e3);
        wall += best[i];
        if (insts > 0) {
            insts_sum += insts;
            insts_time += best[i];
        }
        if (cycles > 0) {
            cycles_sum += cycles;
            cycles_time += best[i];
        }
    }
    m.add("sim_mips", insts_sum / insts_time / 1e6, "MIPS");
    m.add("host_ns_per_cycle", cycles_time * 1e9 / cycles_sum, "ns");
    m.add("wall_s", wall / w.workers, "s");
    m.add("cell_ms_p50", quantile(cell_ms, 0.5), "ms");
    m.add("cell_ms_p90", quantile(cell_ms, 0.9), "ms");
}

int
runTimed(const Options &opt, Prepared prep, double setup_time)
{
    const Workload &w = prep.workload;
    const std::size_t n = w.cells.size();
    std::vector<double> best(n, HUGE_VAL);
    std::vector<double> pass_walls;
    std::vector<RunOutcome> first;
    std::vector<std::string> messages;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    const auto start = Clock::now();
    unsigned passes = 0;
    while (true) {
        PassEngines engines = passes == 0
                                  ? std::move(prep.engines)
                                  : passEngines(w, opt.runDir + "/cache-"
                                                       + std::to_string(
                                                           passes));
        const PassResult pass = enginePass(w, std::move(engines));
        pass_walls.push_back(pass.wall);

        CheckResult check = checkPass(w, pass.outcomes);
        if (passes == 0)
            first = pass.outcomes;
        for (std::size_t i = 0; i < n; ++i) {
            if (pass.outcomes[i].cycles != first[i].cycles
                || pass.outcomes[i].instructions != first[i].instructions)
                check.fail(i, "pass " + std::to_string(passes)
                                  + " disagrees with pass 0 on "
                                  + w.cells[i].workload);
            best[i] = std::min(best[i], pass.cellSeconds[i]);
        }
        attempted += n;
        failed += check.failedCount();
        for (std::string &m : check.messages)
            if (messages.size() < 8)
                messages.push_back(std::move(m));
        ++passes;

        // Start another pass only if it should end within --seconds.
        const double elapsed = since(start);
        if (elapsed > hardStopSeconds
            || (passes >= minPasses
                && elapsed + elapsed / passes > opt.seconds))
            break;
    }

    std::vector<double> setup_runs = opt.setupRuns;
    if (setup_runs.empty())
        setup_runs.push_back(setup_time);
    MetricSet m;
    addHostTimes(m, w, first, best);
    m.add("setup_s", median(setup_runs), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    const std::uint64_t digest = simDigest(w.cells, first);
    std::printf("# workload %s seed %" PRIu64 ": %zu cells/pass, %u "
                "passes of one-cell engine batches, %u client "
                "thread(s), cache %s\n",
                w.name.c_str(), opt.seed, n, passes, w.workers,
                w.useCache ? "fresh per pass" : "off");
    std::printf("# pass wall times (s):");
    for (double t : pass_walls)
        std::printf(" %.3f", t);
    std::printf("\n# core.sim_digest %016" PRIx64 " (value %" PRIu64 ")\n",
                digest, digestValue(digest));
    std::printf("# fail_ratio %.6g (%zu of %zu cells)\n",
                attempted ? static_cast<double>(failed)
                                / static_cast<double>(attempted)
                          : 0.0,
                failed, attempted);
    std::printf("# set-up of this process %.6f s\n", setup_time);
    printFailures(messages);
    m.print(stdout);
    printResult(failed == 0, attempted, failed, m);
    return failed == 0 ? 0 : 1;
}

// --- --trace 1 ---------------------------------------------------------

/** Spans of all tracers, grouped for the per-layer metrics. */
struct SpanIndex
{
    /** Durations by span name. */
    std::map<std::string, std::vector<double>> byName;
    /** Per cell: its cell-span duration, the time its direct children
     *  cover, and the time inside Core::run. */
    std::vector<double> cellSeconds, childSeconds, runSeconds;

    SpanIndex(const std::vector<Tracer> &tracers, std::size_t cells)
        : cellSeconds(cells, 0), childSeconds(cells, 0),
          runSeconds(cells, 0)
    {
        for (const Tracer &t : tracers) {
            for (const SpanRecord &s : t.spans) {
                const double d = s.end - s.start;
                const std::string name = s.name;
                byName[name].push_back(d);
                if (s.parent < 0)
                    cellSeconds[s.cell] += d;
                else if (t.spans[static_cast<std::size_t>(s.parent)]
                             .parent
                         < 0)
                    childSeconds[s.cell] += d;
                if (name == "core.warmup" || name == "core.measure"
                    || name == "core.run")
                    runSeconds[s.cell] += d;
            }
        }
    }

    double
    medianOf(const std::string &name) const
    {
        auto it = byName.find(name);
        return it == byName.end() ? 0.0 : median(it->second);
    }

    double
    sumOf(const std::string &name) const
    {
        auto it = byName.find(name);
        double sum = 0;
        if (it != byName.end())
            for (double d : it->second)
                sum += d;
        return sum;
    }
};

void
writeSpans(const std::string &path, const std::vector<Tracer> &tracers)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    for (const Tracer &t : tracers)
        for (const SpanRecord &s : t.spans)
            std::fprintf(f,
                         "{\"cell\": %zu, \"name\": \"%s\", \"start_us\": "
                         "%.3f, \"dur_us\": %.3f, \"parent\": %d}\n",
                         s.cell, s.name, s.start * 1e6,
                         (s.end - s.start) * 1e6, s.parent);
    std::fclose(f);
}

/** Geometric-mean IPC ratio of @p scheme against Baseline over window
 *  cells paired by (benchmark, core, mitigation). */
double
normIpc(const std::vector<RunSpec> &cells,
        const std::vector<RunOutcome> &outcomes, sb::Scheme scheme)
{
    std::map<std::string, double> base;
    auto key = [](const RunSpec &s) {
        return s.workload + "|" + s.core.name + "|"
               + s.mitigation.canonical();
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cellKind(cells[i]) == CellKind::Window
            && cells[i].scheme.scheme == sb::Scheme::Baseline)
            base[key(cells[i])] = outcomes[i].ipc;
    double log_sum = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cellKind(cells[i]) != CellKind::Window
            || cells[i].scheme.scheme != scheme)
            continue;
        auto it = base.find(key(cells[i]));
        if (it == base.end() || it->second <= 0 || outcomes[i].ipc <= 0)
            continue;
        log_sum += std::log(outcomes[i].ipc / it->second);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

/**
 * Whether a server-mix cell's cross-tenant verdict breaks the
 * multi_tenant scenario's documented matrix: Baseline (no contract)
 * must leak, a scheme with a dataflow or constant-time contract must
 * be closed, and a sandboxing-only scheme (DoM) may go either way.
 */
bool
crossTenantVerdictWrong(const RunOutcome &o)
{
    sb::SchemeConfig config;
    config.scheme = o.scheme;
    const sb::SecurityContract contract = sb::makeScheme(config)->contract();
    const bool leaked = o.stat("mt_cross_viol") != 0;
    switch (contract.policy) {
      case sb::ContractPolicy::None: return !leaked;
      case sb::ContractPolicy::Sandboxing: return false;
      default: return leaked;
    }
}

int
runTraced(const Options &opt, Prepared prep, double setup_time)
{
    const Workload &w = prep.workload;
    const std::size_t n = w.cells.size();
    prep.engines.clear();

    // The pass as one untraced ExperimentEngine::run batch on an engine
    // with the workload's workers and cache: the reference outcomes.
    std::vector<RunOutcome> ref;
    double ref_wall = 0;
    sb::EngineStats ref_stats;
    {
        PassEngine engine(w, w.workers, opt.runDir + "/cache-ref");
        const auto t0 = Clock::now();
        ref = engine.engine->run(w.cells);
        ref_wall = since(t0);
        ref_stats = engine.engine->stats();
    }
    CheckResult check = checkPass(w, ref);

    // Coverage cells through the engine, for their reference outcomes.
    const std::vector<RunSpec> coverage = coverageCells(w);
    std::vector<RunSpec> cells = w.cells;
    cells.insert(cells.end(), coverage.begin(), coverage.end());
    std::vector<RunOutcome> outcomes = ref;
    {
        sb::ExperimentEngine::Options o;
        o.jobs = 1;
        sb::ExperimentEngine engine(o);
        const std::vector<RunOutcome> cov = engine.run(coverage);
        outcomes.insert(outcomes.end(), cov.begin(), cov.end());
    }
    std::vector<bool> bad = check.failed;
    bad.resize(cells.size(), false);
    std::vector<std::string> messages = check.messages;
    std::mutex fail_mutex; // fail() is also called from worker threads.
    auto fail = [&](std::size_t i, const std::string &msg) {
        std::lock_guard<std::mutex> lock(fail_mutex);
        bad[i] = true;
        if (messages.size() < 8)
            messages.push_back(msg);
    };
    for (std::size_t i = n; i < cells.size(); ++i) {
        if (sb::outcomeIsCacheable(outcomes[i]) == false
            || outcomes[i].stat("fuzz_watchdog") != 0)
            fail(i, "watchdog trip in coverage cell " + cells[i].workload);
        if (cellKind(cells[i]) == CellKind::Mt
            && crossTenantVerdictWrong(outcomes[i]))
            fail(i, std::string("cross-tenant verdict of ")
                        + sb::schemeName(cells[i].scheme.scheme) + " on "
                        + cells[i].core.name + " breaks the documented "
                        + "matrix: "
                        + std::to_string(outcomes[i].stat("mt_cross_viol"))
                        + " violations");
    }

    // Each pass cell runs untraced (runOne) and traced (its replica)
    // back to back on the workload's worker threads, in alternating
    // order, so both see the same host conditions; the coverage cells
    // are replayed on one more thread.
    const auto epoch = Clock::now();
    std::vector<Tracer> tracers(w.workers + 1, Tracer(epoch));
    std::vector<ReplicaResult> replicas(cells.size());
    std::vector<double> untraced_s(n), traced_s(n);
    auto replay = [&](unsigned tracer, std::size_t i) {
        Tracer &t = tracers[tracer];
        setThreadTracer(&t);
        t.cell = i;
        const auto c0 = Clock::now();
        replicas[i] = replayCell(cells[i]);
        setThreadTracer(nullptr);
        return since(c0);
    };
    sb::RunHooks hooks;
    hooks.interruptible = true;
    onClientThreads(n, w.workers, [&](unsigned worker, std::size_t i) {
        auto untraced = [&] {
            const auto c0 = Clock::now();
            const RunOutcome o = sb::ExperimentRunner::runOne(cells[i], hooks);
            untraced_s[i] = since(c0);
            if (o.cycles != outcomes[i].cycles
                || o.instructions != outcomes[i].instructions)
                fail(i, "runOne disagrees with the engine on "
                            + cells[i].workload);
        };
        if (i % 2)
            untraced();
        traced_s[i] = replay(worker, i);
        if (i % 2 == 0)
            untraced();
    });
    onClientThreads(coverage.size(), 1, [&](unsigned, std::size_t j) {
        replay(w.workers, n + j);
    });
    double untraced_sum = 0, traced_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        untraced_sum += untraced_s[i];
        traced_sum += traced_s[i];
    }

    for (std::size_t i = 0; i < cells.size(); ++i)
        if (replicas[i].cycles != outcomes[i].cycles
            || replicas[i].instructions != outcomes[i].instructions)
            fail(i, "replica of " + cells[i].workload + " / "
                        + sb::schemeName(cells[i].scheme.scheme)
                        + " differs from the engine: cycles "
                        + std::to_string(replicas[i].cycles) + " vs "
                        + std::to_string(outcomes[i].cycles)
                        + ", instructions "
                        + std::to_string(replicas[i].instructions)
                        + " vs " + std::to_string(outcomes[i].instructions));

    // Harness stages outside the cell: specKey, cache store and warm
    // lookup, JSON round trip.
    std::vector<double> speckey_us, store_us, lookup_us, json_us;
    std::vector<std::string> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c0 = Clock::now();
        keys[i] = w.cells[i].specKey();
        speckey_us.push_back(since(c0) * 1e6);
    }
    const std::string cache_dir = opt.runDir + "/cache-trace";
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
    {
        sb::ResultCache cache(cache_dir);
        for (std::size_t i = 0; i < n; ++i) {
            const auto c0 = Clock::now();
            cache.store(keys[i], ref[i]);
            store_us.push_back(since(c0) * 1e6);
        }
    }
    {
        sb::ResultCache warm(cache_dir);
        for (std::size_t i = 0; i < n; ++i) {
            RunOutcome back;
            const auto c0 = Clock::now();
            const bool hit = warm.lookup(keys[i], back);
            lookup_us.push_back(since(c0) * 1e6);
            if (!hit || back.cycles != ref[i].cycles)
                fail(i, "result cache lost " + w.cells[i].workload);
        }
    }
    fs::remove_all(cache_dir, ec);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c0 = Clock::now();
        const std::string text = sb::toJson(ref[i]).dump();
        sb::Json parsed;
        RunOutcome back;
        const bool ok = sb::Json::parse(text, parsed)
                        && sb::outcomeFromJson(parsed, back);
        json_us.push_back(since(c0) * 1e6);
        if (!ok || back.cycles != ref[i].cycles
            || back.stats != ref[i].stats)
            fail(i, "JSON round trip changed " + w.cells[i].workload);
    }

    const SpanIndex spans(tracers, cells.size());
    const std::string spans_path = opt.workDir + "/spans-" + w.name + "-"
                                   + std::to_string(opt.seed) + ".jsonl";
    writeSpans(spans_path, tracers);

    // Host ns per simulated cycle inside Core::run, by width and scheme.
    std::map<std::string, std::vector<double>> by_width, by_scheme;
    std::vector<double> unattributed;
    std::map<std::string, std::vector<double>> cell_ms;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double cycles = static_cast<double>(replicas[i].cellCycles);
        if (cycles > 0 && spans.runSeconds[i] > 0) {
            const double ns = spans.runSeconds[i] * 1e9 / cycles;
            by_width[widthClass(cells[i].core)].push_back(ns);
            by_scheme[schemeSlug(cells[i].scheme.scheme)].push_back(ns);
        }
        const double cell = spans.cellSeconds[i];
        if (cell > 0)
            unattributed.push_back((cell - spans.childSeconds[i]) / cell);
        cell_ms[cellKindName(cellKind(cells[i]))].push_back(cell * 1e3);
    }

    std::map<std::string, std::uint64_t> sum;
    for (const ReplicaResult &r : replicas) {
        for (const auto &[name, value] : r.counters)
            sum[name] = name == "slab_high_water"
                            ? std::max(sum[name], value)
                            : sum[name] + value;
        sum["cell_cycles"] += r.cellCycles;
        sum["cell_instructions"] += r.cellInstructions;
    }
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };

    std::size_t failed = 0;
    for (bool b : bad)
        failed += b ? 1 : 0;

    MetricSet m;
    m.add("trace.build_ms", spans.medianOf("trace.build") * 1e3, "ms");
    m.add("isa.generate_ms", spans.medianOf("isa.generate") * 1e3, "ms");
    m.add("isa.transform_ms", spans.medianOf("isa.transform") * 1e3,
          "ms");
    m.add("core.construct_ms", spans.medianOf("core.construct") * 1e3,
          "ms");
    m.add("core.warmup_s", spans.sumOf("core.warmup"), "s");
    m.add("core.measure_s", spans.sumOf("core.measure"), "s");
    m.add("core.run_s",
          spans.sumOf("core.warmup") + spans.sumOf("core.measure")
              + spans.sumOf("core.run"),
          "s");
    for (const char *width : {"mega", "medium"})
        m.add(std::string("core.host_ns_per_cycle.") + width,
              median(by_width[width]), "ns");
    for (sb::Scheme scheme : sb::allSchemes())
        m.add("secure.host_ns_per_cycle." + schemeSlug(scheme),
              median(by_scheme[schemeSlug(scheme)]), "ns");
    for (CellKind kind : {CellKind::Window, CellKind::Fuzz,
                          CellKind::Gadget, CellKind::Mt})
        m.add(std::string("harness.cell_ms.") + cellKindName(kind),
              median(cell_ms[cellKindName(kind)]), "ms");
    m.add("harness.engine_overhead_s",
          ref_wall - untraced_sum / w.workers, "s");
    m.add("harness.speckey_us", median(speckey_us), "us");
    m.add("harness.cache_store_us", median(store_us), "us");
    m.add("harness.cache_lookup_us", median(lookup_us), "us");
    m.add("harness.json_roundtrip_us", median(json_us), "us");
    m.add("harness.harvest_us", spans.medianOf("harness.harvest") * 1e6,
          "us");
    m.add("harness.fold_ms", check.foldSeconds * 1e3, "ms");
    m.add("bench.trace_overhead_s", (traced_sum - untraced_sum) / w.workers,
          "s");
    m.add("bench.unattributed_share", median(unattributed), "ratio");
    m.add("fail_ratio", ratio(failed, cells.size()), "ratio");

    m.count("core.cycles", sum["cell_cycles"]);
    m.count("core.instructions", sum["cell_instructions"]);
    m.count("core.sim_digest",
            digestValue(simDigest(w.cells, ref)));
    m.count("core.squashes", sum["squashes"]);
    m.count("core.squashed_insts", sum["squashed_insts"]);
    m.count("core.context_switches", sum["context_switches"]);
    m.add("core.decode_cache_hit_ratio",
          ratio(sum["decode_cache_hits"],
                sum["decode_cache_hits"] + sum["decode_cache_misses"]),
          "ratio");
    m.count("core.slab_high_water", sum["slab_high_water"]);
    m.count("core.iq_full_stalls", sum["iq_full_stalls"]);
    m.count("core.rob_full_stalls", sum["rob_full_stalls"]);
    m.count("core.fence_stalls", sum["fence_stalls"]);
    for (sb::Scheme scheme : sb::allSchemes())
        if (scheme != sb::Scheme::Baseline)
            m.add("secure.norm_ipc." + schemeSlug(scheme),
                  normIpc(cells, outcomes, scheme), "ratio");
    m.count("secure.select_blocks", sum["scheme_select_blocks"]);
    m.count("secure.issue_kills", sum["scheme_issue_kills"]);
    m.count("secure.deferred_broadcasts", sum["deferred_broadcasts"]);
    m.count("secure.miss_delays", sum["scheme_miss_delays"]);
    m.count("memory.load_l1_misses", sum["load_l1_misses"]);
    m.count("memory.mshr_retries", sum["mshr_retries"]);
    m.count("memory.load_forwards", sum["load_forwards"]);
    m.count("memory.mem_order_violations", sum["mem_order_violations"]);
    m.add("branch.mispredict_ratio",
          ratio(sum["branch_mispredicts"], sum["committed_branches"]),
          "ratio");
    m.add("harness.dedup_ratio", ratio(ref_stats.dedupHits, ref_stats.requested),
          "ratio");
    m.add("harness.cache_hit_ratio", ratio(ref_stats.cacheHits, ref_stats.requested),
          "ratio");

    std::printf("# workload %s seed %" PRIu64 " traced: %zu pass cells + "
                "%zu coverage cells, %u worker(s)\n",
                w.name.c_str(), opt.seed, n, coverage.size(), w.workers);
    std::printf("# engine batch %.6f s; cell time untraced %.6f s, traced "
                "%.6f s; set-up %.6f s\n# spans: %s\n",
                ref_wall, untraced_sum, traced_sum, setup_time,
                spans_path.c_str());
    printFailures(messages);
    m.print(stdout);
    printResult(failed == 0, cells.size(), failed, m);
    return failed == 0 ? 0 : 1;
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto process_start = Clock::now();

    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload perf-window|verify-cells "
                     "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
                     argv[0]);
        return 2;
    }
    printProvenance();
    const std::string why = unmeasurableBuild();
    if (!why.empty()) {
        std::fprintf(stderr, "sbbench: refusing to report timings: %s\n",
                     why.c_str());
        return 3;
    }
    std::error_code ec;
    fs::create_directories(opt.workDir, ec);
    opt.workDir = fs::absolute(opt.workDir, ec).string();
    opt.runDir = opt.workDir + "/run-" + std::to_string(::getpid());

    // Set-up, timed from entering main(): the cold start a run pays.
    Prepared prep = setUp(opt, opt.runDir + "/cache-0");
    const double setup_time = since(process_start);

    int rc = 0;
    if (opt.setupOnly) {
        std::printf("setup_s %.9f\n", setup_time);
        prep = Prepared{};
        fs::remove_all(opt.runDir, ec);
        return 0;
    }
    try {
        rc = opt.trace ? runTraced(opt, std::move(prep), setup_time)
                       : runTimed(opt, std::move(prep), setup_time);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sbbench: %s\n", e.what());
        rc = 1;
    }
    fs::remove_all(opt.runDir, ec);
    return rc;
}
