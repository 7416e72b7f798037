/**
 * @file
 * Determinism / timing-parity regression.
 *
 * The cycle engine's hot paths are performance-optimized (cached stat
 * handles, a DynInst recycling pool, the indexed issue queue, and
 * timing-wheel event queues), and every such optimization must be
 * timing-neutral: it may change how fast the simulator runs, never
 * what it simulates. These goldens pin the exact cycle and
 * committed-instruction counts per scheme for fixed RunSpecs; they
 * were captured from the pre-optimization seed engine and any future
 * perf work has to keep reproducing them bit-identically.
 *
 * If a change is *meant* to alter timing semantics (a modelling fix,
 * a new microarchitectural feature), recapture the goldens in the
 * same change and say so in the commit message.
 *
 * The IdleSkip tests hold Core::run()'s idle-cycle skip to the same
 * standard: a run that skips quiet cycles must leave exactly what a
 * run stepping every cycle leaves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hh"
#include "harness/experiment.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"
#include "trace/server_mix.hh"
#include "trace/spec_suite.hh"

namespace
{

using sb::Scheme;
constexpr auto mega = &sb::CoreConfig::mega;
constexpr auto medium = &sb::CoreConfig::medium;

/** Mega with a 96-entry issue queue and 192 physical registers. No
 *  preset has more than 64 IQ entries; this one needs two wakeup-matrix
 *  words per register row. */
sb::CoreConfig
megaWideIq()
{
    sb::CoreConfig c = sb::CoreConfig::mega();
    c.name = "mega-iq96";
    c.iqEntries = 96;
    c.numPhysRegs = 192;
    return c;
}

struct Golden
{
    sb::CoreConfig (*core)();
    Scheme scheme;
    const char *workload;
    std::uint64_t cycles;
    std::uint64_t instructions;
};

// Captured on the seed engine (warmup 10000, measure 50000) and
// reproduced bit-identically by the optimized engine.
const Golden goldens[] = {
    {mega, Scheme::Baseline, "505.mcf", 207956ull, 50002ull},
    {mega, Scheme::Baseline, "541.leela", 54131ull, 50002ull},
    {mega, Scheme::Baseline, "519.lbm", 33330ull, 50000ull},
    {mega, Scheme::SttRename, "505.mcf", 227054ull, 50002ull},
    {mega, Scheme::SttRename, "541.leela", 55254ull, 50002ull},
    {mega, Scheme::SttRename, "519.lbm", 33330ull, 50000ull},
    {mega, Scheme::SttIssue, "505.mcf", 225993ull, 50002ull},
    {mega, Scheme::SttIssue, "541.leela", 55278ull, 50002ull},
    {mega, Scheme::SttIssue, "519.lbm", 33330ull, 50000ull},
    {mega, Scheme::Nda, "505.mcf", 229176ull, 50002ull},
    {mega, Scheme::Nda, "541.leela", 55865ull, 50000ull},
    {mega, Scheme::Nda, "519.lbm", 33330ull, 50000ull},
    // Captured at the introduction of the delay schemes (same window);
    // 519.lbm matching the baseline exactly is the expected signature
    // (a streaming kernel with no long shadows delays nothing).
    {mega, Scheme::DelayOnMiss, "505.mcf", 224932ull, 50002ull},
    {mega, Scheme::DelayOnMiss, "541.leela", 294305ull, 50000ull},
    {mega, Scheme::DelayOnMiss, "519.lbm", 33330ull, 50000ull},
    {mega, Scheme::DelayAll, "505.mcf", 230237ull, 50002ull},
    {mega, Scheme::DelayAll, "541.leela", 299681ull, 50000ull},
    {mega, Scheme::DelayAll, "519.lbm", 33330ull, 50000ull},
    // Captured before the idle-cycle skip in Core::run (same window):
    // NDA-Strict on mega, and the whole roster on medium.
    {mega, Scheme::NdaStrict, "505.mcf", 252996ull, 50000ull},
    {mega, Scheme::NdaStrict, "541.leela", 319722ull, 50000ull},
    {mega, Scheme::NdaStrict, "519.lbm", 33330ull, 50000ull},
    {medium, Scheme::Baseline, "505.mcf", 214387ull, 50000ull},
    {medium, Scheme::Baseline, "541.leela", 91757ull, 50000ull},
    {medium, Scheme::Baseline, "519.lbm", 42506ull, 50000ull},
    {medium, Scheme::SttRename, "505.mcf", 227053ull, 50000ull},
    {medium, Scheme::SttRename, "541.leela", 92781ull, 50000ull},
    {medium, Scheme::SttRename, "519.lbm", 42506ull, 50000ull},
    {medium, Scheme::SttIssue, "505.mcf", 226148ull, 50000ull},
    {medium, Scheme::SttIssue, "541.leela", 93218ull, 50000ull},
    {medium, Scheme::SttIssue, "519.lbm", 42506ull, 50000ull},
    {medium, Scheme::Nda, "505.mcf", 230236ull, 50000ull},
    {medium, Scheme::Nda, "541.leela", 93541ull, 50000ull},
    {medium, Scheme::Nda, "519.lbm", 42923ull, 50000ull},
    {medium, Scheme::NdaStrict, "505.mcf", 253150ull, 50000ull},
    {medium, Scheme::NdaStrict, "541.leela", 321510ull, 50000ull},
    {medium, Scheme::NdaStrict, "519.lbm", 42923ull, 50000ull},
    {medium, Scheme::DelayOnMiss, "505.mcf", 225243ull, 50000ull},
    {medium, Scheme::DelayOnMiss, "541.leela", 295190ull, 50000ull},
    {medium, Scheme::DelayOnMiss, "519.lbm", 42506ull, 50000ull},
    {medium, Scheme::DelayAll, "505.mcf", 231297ull, 50000ull},
    {medium, Scheme::DelayAll, "541.leela", 300545ull, 50000ull},
    {medium, Scheme::DelayAll, "519.lbm", 42506ull, 50000ull},
    // Captured before the issue queue's wakeup bit matrix (same
    // window), on the wide-queue Mega variant above.
    {megaWideIq, Scheme::Baseline, "505.mcf", 207956ull, 50002ull},
    {megaWideIq, Scheme::Baseline, "541.leela", 52234ull, 50002ull},
    {megaWideIq, Scheme::Baseline, "519.lbm", 33330ull, 50000ull},
    {megaWideIq, Scheme::SttIssue, "505.mcf", 225993ull, 50002ull},
    {megaWideIq, Scheme::SttIssue, "541.leela", 53535ull, 50002ull},
    {megaWideIq, Scheme::SttIssue, "519.lbm", 33330ull, 50000ull},
};

TEST(TimingParity, GoldenCycleAndInstructionCounts)
{
    for (const Golden &g : goldens) {
        sb::RunSpec spec;
        spec.core = g.core();
        spec.scheme.scheme = g.scheme;
        spec.workload = g.workload;
        spec.warmupInsts = 10000;
        spec.measureInsts = 50000;

        const sb::RunOutcome out = sb::ExperimentRunner::runOne(spec);
        const std::string row = spec.core.name + " "
                                + sb::schemeName(g.scheme) + " on "
                                + g.workload;
        EXPECT_EQ(out.cycles, g.cycles) << row;
        EXPECT_EQ(out.instructions, g.instructions) << row;
    }
}

TEST(TimingParity, RepeatedRunsAreDeterministic)
{
    sb::RunSpec spec;
    spec.core = sb::CoreConfig::mega();
    spec.scheme.scheme = sb::Scheme::SttRename;
    spec.workload = "505.mcf";
    spec.warmupInsts = 5000;
    spec.measureInsts = 20000;

    const sb::RunOutcome a = sb::ExperimentRunner::runOne(spec);
    const sb::RunOutcome b = sb::ExperimentRunner::runOne(spec);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats, b.stats);
}

// --- Idle-cycle skip ---------------------------------------------------

/** Everything a core run leaves behind that the skip must not move. */
struct RunLog
{
    /** Per run() call: its RunResult, now() and every core counter. */
    std::vector<std::string> runs;
    std::vector<sb::LoadObservation> observations;
    std::vector<std::pair<std::uint32_t, sb::Cycle>> commits;
    /** Memory fingerprint, contract-shadow counts, first violations. */
    std::string verdicts;
    std::uint64_t skipped = 0;
    sb::Cycle cycles = 0;
    /** The cycle of each stop-check poll, when a check was armed. */
    std::vector<sb::Cycle> polls;
};

/** A core that logs each run() call; @p stepped attaches a no-op
 *  trace hook, which makes run() step every cycle. With @p fire_at
 *  set it also arms a stop check that logs each poll and fires from
 *  its @p fire_at -th poll on (0: never), as a deadline does. */
class LoggedCore
{
  public:
    LoggedCore(const sb::CoreConfig &cfg, const sb::SchemeConfig &scheme,
               std::unique_ptr<sb::SecureScheme> impl,
               const sb::Program &prog, bool stepped,
               std::optional<std::size_t> fire_at = std::nullopt)
        : core(cfg, scheme,
               impl ? std::move(impl) : sb::makeScheme(scheme), prog)
    {
        core.setContractShadowEnabled(true);
        core.enableObservationTrace();
        // A stall ends the run instead of the test binary.
        core.setSoftWatchdog(100000);
        core.setCommitHook([this](const sb::DynInst &inst, sb::Cycle at) {
            log.commits.emplace_back(inst.pc, at);
        });
        if (stepped) {
            core.setTraceHook(
                [](const char *, const sb::DynInst &, sb::Cycle) {});
        }
        if (fire_at) {
            core.setStopCheck([this, n = *fire_at] {
                log.polls.push_back(core.now());
                return n != 0 && log.polls.size() >= n;
            });
        }
    }

    // The commit hook holds `this`.
    LoggedCore(const LoggedCore &) = delete;
    LoggedCore &operator=(const LoggedCore &) = delete;

    void
    run(std::uint64_t insts, std::uint64_t cycles)
    {
        const sb::RunResult r = core.run(insts, cycles);
        std::ostringstream os;
        os << "cycles=" << r.cycles << " insts=" << r.instructions
           << " halted=" << r.halted << " watchdog=" << r.watchdogTripped
           << " now=" << core.now();
        for (const auto &kv : core.stats().counters())
            os << ' ' << kv.first << '=' << kv.second.value();
        log.runs.push_back(os.str());
    }

    RunLog
    finish()
    {
        const sb::ContractShadow &cs = core.contractShadow();
        std::ostringstream os;
        os << "mem=" << core.memoryImage().fingerprint()
           << " transmit=" << cs.transmitViolations()
           << " consume=" << cs.consumeViolations()
           << " sandbox=" << cs.sandboxViolations()
           << " ct=" << cs.ctViolations()
           << " cross=" << cs.crossTenantViolations();
        for (const sb::ContractViolation *v :
             {&cs.firstSandboxViolation(), &cs.firstCtViolation(),
              &cs.firstCrossTenantViolation()})
            os << " first=" << v->cycle << '/' << v->seq << '/' << v->pc;
        log.verdicts = os.str();
        log.observations = core.observationTrace();
        log.skipped = core.skippedCycles();
        log.cycles = core.now();
        return std::move(log);
    }

    sb::Core core;
    RunLog log;
};

/** One program and the run() calls made on it. */
struct SkipCase
{
    std::string name;
    const sb::Program *program;
    std::function<void(LoggedCore &)> script;
};

RunLog
runCase(const SkipCase &c, const sb::CoreConfig &cfg,
        const sb::SchemeConfig &scheme, bool stepped,
        std::unique_ptr<sb::SecureScheme> impl = nullptr,
        std::optional<std::size_t> fire_at = std::nullopt)
{
    LoggedCore lc(cfg, scheme, std::move(impl), *c.program, stepped,
                  fire_at);
    c.script(lc);
    return lc.finish();
}

template <typename T>
std::size_t
firstMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    return std::mismatch(a.begin(), a.begin() + n, b.begin()).first
           - a.begin();
}

void
expectSameRun(const RunLog &skip, const RunLog &step,
              const std::string &what)
{
    EXPECT_EQ(skip.runs, step.runs) << what;
    EXPECT_EQ(skip.verdicts, step.verdicts) << what;
    EXPECT_TRUE(skip.observations == step.observations)
        << what << ": observations diverge at #"
        << firstMismatch(skip.observations, step.observations);
    EXPECT_TRUE(skip.commits == step.commits)
        << what << ": commit stream diverges at #"
        << firstMismatch(skip.commits, step.commits);
    EXPECT_EQ(step.skipped, 0u) << what << " (trace hook attached)";
}

/** Run to the halt, the way whole-program cells end. */
void
runToHalt(LoggedCore &lc)
{
    lc.run(100'000'000, 2'000'000);
}

/** The programs the IdleSkip tests run and the run() calls made on
 *  each; the cases point into this object. */
struct SkipCases
{
    SkipCases();
    SkipCases(const SkipCases &) = delete;
    SkipCases &operator=(const SkipCases &) = delete;

    const sb::Workload mcf = sb::SpecSuite::make("505.mcf");
    const sb::Workload leela = sb::SpecSuite::make("541.leela");
    std::vector<sb::GadgetProgram> gadgets;
    std::vector<sb::Program> generated;
    sb::ServerMixProgram server;
    std::vector<SkipCase> cases;
};

SkipCases::SkipCases()
{
    for (const sb::Workload *w : {&mcf, &leela}) {
        cases.push_back({w->name + " window", &w->program,
                         [](LoggedCore &lc) {
                             lc.run(2000, 1'000'000);
                             lc.core.stats().reset();
                             lc.run(6000, 1'000'000);
                         }});
    }
    // Cycle limits that land inside quiet stretches, across run()s.
    cases.push_back({"505.mcf cycle-limited", &mcf.program,
                     [](LoggedCore &lc) {
                         for (int i = 0; i < 4; ++i)
                             lc.run(1'000'000, 1'499);
                     }});

    // The victim rounds one commit per run() call up to the probe
    // barrier, then the probe in one call: many short run()s, across
    // which the skip's state must carry over.
    for (sb::GadgetKind kind : sb::allGadgets())
        gadgets.push_back(sb::buildGadgetProgram(kind, 0xA7, 42));
    for (std::size_t i = 0; i < gadgets.size(); ++i) {
        const sb::GadgetProgram &g = gadgets[i];
        cases.push_back(
            {std::string("gadget ") + sb::gadgetName(sb::allGadgets()[i]),
             &g.program, [&g](LoggedCore &lc) {
                 std::size_t seen = 0;
                 bool rounds_done = false;
                 while (!rounds_done && !lc.core.halted()
                        && !lc.core.watchdogTripped()) {
                     lc.run(1, 2'000'000);
                     for (; seen < lc.log.commits.size(); ++seen)
                         if (lc.log.commits[seen].first == g.barrierPc)
                             rounds_done = true;
                 }
                 runToHalt(lc);
             }});
    }

    for (sb::OpMixProfile profile : sb::allOpMixProfiles()) {
        sb::GeneratorParams params;
        params.seed = 0x5EED + static_cast<unsigned>(profile);
        params.profile = profile;
        params.outerIterations = 8;
        generated.push_back(sb::generateProgram(params));
    }
    generated.push_back(
        sb::applyMitigation(sb::Mitigation::Slh, generated.front())
            .program);
    for (const sb::Program &prog : generated)
        cases.push_back({"generated " + prog.name, &prog, runToHalt});

    sb::ServerMixParams mix;
    mix.requests = 3;
    mix.work = 8;
    server = sb::buildServerMix(mix);
    cases.push_back({"hostile server mix", &server.program, runToHalt});
}

TEST(IdleSkip, SkippedRunsEqualSteppedRuns)
{
    const SkipCases all;
    const std::vector<SkipCase> &cases = all.cases;
    for (auto make_core : {mega, medium}) {
        const sb::CoreConfig cfg = make_core();
        for (const sb::SchemeConfig &scheme : sb::allSchemeConfigs()) {
            for (const SkipCase &c : cases) {
                const std::string what = cfg.name + " "
                                         + sb::schemeName(scheme.scheme)
                                         + " " + c.name;
                const RunLog skip = runCase(c, cfg, scheme, false);
                const RunLog step = runCase(c, cfg, scheme, true);
                expectSameRun(skip, step, what);
                if (c.name == "gadget spectre-v1") {
                    // The gadget mostly waits on memory.
                    EXPECT_GT(skip.skipped * 10, skip.cycles * 8) << what;
                }
            }
        }
    }
}

/** A scheme broken on purpose: it vetoes every select forever. */
struct DeadlockScheme : sb::SecureScheme
{
    bool selectVeto(const sb::DynInst &, bool) override { return true; }
};

TEST(IdleSkip, DeadlockTripsTheWatchdogOnTheSteppedCycle)
{
    sb::GeneratorParams params;
    params.seed = 7;
    const sb::Program prog = sb::generateProgram(params);
    const SkipCase c{"deadlock", &prog, [](LoggedCore &lc) {
                         lc.run(100'000'000, 4'000'000);
                     }};
    const sb::CoreConfig cfg = sb::CoreConfig::mega();
    const RunLog skip = runCase(c, cfg, sb::SchemeConfig{}, false,
                                std::make_unique<DeadlockScheme>());
    const RunLog step = runCase(c, cfg, sb::SchemeConfig{}, true,
                                std::make_unique<DeadlockScheme>());
    expectSameRun(skip, step, c.name);
    ASSERT_NE(skip.runs.front().find("watchdog=1"), std::string::npos);
    // The stall is one quiet stretch up to the watchdog deadline.
    EXPECT_GT(skip.skipped, 99'900u);
}

/**
 * @p c under a stop check, skipped and stepped. A check that never
 * fires must not move the run, and is polled on every 4096th cycle in
 * both; one that fires at its third poll stops both on that poll's
 * cycle, for good. @p impl makes the scheme (null: the spec's).
 * Returns whether the run lasted three polls, so the check fired.
 */
bool
expectSupervisedRunsEqual(const SkipCase &c, const sb::CoreConfig &cfg,
                          const sb::SchemeConfig &scheme,
                          std::unique_ptr<sb::SecureScheme> (*impl)(),
                          const std::string &what)
{
    const RunLog plain = runCase(c, cfg, scheme, false, impl());
    const RunLog quiet_skip = runCase(c, cfg, scheme, false, impl(), 0);
    const RunLog quiet_step = runCase(c, cfg, scheme, true, impl(), 0);
    expectSameRun(plain, quiet_step, what + " never-firing check");
    expectSameRun(quiet_skip, quiet_step, what + " never-firing check");
    EXPECT_EQ(quiet_skip.polls, quiet_step.polls) << what;
    for (std::size_t i = 0; i < quiet_step.polls.size(); ++i)
        EXPECT_EQ(quiet_step.polls[i], 4096 * (i + 1)) << what;

    const RunLog fired_skip = runCase(c, cfg, scheme, false, impl(), 3);
    const RunLog fired_step = runCase(c, cfg, scheme, true, impl(), 3);
    expectSameRun(fired_skip, fired_step, what + " check firing at 3");
    const std::vector<sb::Cycle> first3(
        quiet_step.polls.begin(),
        quiet_step.polls.begin()
            + std::min<std::size_t>(3, quiet_step.polls.size()));
    EXPECT_EQ(fired_skip.polls, first3) << what;
    EXPECT_EQ(fired_step.polls, first3) << what;
    if (first3.size() < 3)
        return false;
    EXPECT_EQ(fired_skip.cycles, first3.back()) << what;
    return true;
}

TEST(IdleSkip, StopCheckPollsOnTheSteppedCycles)
{
    const SkipCases all;
    for (auto make_core : {mega, medium}) {
        const sb::CoreConfig cfg = make_core();
        for (const sb::SchemeConfig &scheme : sb::allSchemeConfigs()) {
            const std::string what =
                cfg.name + " " + sb::schemeName(scheme.scheme);
            std::size_t fired = 0;
            for (const SkipCase &c : all.cases) {
                fired += expectSupervisedRunsEqual(
                    c, cfg, scheme,
                    [] { return std::unique_ptr<sb::SecureScheme>(); },
                    what + " " + c.name);
            }
            // The gadgets and 505.mcf's window outlast three polls.
            EXPECT_GE(fired, all.gadgets.size() + 1) << what;
        }
    }

    // The stall: a check polled between the quiet stretch's skips
    // stops it long before the watchdog would.
    sb::GeneratorParams params;
    params.seed = 7;
    const sb::Program prog = sb::generateProgram(params);
    const SkipCase c{"deadlock", &prog, [](LoggedCore &lc) {
                         lc.run(100'000'000, 4'000'000);
                     }};
    EXPECT_TRUE(expectSupervisedRunsEqual(
        c, sb::CoreConfig::mega(), sb::SchemeConfig{},
        [] {
            return std::unique_ptr<sb::SecureScheme>(
                std::make_unique<DeadlockScheme>());
        },
        c.name));
}

} // anonymous namespace
