/**
 * @file
 * The differential conformance subsystem's own regression net:
 * committed corpus seeds replay under the full scheme roster, the
 * oracle and repro plumbing are exercised against injected faults
 * (a deadlocking scheme, doctored outcomes), the in-core invariant
 * checkers are unit-tested, specKey stability is pinned by golden
 * hashes, and the result cache must shed damaged JSONL lines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/number.hh"
#include "common/roster.hh"
#include "core/core.hh"
#include "core/invariants.hh"
#include "harness/conformance.hh"
#include "harness/engine.hh"
#include "harness/result_cache.hh"
#include "harness/scenario.hh"
#include "harness/verify.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"

#ifndef SB_CORPUS_DIR
#error "SB_CORPUS_DIR must point at tests/corpus"
#endif

namespace
{

// ---------------------------------------------------------------------
// Corpus replay
// ---------------------------------------------------------------------

struct CorpusEntry
{
    std::string file;
    std::uint64_t seed = 0;
    sb::OpMixProfile profile = sb::OpMixProfile::Mixed;
    unsigned iters = 32;
};

std::vector<CorpusEntry>
loadCorpus()
{
    std::vector<CorpusEntry> entries;
    std::vector<std::filesystem::path> files;
    for (const auto &dirent :
         std::filesystem::directory_iterator(SB_CORPUS_DIR)) {
        if (dirent.path().extension() == ".seed")
            files.push_back(dirent.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        CorpusEntry entry;
        entry.file = path.filename().string();
        std::ifstream in(path);
        std::string line;
        bool have_seed = false;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const auto eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 1);
            if (key == "seed") {
                EXPECT_TRUE(sb::parseUnsigned(
                    value, entry.seed,
                    std::numeric_limits<std::uint64_t>::max(),
                    sb::Radix::DecimalOrHex))
                    << entry.file << ": bad seed '" << value << "'";
                have_seed = true;
            } else if (key == "profile") {
                EXPECT_TRUE(sb::fromName(sb::allOpMixProfiles(),
                                         sb::opMixProfileName, value,
                                         entry.profile))
                    << entry.file << ": bad profile '" << value << "'";
            } else if (key == "iters") {
                std::uint64_t iters = 0;
                EXPECT_TRUE(sb::parseUnsigned(
                    value, iters, std::numeric_limits<unsigned>::max()))
                    << entry.file << ": bad iters '" << value << "'";
                entry.iters = static_cast<unsigned>(iters);
            } else {
                ADD_FAILURE() << entry.file << ": unknown key '" << key
                              << "'";
            }
        }
        EXPECT_TRUE(have_seed) << entry.file << ": missing seed=";
        entries.push_back(std::move(entry));
    }
    return entries;
}

TEST(Corpus, ReplaysCleanUnderEveryScheme)
{
    const auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 8u)
        << "committed corpus went missing from " << SB_CORPUS_DIR;

    for (const CorpusEntry &entry : corpus) {
        sb::FuzzParams params;
        params.baseSeed = entry.seed;
        params.programs = 1;
        params.profiles = {entry.profile};
        params.outerIterations = entry.iters;
        const auto specs = sb::fuzzSpecs(params);
        std::vector<sb::RunOutcome> outcomes;
        for (const sb::RunSpec &spec : specs)
            outcomes.push_back(sb::ExperimentRunner::runOne(spec));
        const sb::FuzzReport report =
            sb::foldFuzzOutcomes(params, outcomes);
        EXPECT_TRUE(report.ok()) << entry.file << ": "
                                 << (report.failures.empty()
                                         ? "no cells ran"
                                         : report.failures[0].kind + ": "
                                               + report.failures[0]
                                                     .detail);
    }
}

// ---------------------------------------------------------------------
// Oracle catches injected faults, with a replayable repro
// ---------------------------------------------------------------------

/** A scheme broken on purpose: it vetoes every select forever, so the
 *  pipeline never makes progress past the first real instruction. */
struct DeadlockScheme : sb::SecureScheme
{
    const char *name() const override { return "Deadlock"; }
    bool selectVeto(const sb::DynInst &, bool) override { return true; }
};

TEST(InjectedFault, DeadlockSchemeTripsTheSoftWatchdog)
{
    // Reported as Baseline; the scheme is ours.
    sb::RunSpec spec;
    spec.workload = sb::fuzzWorkloadName(sb::OpMixProfile::Mixed, 7, 32);
    spec.maxCycles = 4'000'000;
    const sb::RunOutcome out = sb::ExperimentRunner::runOne(
        spec, std::make_unique<DeadlockScheme>());
    const sb::ConformanceCell cell = sb::conformanceCell(out);
    EXPECT_TRUE(cell.watchdogTripped);
    EXPECT_FALSE(cell.halted);
    // A deadlock is the oracle's verdict, not a supervision artifact:
    // it stays cacheable so the failing seed replays from the cache.
    EXPECT_TRUE(sb::outcomeIsCacheable(out));
}

TEST(InjectedFault, FoldReportsDivergenceWithRepro)
{
    sb::FuzzParams params;
    params.baseSeed = 31337;
    params.programs = 1;
    params.profiles = {sb::OpMixProfile::MemHeavy};
    const auto specs = sb::fuzzSpecs(params);
    std::vector<sb::RunOutcome> outcomes;
    for (const sb::RunSpec &spec : specs)
        outcomes.push_back(sb::ExperimentRunner::runOne(spec));
    ASSERT_TRUE(sb::foldFuzzOutcomes(params, outcomes).ok());

    // Corrupt one secure scheme's committed-register digest, as a
    // scheme that corrupted architectural state would.
    outcomes.back().stats["fuzz_reg_hash"] ^= 1;
    const sb::FuzzReport report =
        sb::foldFuzzOutcomes(params, outcomes);
    ASSERT_EQ(report.failures.size(), 1u);
    const sb::FuzzFailure &f = report.failures[0];
    EXPECT_EQ(f.kind, "divergence");
    EXPECT_EQ(f.seed, 31337u);
    EXPECT_EQ(f.profile, sb::OpMixProfile::MemHeavy);
    const std::string repro = f.repro(report.coreName);
    EXPECT_NE(repro.find("--seed 31337"), std::string::npos) << repro;
    EXPECT_NE(repro.find("--profile mem"), std::string::npos) << repro;
    EXPECT_FALSE(report.ok());
}

TEST(InjectedFault, FoldReportsDeadlockAndInvariantTrips)
{
    sb::FuzzParams params;
    params.baseSeed = 424242;
    params.programs = 1;
    const auto specs = sb::fuzzSpecs(params);
    std::vector<sb::RunOutcome> outcomes;
    for (const sb::RunSpec &spec : specs)
        outcomes.push_back(sb::ExperimentRunner::runOne(spec));

    outcomes[1].stats["fuzz_watchdog"] = 1;
    outcomes[1].stats["fuzz_halted"] = 0;
    outcomes[2].stats["fuzz_invariant_violations"] = 3;
    const sb::FuzzReport report =
        sb::foldFuzzOutcomes(params, outcomes);
    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].kind, "deadlock");
    EXPECT_EQ(report.failures[1].kind, "invariant");
}

TEST(InjectedFault, ScenarioReportsReturnTheirPrintedVerdict)
{
    // sbsim's exit code is the AND of the printed verdicts, so each
    // report must return false exactly when it prints a failure.
    const auto &registry = sb::ScenarioRegistry::instance();
    const sb::Scenario *conformance = registry.find("conformance");
    const sb::Scenario *contract = registry.find("contract_check");
    ASSERT_TRUE(conformance && contract);
    sb::ExperimentEngine::Options opt;
    opt.jobs = 2;
    sb::ExperimentEngine engine(opt);
    const std::vector<sb::RunOutcome> outcomes =
        engine.run(conformance->specs());
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(conformance->report(outcomes, sink));
    EXPECT_TRUE(contract->report(outcomes, sink));

    // A corrupted register digest fails conformance, not the contract
    // lens (which prints only contract failures).
    std::vector<sb::RunOutcome> diverged = outcomes;
    diverged.back().stats["fuzz_reg_hash"] ^= 1;
    EXPECT_FALSE(conformance->report(diverged, sink));
    EXPECT_TRUE(contract->report(diverged, sink));

    // A shadow violation under a transmitter-safe contract fails both.
    const std::vector<sb::SchemeConfig> schemes = sb::allSchemeConfigs();
    std::size_t stt = schemes.size();
    for (std::size_t i = 0; i < schemes.size(); ++i)
        if (sb::makeScheme(schemes[i])->contract().policy
            == sb::ContractPolicy::TransmitterSafe)
            stt = std::min(stt, i);
    ASSERT_LT(stt, schemes.size());
    std::vector<sb::RunOutcome> leaked = outcomes;
    leaked[stt].stats["fuzz_sandbox_viol"] = 1;
    EXPECT_FALSE(conformance->report(leaked, sink));
    EXPECT_FALSE(contract->report(leaked, sink));
    std::fclose(sink);
}

// ---------------------------------------------------------------------
// Fuzz workload encoding
// ---------------------------------------------------------------------

TEST(FuzzWorkload, RoundTripsAndRejectsMalformed)
{
    const std::string name = sb::fuzzWorkloadName(
        sb::OpMixProfile::BranchHeavy, 0xdeadbeefULL, 48);
    EXPECT_TRUE(sb::isFuzzWorkload(name));
    sb::OpMixProfile profile;
    std::uint64_t seed = 0;
    unsigned iters = 0;
    ASSERT_TRUE(sb::parseFuzzWorkload(name, profile, seed, iters));
    EXPECT_EQ(profile, sb::OpMixProfile::BranchHeavy);
    EXPECT_EQ(seed, 0xdeadbeefULL);
    EXPECT_EQ(iters, 48u);

    // Only the spelling fuzzWorkloadName() writes: no sign, no
    // padding, no trailing bytes, no wrapped values.
    for (const char *bad :
         {"fuzz:", "fuzz:nope:seed=1:iters=2", "fuzz:mixed:seed=1",
          "fuzz:mixed:seed=1:iters=0", "541.leela", "gadget:x",
          "fuzz:mixed:seed=1:iters=-1", "fuzz:mixed:seed=1:iters=32junk",
          "fuzz:mixed:seed=+1:iters=32", "fuzz:mixed:seed= 1:iters=32",
          "fuzz:mixed:seed=01:iters=32",
          "fuzz:mixed:seed=1:iters=4294967296"}) {
        EXPECT_FALSE(sb::parseFuzzWorkload(bad, profile, seed, iters))
            << bad;
    }
}

// ---------------------------------------------------------------------
// In-core invariant checkers
// ---------------------------------------------------------------------

TEST(Invariants, FlagsCommitOrderViolation)
{
    sb::InvariantChecker inv;
    inv.setActive(true);
    sb::DynInst a;
    a.seq = 5;
    a.completed = true;
    inv.onCommit(a);
    EXPECT_EQ(inv.violations(), 0u);
    sb::DynInst b;
    b.seq = 4; // Out of order.
    b.completed = true;
    inv.onCommit(b);
    EXPECT_EQ(inv.violations(), 1u);
    EXPECT_NE(inv.firstViolation().find("commit order"),
              std::string::npos);
}

TEST(Invariants, FlagsIncompleteAndSquashedCommits)
{
    sb::InvariantChecker inv;
    inv.setActive(true);
    sb::DynInst a;
    a.seq = 1; // Not completed.
    inv.onCommit(a);
    EXPECT_EQ(inv.violations(), 1u);
    sb::DynInst b;
    b.seq = 2;
    b.completed = true;
    b.squashed = true;
    inv.onCommit(b);
    EXPECT_EQ(inv.violations(), 2u);
}

TEST(Invariants, FlagsVisibilityPointRegression)
{
    sb::InvariantChecker inv;
    inv.setActive(true);
    inv.onVisibilityPoint(10);
    inv.onVisibilityPoint(10);
    inv.onVisibilityPoint(12);
    EXPECT_EQ(inv.violations(), 0u);
    inv.onVisibilityPoint(11);
    EXPECT_EQ(inv.violations(), 1u);
}

TEST(Invariants, FlagsWakeupAndForwardingViolations)
{
    sb::InvariantChecker inv;
    inv.setActive(true);
    sb::DynInst op;
    op.seq = 9;
    inv.onIssue(op, true, true);
    EXPECT_EQ(inv.violations(), 0u);
    inv.onIssue(op, true, false); // Unbroadcast operand selected.
    EXPECT_EQ(inv.violations(), 1u);

    sb::DynInst load;
    load.seq = 20;
    load.effAddrValid = true;
    inv.onForward(load, 12);
    EXPECT_EQ(inv.violations(), 1u);
    inv.onForward(load, 20); // Forward from itself / younger.
    EXPECT_EQ(inv.violations(), 2u);
    inv.onForward(load, sb::invalidSeqNum); // No forward: fine.
    EXPECT_EQ(inv.violations(), 2u);
}

TEST(Invariants, CleanAcrossARealRunAndTimingNeutral)
{
    sb::GeneratorParams gen;
    gen.seed = 11;
    gen.profile = sb::OpMixProfile::BranchHeavy;
    const sb::Program program = sb::generateProgram(gen);

    for (const sb::SchemeConfig &scfg : sb::allSchemeConfigs()) {
        // Run once with checkers on and once off: zero violations,
        // and bit-identical timing (the checkers only observe).
        sb::Core on(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                    program);
        on.setInvariantsEnabled(true);
        const sb::RunResult ron = on.run(10'000'000, 10'000'000);
        EXPECT_EQ(on.invariants().violations(), 0u)
            << sb::schemeName(scfg.scheme) << ": "
            << on.invariants().firstViolation();

        sb::Core off(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                     program);
        off.setInvariantsEnabled(false);
        const sb::RunResult roff = off.run(10'000'000, 10'000'000);
        EXPECT_EQ(ron.cycles, roff.cycles);
        EXPECT_EQ(ron.instructions, roff.instructions);
    }
}

// ---------------------------------------------------------------------
// specKey stability (golden hashes)
// ---------------------------------------------------------------------

// Accidental drift in RunSpec::canonical()/specKey() silently retires
// every persisted CI cache cell; this golden pins the key for three
// canonical specs. An *intentional* change (schema bump, new
// canonical field) should update these goldens in the same commit.
TEST(SpecKey, GoldenStability)
{
    sb::RunSpec bench;
    ASSERT_EQ(bench.core.name, "mega");
    ASSERT_EQ(bench.scheme.scheme, sb::Scheme::Baseline);
    bench.workload = "541.leela";

    sb::RunSpec gadget;
    gadget.workload = "gadget:spectre-v1:secret=167:seed=42";
    gadget.scheme.scheme = sb::Scheme::SttRename;

    sb::RunSpec fuzz;
    fuzz.workload =
        sb::fuzzWorkloadName(sb::OpMixProfile::Mixed, 0xC0FFEE, 32);
    fuzz.scheme.scheme = sb::Scheme::DelayOnMiss;
    fuzz.maxCycles = 4'000'000;

    // Schema 5: MitigationConfig joined the canonical serialization
    // (every spec now carries "|mitigation=<name>|"). Schema 6: window
    // cells stopped harvesting the transmit/consume counts.
    EXPECT_EQ(bench.specKey(), "bd255c355cc2363a");
    EXPECT_EQ(gadget.specKey(), "6045dc58c796f46b");
    EXPECT_EQ(fuzz.specKey(), "2a8aa9460419d55b");

    // A mitigated cell must address a *different* cache cell than the
    // same spec unmitigated.
    sb::RunSpec mitigated = gadget;
    mitigated.mitigation.kind = sb::Mitigation::Slh;
    EXPECT_EQ(mitigated.specKey(), "5c8f42059057181c");
    EXPECT_NE(mitigated.specKey(), gadget.specKey());
    EXPECT_NE(mitigated.canonical().find("|mitigation=slh|"),
              std::string::npos);
}

// Every workload name the repository generates, pinned at once: one
// digest over the specKey of every cell `sbsim all` requests, the
// default fuzz campaign and each mitigation's battery. A name that
// drifts (a codec change, a new field that alters a bare name)
// retires cached cells and fails here. It simulates nothing.
TEST(SpecKey, EveryGeneratedNameIsPinned)
{
    std::uint64_t digest = sb::fnv1aBasis;
    std::size_t cells = 0;
    auto fold = [&](const std::vector<sb::RunSpec> &specs) {
        for (const sb::RunSpec &spec : specs)
            digest = sb::fnv1aString(digest, spec.specKey());
        cells += specs.size();
    };
    const auto &registry = sb::ScenarioRegistry::instance();
    for (const std::string &name : registry.names())
        fold(registry.find(name)->specs());
    EXPECT_EQ(cells, 3007u);
    fold(sb::fuzzSpecs(sb::FuzzParams{}));
    for (const sb::Mitigation m : sb::allMitigations())
        fold(sb::mitigationBatterySpecs(sb::CoreConfig::mega(),
                                        sb::allSchemeConfigs(), m));
    EXPECT_EQ(sb::hex16(digest), "a0241140b7fb8d7e") << cells << " cells";
}

// ---------------------------------------------------------------------
// Result-cache robustness
// ---------------------------------------------------------------------

TEST(ResultCacheRobustness, DamagedTailIsSkippedAndCompacted)
{
    const auto dir = std::filesystem::temp_directory_path()
                     / "sb_cache_damage";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto file = dir / "results.jsonl";

    // Two good entries via the real writer.
    sb::RunSpec spec;
    spec.workload = "541.leela";
    spec.measureInsts = 2000;
    spec.warmupInsts = 500;
    const sb::RunOutcome outcome = sb::ExperimentRunner::runOne(spec);
    {
        sb::ResultCache cache(dir.string());
        ASSERT_TRUE(cache.ok());
        cache.store("aaaa000000000001", outcome);
        cache.store("aaaa000000000002", outcome);
    }
    // Damage: editor garbage mid-file would be equally fatal, but the
    // common case is a truncated trailing line from a killed writer.
    {
        std::ofstream out(file, std::ios::app);
        out << "{\"key\": \"aaaa000000000003\", \"outcome\": {\"work";
    }

    {
        sb::ResultCache cache(dir.string());
        ASSERT_TRUE(cache.ok());
        EXPECT_EQ(cache.size(), 2u); // Damage skipped, not fatal.
        sb::RunOutcome loaded;
        EXPECT_TRUE(cache.lookup("aaaa000000000001", loaded));
        EXPECT_EQ(loaded.cycles, outcome.cycles);
        EXPECT_FALSE(cache.lookup("aaaa000000000003", loaded));
        // Appending after damage still lands on a clean line.
        cache.store("aaaa000000000004", outcome);
    }

    // The damaged line was compacted away on load: every line in the
    // rewritten file parses, and the batch is fully recoverable.
    std::ifstream in(file);
    std::string line;
    unsigned lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        sb::Json parsed;
        EXPECT_TRUE(sb::Json::parse(line, parsed)) << line;
    }
    EXPECT_EQ(lines, 3u);
    {
        sb::ResultCache cache(dir.string());
        EXPECT_EQ(cache.size(), 3u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheRobustness, GarbageOnlyFileYieldsEmptyWorkingCache)
{
    const auto dir = std::filesystem::temp_directory_path()
                     / "sb_cache_garbage";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::ofstream out(dir / "results.jsonl");
        out << "complete nonsense\n\x01\x02\x03\n{\"key\": 7}\n";
    }
    sb::ResultCache cache(dir.string());
    EXPECT_TRUE(cache.ok());
    EXPECT_EQ(cache.size(), 0u);
    std::filesystem::remove_all(dir);
}

} // anonymous namespace
