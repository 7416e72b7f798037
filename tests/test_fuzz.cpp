/**
 * @file
 * Differential fuzzing with the structured generator
 * (src/isa/generator.hh) through the conformance oracle
 * (src/harness/conformance.hh): generated programs must produce
 * bit-identical architectural state under every secure scheme, the
 * two-taint store ablation, and narrow and wide configurations, with
 * clean security obligations and no simulator panics.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/core.hh"
#include "harness/conformance.hh"
#include "isa/generator.hh"
#include "secure/factory.hh"

namespace
{

/** One fuzz cell of @p gen's program (invariants and contract shadow
 *  forced on). */
sb::ConformanceCell
runCell(const sb::GeneratorParams &gen, const sb::CoreConfig &core,
        const sb::SchemeConfig &scfg)
{
    sb::RunSpec spec;
    spec.core = core;
    spec.scheme = scfg;
    spec.workload =
        sb::fuzzWorkloadName(gen.profile, gen.seed, gen.outerIterations);
    spec.maxCycles = 4'000'000;
    return sb::conformanceCell(sb::ExperimentRunner::runOne(spec));
}

// Every profile, several seeds: the full roster, the two-taint
// ablation, and narrow vs wide cores against the oracle.
struct StructuredSweep : ::testing::TestWithParam<int>
{
};

TEST_P(StructuredSweep, EverySchemeMatchesBaseline)
{
    const auto profiles = sb::allOpMixProfiles();
    sb::FuzzParams params;
    params.baseSeed = 5000 + GetParam();
    params.programs = 1;
    params.profiles = {profiles[GetParam() % profiles.size()]};
    const auto specs = sb::fuzzSpecs(params);
    std::vector<sb::RunOutcome> outcomes;
    for (const sb::RunSpec &spec : specs)
        outcomes.push_back(sb::ExperimentRunner::runOne(spec));
    const sb::FuzzReport report = sb::foldFuzzOutcomes(params, outcomes);
    EXPECT_TRUE(report.ok())
        << (report.failures.empty()
                ? "no cells"
                : report.failures[0].kind + ": "
                      + report.failures[0].detail);
}

TEST_P(StructuredSweep, TwoTaintStoresMatchBaseline)
{
    sb::GeneratorParams gen;
    gen.seed = 2000 + GetParam();
    gen.profile = sb::OpMixProfile::MemHeavy; // Stress partial issue.

    const auto base =
        runCell(gen, sb::CoreConfig::mega(), sb::SchemeConfig{});
    ASSERT_TRUE(base.halted) << "seed " << gen.seed;

    sb::SchemeConfig two_taint;
    two_taint.scheme = sb::Scheme::SttRename;
    two_taint.twoTaintStores = true;
    const auto got = runCell(gen, sb::CoreConfig::mega(), two_taint);
    EXPECT_TRUE(got.halted) << "seed " << gen.seed;
    EXPECT_TRUE(got.architecturallyEqual(base)) << "seed " << gen.seed;
    EXPECT_EQ(got.transmitViolations, 0u) << "seed " << gen.seed;
}

TEST_P(StructuredSweep, NarrowConfigMatchesWide)
{
    // Architectural results are configuration-independent.
    const auto profiles = sb::allOpMixProfiles();
    sb::GeneratorParams gen;
    gen.seed = 3000 + GetParam();
    gen.profile = profiles[GetParam() % profiles.size()];

    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttIssue;
    const auto wide = runCell(gen, sb::CoreConfig::mega(), scfg);
    const auto narrow = runCell(gen, sb::CoreConfig::small(), scfg);
    ASSERT_TRUE(wide.halted && narrow.halted) << "seed " << gen.seed;
    EXPECT_TRUE(wide.architecturallyEqual(narrow)) << "seed " << gen.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuredSweep,
                         ::testing::Range(0, 8));

TEST(StructuredGenerator, DeterministicForSeedAndProfile)
{
    sb::GeneratorParams params;
    params.seed = 424;
    params.profile = sb::OpMixProfile::BranchHeavy;
    const auto a = sb::generateProgram(params);
    const auto b = sb::generateProgram(params);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.code[i].disassemble(), b.code[i].disassemble());
    EXPECT_EQ(a.memory.fingerprint(), b.memory.fingerprint());
}

TEST(StructuredGenerator, ProfilesShapeTheOpMix)
{
    auto density = [](sb::OpMixProfile profile, auto pred) {
        sb::GeneratorParams params;
        params.seed = 9;
        params.profile = profile;
        const auto program = sb::generateProgram(params);
        std::size_t hits = 0;
        for (const auto &uop : program.code)
            hits += pred(uop) ? 1 : 0;
        return static_cast<double>(hits)
               / static_cast<double>(program.size());
    };
    auto is_mem = [](const sb::MicroOp &u) {
        return u.isLoad() || u.isStore();
    };
    auto is_branch = [](const sb::MicroOp &u) { return u.isBranch(); };
    EXPECT_GT(density(sb::OpMixProfile::MemHeavy, is_mem),
              density(sb::OpMixProfile::AluHeavy, is_mem));
    EXPECT_GT(density(sb::OpMixProfile::BranchHeavy, is_branch),
              density(sb::OpMixProfile::MemHeavy, is_branch));
}

TEST(StructuredGenerator, EveryProfileTerminatesOnEveryPreset)
{
    for (sb::OpMixProfile profile : sb::allOpMixProfiles()) {
        sb::GeneratorParams gen;
        gen.seed = 77;
        gen.profile = profile;
        const sb::Program program = sb::generateProgram(gen);
        for (const auto &core_cfg :
             {sb::CoreConfig::small(), sb::CoreConfig::mega()}) {
            sb::SchemeConfig scfg;
            scfg.scheme = sb::Scheme::NdaStrict;
            sb::Core core(core_cfg, scfg, sb::makeScheme(scfg),
                          program);
            const auto r = core.run(10'000'000, 10'000'000);
            EXPECT_TRUE(r.halted)
                << sb::opMixProfileName(profile) << " on "
                << core_cfg.name;
        }
    }
}

} // anonymous namespace
