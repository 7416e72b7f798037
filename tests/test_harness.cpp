/**
 * @file
 * Harness tests: the experiment runner must be deterministic (thread-
 * count independence is the engine's, test_engine.cpp); the
 * aggregation must implement the paper's SPEC-mean method; trend fits
 * must be exact on lines.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/reporting.hh"

namespace
{

sb::RunSpec
quickSpec(const std::string &bench, sb::Scheme scheme)
{
    sb::RunSpec s;
    s.core = sb::CoreConfig::medium();
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    s.scheme = scfg;
    s.workload = bench;
    s.warmupInsts = 5000;
    s.measureInsts = 15000;
    return s;
}

TEST(Runner, SingleRunIsDeterministic)
{
    const auto a =
        sb::ExperimentRunner::runOne(quickSpec("557.xz",
                                               sb::Scheme::Baseline));
    const auto b =
        sb::ExperimentRunner::runOne(quickSpec("557.xz",
                                               sb::Scheme::Baseline));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Runner, MeasurementWindowExcludesWarmup)
{
    auto spec = quickSpec("503.bwaves", sb::Scheme::Baseline);
    const auto out = sb::ExperimentRunner::runOne(spec);
    EXPECT_NEAR(static_cast<double>(out.instructions),
                static_cast<double>(spec.measureInsts),
                spec.measureInsts * 0.01);
    EXPECT_EQ(out.stat("committed_insts"), out.instructions);
}

TEST(Aggregate, SpecMeanIsRatioOfMeans)
{
    // Paper Sec. 8.1 / [11]: mean cycles and mean instructions are
    // averaged separately; the suite IPC is their ratio.
    sb::RunOutcome a;
    a.workload = "x";
    a.coreName = "m";
    a.cycles = 100;
    a.instructions = 100; // IPC 1.0
    sb::RunOutcome b = a;
    b.workload = "y";
    b.cycles = 300;
    b.instructions = 100; // IPC 0.33
    const auto agg = sb::aggregate({a, b});
    EXPECT_NEAR(agg.meanIpc, 200.0 / 400.0, 1e-12);
    EXPECT_EQ(agg.perBench.size(), 2u);
}

TEST(Aggregate, EmptyInputYieldsZeroedAggregate)
{
    const auto agg = sb::aggregate({});
    EXPECT_EQ(agg.meanIpc, 0.0);
    EXPECT_TRUE(agg.perBench.empty());
    EXPECT_TRUE(agg.coreName.empty());
    EXPECT_EQ(agg.scheme, sb::Scheme::Baseline);
}

TEST(Aggregate, FilterOnUnknownCellIsEmptyAndAggregatable)
{
    sb::RunOutcome a;
    a.coreName = "m";
    a.scheme = sb::Scheme::Nda;
    a.cycles = 10;
    a.instructions = 5;

    const auto by_core = sb::filter({a}, "no-such-core",
                                    sb::Scheme::Nda);
    EXPECT_TRUE(by_core.empty());
    const auto by_scheme = sb::filter({a}, "m", sb::Scheme::SttIssue);
    EXPECT_TRUE(by_scheme.empty());

    // The filter -> aggregate pipeline is total: a miss aggregates to
    // the zeroed SuiteAggregate instead of dividing by zero.
    const auto agg = sb::aggregate(by_core);
    EXPECT_EQ(agg.meanIpc, 0.0);
    EXPECT_TRUE(agg.perBench.empty());
}

TEST(Aggregate, FilterSelectsMatchingCells)
{
    sb::RunOutcome a;
    a.coreName = "m";
    a.scheme = sb::Scheme::Nda;
    a.cycles = 1;
    a.instructions = 1;
    sb::RunOutcome b = a;
    b.coreName = "s";
    const auto got = sb::filter({a, b}, "m", sb::Scheme::Nda);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].coreName, "m");
}

TEST(Fit, ExactOnALine)
{
    const auto fit = sb::fitLine({1, 2, 3, 4}, {3, 5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
    EXPECT_NEAR(fit.at(10), 21.0, 1e-9);
}

TEST(Fit, HalfSlopeProjection)
{
    // Paper Table 3: extrapolate from the last point at half slope.
    const auto fit = sb::fitLine({1, 2}, {1.0, 0.8});
    EXPECT_NEAR(fit.atHalfSlope(4, 2, 0.8), 0.8 - 0.1 * 2, 1e-9);
}

TEST(SuiteSpecs, CrossProductLayout)
{
    sb::SchemeConfig base;
    sb::SchemeConfig nda;
    nda.scheme = sb::Scheme::Nda;
    const auto specs = sb::suiteSpecs(
        {sb::CoreConfig::small(), sb::CoreConfig::mega()}, {base, nda});
    EXPECT_EQ(specs.size(), 2u * 2u * 22u);
    EXPECT_EQ(specs.front().core.name, "small");
    EXPECT_EQ(specs.back().core.name, "mega");
}

TEST(Bar, ScalesAndClamps)
{
    EXPECT_EQ(sb::bar(1.0, 10).size(), 10u);
    EXPECT_EQ(sb::bar(0.5, 10).size(), 5u);
    EXPECT_LE(sb::bar(5.0, 10).size(), 13u); // Clamped.
    EXPECT_EQ(sb::bar(0.0, 10).size(), 0u);
}

} // anonymous namespace
