/**
 * @file
 * Synthesis-model tests: the timing/area/power models must reproduce
 * the paper's Figure 9 / Table 4 characteristics and extrapolate in
 * the directions the paper argues (Sec. 8.3, 8.5, 9.4).
 */

#include <gtest/gtest.h>

#include "synth/area_model.hh"
#include "synth/power_model.hh"
#include "synth/timing_model.hh"

namespace
{

using sb::CoreConfig;
using sb::Scheme;

TEST(Timing, BaselineFrequencyFallsWithWidth)
{
    double prev = 1e9;
    for (const auto &cfg : CoreConfig::boomPresets()) {
        const double f =
            sb::TimingModel::frequencyMhz(cfg, Scheme::Baseline);
        EXPECT_LT(f, prev) << cfg.name;
        prev = f;
    }
}

TEST(Timing, BaselineMatchesPaperFigure9)
{
    const double expected[] = {152.0, 126.0, 93.0, 78.0};
    const auto presets = CoreConfig::boomPresets();
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const double f =
            sb::TimingModel::frequencyMhz(presets[i], Scheme::Baseline);
        EXPECT_NEAR(f, expected[i], expected[i] * 0.06)
            << presets[i].name;
    }
}

TEST(Timing, SttRenameDegradesWithWidth)
{
    // Sec. 8.3: small impact on narrow cores, 80% at Mega.
    std::vector<double> rel;
    for (const auto &cfg : CoreConfig::boomPresets())
        rel.push_back(
            sb::TimingModel::relativeFrequency(cfg, Scheme::SttRename));
    EXPECT_GT(rel[0], 0.97);
    EXPECT_NEAR(rel[3], 0.80, 0.03);
    for (std::size_t i = 1; i < rel.size(); ++i)
        EXPECT_LE(rel[i], rel[i - 1] + 1e-9);
}

TEST(Timing, SttIssuePaysFlatCostButScalesBetter)
{
    const auto presets = CoreConfig::boomPresets();
    const double medium_issue = sb::TimingModel::relativeFrequency(
        presets[1], Scheme::SttIssue);
    const double medium_rename = sb::TimingModel::relativeFrequency(
        presets[1], Scheme::SttRename);
    // Flat cost: visible already at Medium, unlike STT-Rename.
    EXPECT_LT(medium_issue, medium_rename);

    const double mega_issue = sb::TimingModel::relativeFrequency(
        presets[3], Scheme::SttIssue);
    const double mega_rename = sb::TimingModel::relativeFrequency(
        presets[3], Scheme::SttRename);
    // Better scaling: ahead again at Mega (paper Fig. 9d).
    EXPECT_GT(mega_issue, mega_rename);
    EXPECT_NEAR(mega_issue, 0.87, 0.03);
}

TEST(Timing, NdaMatchesOrBeatsBaselineEverywhere)
{
    for (const auto &cfg : CoreConfig::boomPresets()) {
        const double rel =
            sb::TimingModel::relativeFrequency(cfg, Scheme::Nda);
        EXPECT_GE(rel, 0.999) << cfg.name;
        EXPECT_LE(rel, 1.05) << cfg.name;
    }
}

TEST(Timing, DelaySchemesKeepBaselineFrequency)
{
    // Neither the DoM park logic nor the DelayAll ready comparator
    // touches the bypass network, so both ride the issue stage's
    // slack: their cost is all IPC, none frequency.
    for (const auto &cfg : CoreConfig::boomPresets()) {
        for (Scheme s : {Scheme::DelayOnMiss, Scheme::DelayAll}) {
            const double rel =
                sb::TimingModel::relativeFrequency(cfg, s);
            EXPECT_GE(rel, 0.999) << cfg.name;
            EXPECT_LE(rel, 1.001) << cfg.name;
        }
    }
}

TEST(Timing, CriticalPathIsMaxOfStages)
{
    for (Scheme s : sb::allSchemes()) {
        const auto b =
            sb::TimingModel::analyze(CoreConfig::mega(), s);
        EXPECT_DOUBLE_EQ(b.criticalPath,
                         std::max({b.renameStage, b.issueStage,
                                   b.bypassNetwork}));
        EXPECT_GT(b.frequencyMhz, 0.0);
    }
}

TEST(Timing, WiderThanMegaKeepsDiverging)
{
    // Sec. 9.4: trends worsen for 6-wide cores.
    CoreConfig wide = CoreConfig::mega();
    wide.coreWidth = 6;
    wide.issueWidth = 6;
    const double rename6 =
        sb::TimingModel::relativeFrequency(wide, Scheme::SttRename);
    const double rename4 = sb::TimingModel::relativeFrequency(
        CoreConfig::mega(), Scheme::SttRename);
    EXPECT_LT(rename6, rename4);
    const double nda6 =
        sb::TimingModel::relativeFrequency(wide, Scheme::Nda);
    EXPECT_GE(nda6, 0.999);
}

TEST(Area, MatchesPaperTable4AtMega)
{
    const CoreConfig mega = CoreConfig::mega();
    const auto rename = sb::AreaModel::relative(mega, Scheme::SttRename);
    EXPECT_NEAR(rename.luts, 1.060, 0.01);
    EXPECT_NEAR(rename.ffs, 1.094, 0.01);
    const auto issue = sb::AreaModel::relative(mega, Scheme::SttIssue);
    EXPECT_NEAR(issue.luts, 1.059, 0.01);
    EXPECT_NEAR(issue.ffs, 1.039, 0.01);
    const auto nda = sb::AreaModel::relative(mega, Scheme::Nda);
    EXPECT_NEAR(nda.luts, 0.980, 0.01);
    EXPECT_NEAR(nda.ffs, 1.027, 0.01);
}

TEST(Area, SttRenameHasTheMostFlipFlops)
{
    // The checkpoint cost (Sec. 4.2 / Table 4).
    const CoreConfig mega = CoreConfig::mega();
    const auto rename = sb::AreaModel::relative(mega, Scheme::SttRename);
    const auto issue = sb::AreaModel::relative(mega, Scheme::SttIssue);
    const auto nda = sb::AreaModel::relative(mega, Scheme::Nda);
    EXPECT_GT(rename.ffs, issue.ffs);
    EXPECT_GT(rename.ffs, nda.ffs);
}

TEST(Area, NdaIsTheOnlyLutSaving)
{
    const CoreConfig mega = CoreConfig::mega();
    EXPECT_LT(sb::AreaModel::relative(mega, Scheme::Nda).luts, 1.0);
    EXPECT_GT(sb::AreaModel::relative(mega, Scheme::SttRename).luts,
              1.0);
    EXPECT_GT(sb::AreaModel::relative(mega, Scheme::SttIssue).luts,
              1.0);
}

TEST(Area, BaselineIsIdentityAndScalesWithWidth)
{
    for (const auto &cfg : CoreConfig::boomPresets()) {
        const auto rel =
            sb::AreaModel::relative(cfg, Scheme::Baseline);
        EXPECT_DOUBLE_EQ(rel.luts, 1.0);
        EXPECT_DOUBLE_EQ(rel.ffs, 1.0);
    }
    const auto small =
        sb::AreaModel::estimate(CoreConfig::small(), Scheme::Baseline);
    const auto mega =
        sb::AreaModel::estimate(CoreConfig::mega(), Scheme::Baseline);
    EXPECT_GT(mega.luts, small.luts);
    EXPECT_GT(mega.ffs, small.ffs);
}

TEST(Power, MatchesPaperTable4AtMega)
{
    const CoreConfig mega = CoreConfig::mega();
    EXPECT_NEAR(sb::PowerModel::relative(mega, Scheme::SttRename),
                1.008, 0.01);
    EXPECT_NEAR(sb::PowerModel::relative(mega, Scheme::SttIssue),
                1.026, 0.01);
    EXPECT_NEAR(sb::PowerModel::relative(mega, Scheme::Nda), 0.936,
                0.01);
}

TEST(Area, DelaySchemesAddOnlyMarginalArea)
{
    // Both new schemes are control-only additions: within 2% of
    // baseline LUTs/FFs, and cheaper than either STT variant.
    const CoreConfig mega = CoreConfig::mega();
    const auto stt = sb::AreaModel::relative(mega, Scheme::SttRename);
    for (Scheme s : {Scheme::DelayOnMiss, Scheme::DelayAll}) {
        const auto rel = sb::AreaModel::relative(mega, s);
        EXPECT_GT(rel.luts, 1.0);
        EXPECT_LT(rel.luts, 1.02);
        EXPECT_GT(rel.ffs, 1.0);
        EXPECT_LT(rel.ffs, 1.02);
        EXPECT_LT(rel.luts, stt.luts);
        EXPECT_LT(rel.ffs, stt.ffs);
    }
}

TEST(Power, DelayAllIdlesTheMost)
{
    // Stalled loads toggle nothing: DelayAll's activity factor is
    // the lowest in the roster, below even NDA-Strict, while DoM
    // stays near baseline (only wrong-path misses are saved).
    const CoreConfig mega = CoreConfig::mega();
    const double delay_all =
        sb::PowerModel::relative(mega, Scheme::DelayAll);
    EXPECT_LT(delay_all, sb::PowerModel::relative(mega, Scheme::Nda));
    EXPECT_LT(delay_all, 1.0);
    const double dom =
        sb::PowerModel::relative(mega, Scheme::DelayOnMiss);
    EXPECT_LT(dom, 1.0);
    EXPECT_GT(dom, delay_all);
}

TEST(Power, NdaIsTheSustainabilityWinner)
{
    // Sec. 8.5 / 9.4: NDA saves power; both STT variants do not.
    const CoreConfig mega = CoreConfig::mega();
    const double nda = sb::PowerModel::relative(mega, Scheme::Nda);
    EXPECT_LT(nda, 1.0);
    EXPECT_LT(nda, sb::PowerModel::relative(mega, Scheme::SttRename));
    EXPECT_LT(nda, sb::PowerModel::relative(mega, Scheme::SttIssue));
}

} // anonymous namespace
