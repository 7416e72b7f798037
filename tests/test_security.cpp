/**
 * @file
 * End-to-end Spectre-v1 verification (the stand-in for the paper's
 * BOOM-attacks methodology): the unprotected baseline must leak the
 * secret through the cache covert channel, and STT-Rename, STT-Issue
 * and NDA must all block it with clean STT/NDA obligations.
 */

#include <gtest/gtest.h>

#include "harness/verify.hh"

namespace
{

sb::AttackResult
attackV1(const sb::CoreConfig &core, const sb::SchemeConfig &scheme,
         std::uint8_t secret, std::uint64_t seed = sb::verifyGadgetSeed)
{
    return sb::attackResult(sb::ExperimentRunner::runOne(sb::gadgetSpec(
        sb::GadgetKind::SpectreV1, core, scheme, secret, seed)));
}

TEST(SpectreV1, BaselineLeaksTheSecret)
{
    sb::SchemeConfig scfg;
    const auto res = attackV1(sb::CoreConfig::mega(), scfg, 0xA7);
    EXPECT_TRUE(res.leaked);
    EXPECT_EQ(res.oracleByte, 0xA7);
    EXPECT_EQ(res.timingByte, 0xA7);
    EXPECT_GT(res.transmitViolations, 0u);
}

struct SpectreSchemeTest : ::testing::TestWithParam<sb::Scheme>
{
};

TEST_P(SpectreSchemeTest, SchemeBlocksTheLeak)
{
    sb::SchemeConfig scfg;
    scfg.scheme = GetParam();
    const auto res = attackV1(sb::CoreConfig::mega(), scfg, 0xA7);
    EXPECT_FALSE(res.leaked);
    EXPECT_EQ(res.oracleByte, -1);
    EXPECT_NE(res.timingByte, 0xA7);
    EXPECT_EQ(res.transmitViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SpectreSchemeTest,
    ::testing::Values(sb::Scheme::SttRename, sb::Scheme::SttIssue,
                      sb::Scheme::Nda, sb::Scheme::NdaStrict,
                      sb::Scheme::DelayAll),
    [](const ::testing::TestParamInfo<sb::Scheme> &info) {
        std::string name = sb::schemeName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(SpectreV1, DelayOnMissBlocksTheChannelNotTheDataflow)
{
    // DoM parks the transient probe-array miss, so neither receiver
    // recovers the secret — but tainted transmitters still execute
    // when they *hit* in the L1, so the shadow legitimately records
    // transmitter violations. That asymmetry is exactly the
    // sandboxing contract DoM declares (obligesLeakFreedom without
    // obligesTransmitterSafety).
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::DelayOnMiss;
    const auto res = attackV1(sb::CoreConfig::mega(), scfg, 0xA7);
    EXPECT_FALSE(res.leaked);
    EXPECT_EQ(res.oracleByte, -1);
    EXPECT_NE(res.timingByte, 0xA7);
}

struct SpectreByteTest : ::testing::TestWithParam<int>
{
};

TEST_P(SpectreByteTest, BaselineLeaksArbitraryBytes)
{
    sb::SchemeConfig scfg;
    const auto secret = static_cast<std::uint8_t>(GetParam());
    const auto res =
        attackV1(sb::CoreConfig::mega(), scfg, secret, 1234 + secret);
    EXPECT_TRUE(res.leaked) << "secret=" << GetParam();
    EXPECT_EQ(res.oracleByte, GetParam());
}

INSTANTIATE_TEST_SUITE_P(SecretSweep, SpectreByteTest,
                         ::testing::Values(0x01, 0x3C, 0x80, 0xC5,
                                           0xFF));

TEST(SpectreV1, LeaksOnNarrowCoresToo)
{
    sb::SchemeConfig scfg;
    const auto res = attackV1(sb::CoreConfig::medium(), scfg, 0x42);
    EXPECT_TRUE(res.leaked);
}

TEST(SpectreV1, SttIssueBlocksOnNarrowCores)
{
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttIssue;
    const auto res = attackV1(sb::CoreConfig::medium(), scfg, 0x42);
    EXPECT_FALSE(res.leaked);
    EXPECT_EQ(res.transmitViolations, 0u);
}

TEST(SpectreV1, TwoTaintStoresRemainSecure)
{
    // The Sec. 9.2 optimization must not weaken STT-Rename.
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttRename;
    scfg.twoTaintStores = true;
    const auto res = attackV1(sb::CoreConfig::mega(), scfg, 0x99);
    EXPECT_FALSE(res.leaked);
    EXPECT_EQ(res.transmitViolations, 0u);
}

TEST(SpectreV1, TimingReceiverSeparatesHitFromMiss)
{
    sb::SchemeConfig scfg;
    const auto res = attackV1(sb::CoreConfig::mega(), scfg, 0x5C);
    // The hot probe's commit gap must sit far below the miss median.
    EXPECT_GT(res.medianGap, res.minGap * 2.0);
}

} // anonymous namespace
