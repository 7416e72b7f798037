/**
 * @file
 * Golden security tests for the Spectre gadget battery: the
 * unprotected baseline must leak the secret on every gadget, and
 * every scheme that claims the STT obligation (STT-Rename, STT-Issue,
 * NDA, NDA-Strict) must leak on none of them, with clean STT/NDA
 * obligations.
 */

#include <gtest/gtest.h>

#include "common/roster.hh"
#include "harness/verify.hh"
#include "secure/factory.hh"

namespace
{

sb::AttackResult
attack(sb::GadgetKind kind, const sb::SchemeConfig &scheme,
       std::uint8_t secret, std::uint64_t seed = sb::verifyGadgetSeed)
{
    return sb::attackResult(sb::ExperimentRunner::runOne(sb::gadgetSpec(
        kind, sb::CoreConfig::mega(), scheme, secret, seed)));
}

std::string
paramName(sb::GadgetKind gadget, sb::Scheme scheme)
{
    std::string name = std::string(sb::gadgetName(gadget)) + "_"
                       + sb::schemeName(scheme);
    for (auto &c : name)
        if (c == '-')
            c = '_';
    return name;
}

struct GadgetBatteryTest
    : ::testing::TestWithParam<std::tuple<sb::GadgetKind, sb::Scheme>>
{
};

TEST_P(GadgetBatteryTest, MatchesSchemeSecurityContract)
{
    const auto [gadget, scheme] = GetParam();
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    const auto res = attack(gadget, scfg, 0xA7);

    const auto impl = sb::makeScheme(scfg);
    if (impl->contract().obligesTransmitterSafety) {
        EXPECT_FALSE(res.leaked)
            << sb::gadgetName(gadget) << " leaked under "
            << impl->name();
        EXPECT_EQ(res.oracleByte, -1);
        EXPECT_NE(res.timingByte, 0xA7);
        EXPECT_EQ(res.transmitViolations, 0u);
    } else {
        EXPECT_TRUE(res.leaked)
            << sb::gadgetName(gadget) << " failed to leak on the "
            << "unsafe baseline";
        EXPECT_EQ(res.oracleByte, 0xA7);
        EXPECT_EQ(res.timingByte, 0xA7);
        EXPECT_GT(res.transmitViolations, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Battery, GadgetBatteryTest,
    ::testing::Combine(
        ::testing::Values(sb::GadgetKind::SpectreV1,
                          sb::GadgetKind::SpectreV1Mask,
                          sb::GadgetKind::SpectreV2Indirect,
                          sb::GadgetKind::SpectreV4StoreBypass),
        ::testing::Values(sb::Scheme::Baseline, sb::Scheme::SttRename,
                          sb::Scheme::SttIssue, sb::Scheme::Nda)),
    [](const ::testing::TestParamInfo<
        std::tuple<sb::GadgetKind, sb::Scheme>> &info) {
        return paramName(std::get<0>(info.param),
                         std::get<1>(info.param));
    });

TEST(GadgetPrograms, NamesRoundTrip)
{
    for (const auto kind : sb::allGadgets()) {
        sb::GadgetKind parsed;
        ASSERT_TRUE(sb::fromName(sb::allGadgets(), sb::gadgetName,
                                 sb::gadgetName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    sb::GadgetKind parsed;
    EXPECT_FALSE(
        sb::fromName(sb::allGadgets(), sb::gadgetName, "spectre-v9", parsed));
}

TEST(GadgetPrograms, DeterministicBuilds)
{
    for (const auto kind : sb::allGadgets()) {
        const auto a = sb::buildGadgetProgram(kind, 0x5C, 42);
        const auto b = sb::buildGadgetProgram(kind, 0x5C, 42);
        ASSERT_EQ(a.program.code.size(), b.program.code.size());
        EXPECT_EQ(a.barrierPc, b.barrierPc);
        EXPECT_EQ(a.firstProbePc, b.firstProbePc);
        EXPECT_EQ(a.program.disassemble(), b.program.disassemble());
    }
}

TEST(GadgetBattery, NdaStrictBlocksEveryGadget)
{
    for (const auto kind : sb::allGadgets()) {
        sb::SchemeConfig scfg;
        scfg.scheme = sb::Scheme::NdaStrict;
        const auto res = attack(kind, scfg, 0x3C);
        EXPECT_FALSE(res.leaked) << sb::gadgetName(kind);
        EXPECT_EQ(res.oracleByte, -1) << sb::gadgetName(kind);
    }
}

TEST(GadgetBattery, BaselineLeaksAlternativeSecrets)
{
    // A second byte value on every gadget guards against a receiver
    // that only ever flags one magic slot.
    for (const auto kind : sb::allGadgets()) {
        sb::SchemeConfig scfg;
        const auto res = attack(kind, scfg, 0x3C, 77);
        EXPECT_TRUE(res.leaked) << sb::gadgetName(kind);
        EXPECT_EQ(res.oracleByte, 0x3C) << sb::gadgetName(kind);
    }
}

} // anonymous namespace
