/**
 * @file
 * Contract shadow engine tests: a deliberately leaky scheme is flagged
 * at the exact cycle/seq/pc of its first out-of-contract transmit
 * (cross-checked against the pipeline trace), the unprotected baseline
 * violates constant-time where the declared schemes do not, the
 * engine is timing-invisible, the conformance generator emits
 * secret-labelled buffers, and SB_INVARIANTS=1 forces the checks on
 * whatever the build default without changing a window cell's outcome
 * (a malformed value is warned about once per process).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/core.hh"
#include "harness/conformance.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/verify.hh"
#include "isa/generator.hh"
#include "secure/factory.hh"

namespace
{

/** Declares the STT contract but implements nothing. */
class LeakyDummyScheme : public sb::SecureScheme
{
  public:
    const char *name() const override { return "LeakyDummy"; }
    sb::SecurityContract contract() const override
    {
        return sb::SecurityContract::transmitterSafe();
    }
};

sb::GadgetProgram
v1Gadget()
{
    return sb::buildGadgetProgram(sb::GadgetKind::SpectreV1,
                                  sb::verifySecretA,
                                  sb::verifyGadgetSeed);
}

/** The v1 gadget leaking @p secret on the mega core. */
sb::RunSpec
v1Spec(std::uint8_t secret, sb::Scheme scheme = sb::Scheme::Baseline)
{
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    return sb::gadgetSpec(sb::GadgetKind::SpectreV1,
                          sb::CoreConfig::mega(), scfg, secret);
}

TEST(ContractShadow, PinpointsTheLeakySchemesFirstViolation)
{
    const auto gadget = v1Gadget();
    ASSERT_GT(gadget.transmitPc, 0u);

    const auto a = sb::ExperimentRunner::runOne(
        v1Spec(sb::verifySecretA), std::make_unique<LeakyDummyScheme>());
    const auto b = sb::ExperimentRunner::runOne(
        v1Spec(sb::verifySecretB), std::make_unique<LeakyDummyScheme>());

    // The do-nothing scheme leaks (differential verdict) and the
    // shadow engine pinpoints the transmit site of the gadget.
    const sb::AttackResult res = sb::attackResult(a);
    EXPECT_TRUE(res.leaked);
    EXPECT_GT(res.sandboxViolations, 0u);
    ASSERT_TRUE(res.firstSandboxViolation.valid());
    EXPECT_EQ(res.firstSandboxViolation.pc, gadget.transmitPc);
    ASSERT_TRUE(res.firstCtViolation.valid());
    EXPECT_EQ(res.firstCtViolation.pc, gadget.transmitPc);

    // Folded by the battery's own pair fold, the shadow verdict
    // agrees with the differential one: the cell fails its declared
    // contract, with the pinpointed repro attached.
    const sb::VerifyCell cell =
        sb::foldVerifyPair(a, b, LeakyDummyScheme().contract());
    EXPECT_GT(cell.sandboxViolations, 0u);
    EXPECT_EQ(cell.firstSandboxViolation.pc, gadget.transmitPc);
    EXPECT_FALSE(cell.pass());
}

TEST(ContractShadow, FirstViolationMatchesAnExecuteEventExactly)
{
    // Cross-check the pinpointed (cycle, seq) against the pipeline
    // trace: the record must name a real execute event of the
    // transmit site, at exactly that cycle.
    const auto gadget = v1Gadget();

    sb::SchemeConfig scfg;
    sb::Core core(sb::CoreConfig::mega(), scfg,
                  std::make_unique<LeakyDummyScheme>(), gadget.program);
    core.setContractShadowEnabled(true);
    std::vector<std::pair<sb::Cycle, sb::SeqNum>> transmits;
    core.setTraceHook([&](const char *event, const sb::DynInst &inst,
                          sb::Cycle at) {
        if (std::string_view(event) == "execute"
            && inst.pc == gadget.transmitPc)
            transmits.emplace_back(at, inst.seq);
    });
    const auto r = core.run(100'000'000, 10'000'000);
    EXPECT_TRUE(r.halted);

    const sb::ContractViolation first =
        core.contractShadow().firstSandboxViolation();
    ASSERT_TRUE(first.valid());
    EXPECT_EQ(first.pc, gadget.transmitPc);
    bool matched = false;
    for (const auto &[at, seq] : transmits)
        matched = matched || (at == first.cycle && seq == first.seq);
    EXPECT_TRUE(matched)
        << "first violation (cycle " << first.cycle << ", seq "
        << first.seq << ") is not an execute event of pc "
        << gadget.transmitPc;
}

TEST(ContractShadow, BaselineViolatesConstantTimeDeclaredSchemesDoNot)
{
    const auto gadget = v1Gadget();
    const auto run = [](sb::Scheme s) {
        return sb::attackResult(
            sb::ExperimentRunner::runOne(v1Spec(sb::verifySecretA, s)));
    };

    const auto base = run(sb::Scheme::Baseline);
    EXPECT_GT(base.ctViolations, 0u);
    ASSERT_TRUE(base.firstCtViolation.valid());
    EXPECT_EQ(base.firstCtViolation.pc, gadget.transmitPc);

    // DoM (sandboxing) and DelayAll (consume-safe) both keep the
    // secret away from every executed transmitter on this gadget, so
    // even the strictest policy holds.
    for (sb::Scheme s :
         {sb::Scheme::DelayOnMiss, sb::Scheme::DelayAll}) {
        const auto res = run(s);
        EXPECT_EQ(res.sandboxViolations, 0u) << sb::schemeName(s);
        EXPECT_EQ(res.ctViolations, 0u) << sb::schemeName(s);
        EXPECT_FALSE(res.firstCtViolation.valid()) << sb::schemeName(s);
    }
}

TEST(ContractShadow, EngineIsTimingInvisible)
{
    // The shadow engine is a pure observer: cycle-identical runs with
    // the checks on and off.
    const auto gadget = v1Gadget();
    const auto run = [&](bool enable) {
        sb::SchemeConfig scfg;
        sb::Core core(sb::CoreConfig::mega(), scfg,
                      sb::makeScheme(scfg), gadget.program);
        core.setContractShadowEnabled(enable);
        const auto r = core.run(100'000'000, 10'000'000);
        EXPECT_TRUE(r.halted);
        return core.now();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(ContractShadow, GeneratedProgramsCarrySecretRegions)
{
    sb::GeneratorParams params;
    params.seed = 7;
    const sb::Program p = sb::generateProgram(params);
    ASSERT_FALSE(p.secretRegions.empty());
    EXPECT_EQ(p.secretRegions[0].base,
              sb::generatorMemBase + params.memBytes / 2);
    EXPECT_EQ(p.secretRegions[0].bytes, params.memBytes / 2);
}

TEST(ContractShadow, FuzzCellSeesSecretsOnTheBaseline)
{
    // The pinned contract_check seed: the unprotected baseline must
    // pull secret-labelled words into transmitters.
    sb::RunSpec spec;
    spec.workload =
        sb::fuzzWorkloadName(sb::OpMixProfile::Mixed, 0xC0FFEE, 32);
    spec.maxCycles = 4'000'000;
    EXPECT_GT(
        sb::conformanceCell(sb::ExperimentRunner::runOne(spec)).ctViolations,
        0u);
}

TEST(ContractShadow, SbInvariantsForcesTheChecksOn)
{
    const auto gadget = v1Gadget();
    const auto makeCore = [&]() {
        sb::SchemeConfig scfg;
        return std::make_unique<sb::Core>(sb::CoreConfig::mega(), scfg,
                                          sb::makeScheme(scfg),
                                          gadget.program);
    };
    // A short window cell: its cached outcome must not depend on the
    // shadow default (window cells carry no obligation counts).
    sb::RunSpec window;
    window.workload = "505.mcf";
    window.warmupInsts = 2000;
    window.measureInsts = 5000;

    ::setenv("SB_INVARIANTS", "1", 1);
    EXPECT_TRUE(makeCore()->contractShadow().on());
    const std::string forced_on =
        sb::toJson(sb::ExperimentRunner::runOne(window)).dump();
    ::setenv("SB_INVARIANTS", "0", 1);
    EXPECT_FALSE(makeCore()->contractShadow().on());
    const std::string forced_off =
        sb::toJson(sb::ExperimentRunner::runOne(window)).dump();
    ::unsetenv("SB_INVARIANTS");
    EXPECT_EQ(forced_on, forced_off);
}

TEST(ContractShadow, MalformedSbInvariantsWarnsOncePerProcess)
{
    // Every core reads the variable, but only the first malformed
    // reading in the process warns (no other test here sets one).
    const auto gadget = v1Gadget();
    sb::SchemeConfig scfg;
    ::setenv("SB_INVARIANTS", "yes", 1);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 2; ++i) {
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      gadget.program);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv("SB_INVARIANTS");
    const std::string_view warning = "ignoring SB_INVARIANTS='yes'";
    std::size_t count = 0;
    for (std::size_t at = err.find(warning); at != std::string::npos;
         at = err.find(warning, at + 1))
        ++count;
    EXPECT_EQ(count, 1u) << err;
}

} // anonymous namespace
