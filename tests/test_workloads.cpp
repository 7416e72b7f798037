/**
 * @file
 * Property tests over the whole SPEC CPU2017 stand-in suite: every
 * benchmark must build, run deterministically under every scheme,
 * commit forward progress, and satisfy the schemes' security
 * obligations (the contract shadow's STT/NDA counts).
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/core.hh"
#include "secure/factory.hh"
#include "trace/kernels.hh"
#include "trace/spec_suite.hh"

namespace
{

struct WorkloadTest : ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, BuildsAndDisassembles)
{
    const sb::Workload w = sb::SpecSuite::make(GetParam());
    EXPECT_GT(w.program.size(), 10u);
    EXPECT_FALSE(w.program.disassemble().empty());
    // Branch targets were validated by the builder; spot-check loops.
    bool has_backward_branch = false;
    for (std::uint32_t i = 0; i < w.program.size(); ++i) {
        const auto &uop = w.program.code[i];
        if (uop.isBranch() && uop.target < i)
            has_backward_branch = true;
    }
    EXPECT_TRUE(has_backward_branch);
}

TEST_P(WorkloadTest, RunsAndCommitsUnderEveryScheme)
{
    const sb::Workload w = sb::SpecSuite::make(GetParam());
    for (sb::Scheme s : {sb::Scheme::Baseline, sb::Scheme::SttRename,
                         sb::Scheme::SttIssue, sb::Scheme::Nda}) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      w.program);
        const auto r = core.run(8000, 4'000'000);
        EXPECT_GE(r.instructions, 8000u)
            << GetParam() << " / " << sb::schemeName(s);
    }
}

TEST_P(WorkloadTest, DeterministicCycles)
{
    const sb::Workload w = sb::SpecSuite::make(GetParam());
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttRename;
    sb::Core a(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
               w.program);
    sb::Core b(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
               w.program);
    EXPECT_EQ(a.run(6000, 4'000'000).cycles,
              b.run(6000, 4'000'000).cycles)
        << GetParam();
}

TEST_P(WorkloadTest, SttObligationHoldsEverywhere)
{
    const sb::Workload w = sb::SpecSuite::make(GetParam());
    for (sb::Scheme s : {sb::Scheme::SttRename, sb::Scheme::SttIssue}) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      w.program);
        core.setContractShadowEnabled(true);
        core.run(10000, 4'000'000);
        EXPECT_EQ(core.contractShadow().transmitViolations(), 0u)
            << GetParam() << " / " << sb::schemeName(s);
    }
}

TEST_P(WorkloadTest, NdaObligationHoldsEverywhere)
{
    const sb::Workload w = sb::SpecSuite::make(GetParam());
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::Nda;
    sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                  w.program);
    core.setContractShadowEnabled(true);
    core.run(10000, 4'000'000);
    EXPECT_EQ(core.contractShadow().transmitViolations(), 0u)
        << GetParam();
    EXPECT_EQ(core.contractShadow().consumeViolations(), 0u)
        << GetParam();
}

TEST_P(WorkloadTest, SchemesNeverChangeCommittedState)
{
    // Timing-only schemes: after the same number of commits, the
    // architectural accumulator state must match the baseline.
    const sb::Workload w = sb::SpecSuite::make(GetParam());

    auto signature = [&](sb::Scheme s) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      w.program);
        std::uint64_t commits = 0;
        sb::Word sig = 0;
        core.setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
            // Hash a fixed window: the final tick can overshoot the
            // commit budget by up to coreWidth-1 instructions.
            if (commits >= 5000)
                return;
            ++commits;
            if (inst.uop.hasDst())
                sig = sig * 1099511628211ULL + inst.result;
        });
        core.run(5000, 4'000'000);
        return std::make_pair(commits, sig);
    };

    const auto base = signature(sb::Scheme::Baseline);
    for (sb::Scheme s : {sb::Scheme::SttRename, sb::Scheme::SttIssue,
                         sb::Scheme::Nda}) {
        const auto got = signature(s);
        EXPECT_EQ(got.first, base.first)
            << GetParam() << " / " << sb::schemeName(s);
        EXPECT_EQ(got.second, base.second)
            << GetParam() << " / " << sb::schemeName(s);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Spec2017, WorkloadTest,
    ::testing::ValuesIn(sb::SpecSuite::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(SpecSuite, HasAll22Benchmarks)
{
    EXPECT_EQ(sb::SpecSuite::benchmarkNames().size(), 22u);
    EXPECT_EQ(sb::SpecSuite::all().size(), 22u);
}

TEST(SpecSuite, UnknownNameDies)
{
    EXPECT_DEATH(sb::SpecSuite::make("999.unknown"), "unknown");
}

TEST(Kernels, GeneratorsAreSeedStable)
{
    sb::PointerChaseParams p;
    p.footprintBytes = 1u << 20;
    const sb::Program a = sb::makePointerChaseKernel(p);
    const sb::Program b = sb::makePointerChaseKernel(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.code[i].disassemble(), b.code[i].disassemble());
}

TEST(Kernels, PointerChaseChainsAreClosedCycles)
{
    sb::PointerChaseParams p;
    p.footprintBytes = 256u << 10;
    p.chains = 1;
    p.heterogeneous = false;
    const sb::Program prog = sb::makePointerChaseKernel(p);
    // Follow the chain from the head; it must return to the head
    // after exactly slots hops.
    const sb::Addr head = 1u << 20;
    const std::uint64_t slots = (256u << 10) / 64;
    sb::Addr node = head;
    for (std::uint64_t i = 0; i < slots; ++i) {
        node = prog.memory.read(node);
        ASSERT_GE(node, head);
    }
    EXPECT_EQ(node, head);
}

} // anonymous namespace
