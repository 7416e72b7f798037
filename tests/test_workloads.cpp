/**
 * @file
 * Property tests over the whole SPEC CPU2017 stand-in suite: every
 * benchmark must build, run deterministically under every scheme,
 * commit forward progress, and satisfy the schemes' security
 * obligations (the contract shadow's STT/NDA counts).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <tuple>

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

/** Everything a cell reads from a stand-in, as one comparable value. */
std::string
standInDigest(const sb::Workload &w)
{
    const sb::Program &p = w.program;
    std::ostringstream os;
    os << w.name << ' ' << p.name << " entry=" << p.entry
       << " words=" << p.memory.size()
       << " image=" << p.memory.fingerprint() << '\n';
    for (const sb::SecretRegion &r : p.secretRegions)
        os << "secret " << r.base << '+' << r.bytes << '@' << r.tenant
           << '\n';
    for (const sb::MicroOp &u : p.code)
        os << int(u.op) << ' ' << int(u.dst) << ' ' << int(u.src1) << ' '
           << int(u.src2) << ' ' << u.imm << ' ' << u.target << '\n';
    return os.str();
}

// The binary's first test (plain TESTs run before the parameterized
// suite, in file order), so the threads race on the first builds.
TEST(SpecSuite, ConcurrentCallsAgree)
{
    const std::vector<std::string> names = sb::SpecSuite::benchmarkNames();
    constexpr unsigned threads = 4;
    std::vector<std::vector<std::string>> seen(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            // Rotated orders: different names build concurrently,
            // and every name is requested by all four threads.
            seen[t].resize(names.size());
            for (std::size_t i = 0; i < names.size(); ++i) {
                const std::size_t n = (i + 5 * t) % names.size();
                seen[t][n] = standInDigest(sb::SpecSuite::make(names[n]));
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (std::size_t n = 0; n < names.size(); ++n) {
        const std::string serial =
            standInDigest(sb::SpecSuite::make(names[n]));
        for (unsigned t = 0; t < threads; ++t)
            EXPECT_EQ(seen[t][n], serial) << names[n] << " thread " << t;
    }
}

TEST(SpecSuite, ConcurrentReadersOfOneImageAgree)
{
    // Two cores on one memoized stand-in read its shared frozen base
    // at once, through loads and the final fingerprint.
    const sb::Workload w = sb::SpecSuite::make("505.mcf");
    auto window = [&w] {
        sb::SchemeConfig scfg;
        scfg.scheme = sb::Scheme::SttRename;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      w.program);
        const auto r = core.run(6000, 4'000'000);
        return std::make_tuple(r.cycles, r.instructions,
                               core.memoryImage().fingerprint());
    };
    const auto serial = window();
    decltype(window()) got[2];
    std::thread a([&] { got[0] = window(); });
    std::thread b([&] { got[1] = window(); });
    a.join();
    b.join();
    EXPECT_EQ(got[0], serial);
    EXPECT_EQ(got[1], serial);
}

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

TEST(SpecSuite, RepeatCallsAgreeAndNeverAlias)
{
    for (const std::string &name : sb::SpecSuite::benchmarkNames()) {
        sb::Workload first = sb::SpecSuite::make(name);
        const std::string digest = standInDigest(first);
        // A caller owns its copy: writing to it must not reach the
        // next caller's. The kernels' data starts at 1 MiB, so these
        // writes overwrite image words where a kernel has them.
        sb::MemoryImage &mem = first.program.memory;
        for (sb::Addr a = 1u << 20; a < (1u << 20) + 64; a += 8)
            mem.write(a, ~mem.read(a));
        first.program.code.back().imm ^= 1;
        first.program.entry += 1;
        EXPECT_EQ(standInDigest(sb::SpecSuite::make(name)), digest)
            << name;
    }
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
