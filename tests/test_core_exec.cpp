/**
 * @file
 * Functional correctness of the out-of-order core: small programs
 * must run to completion with architecturally correct results, under
 * every secure scheme (the schemes change timing, never values).
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/core.hh"
#include "isa/generator.hh"
#include "isa/program.hh"
#include "secure/factory.hh"

namespace
{

sb::RunResult
runToHalt(const sb::Program &p, sb::Core &core)
{
    (void)p;
    return core.run(5'000'000, 5'000'000);
}

struct CoreExecTest : ::testing::TestWithParam<sb::Scheme>
{
    std::unique_ptr<sb::Core>
    makeCore(const sb::Program &p,
             sb::CoreConfig cfg = sb::CoreConfig::mega())
    {
        sb::SchemeConfig scfg;
        scfg.scheme = GetParam();
        return std::make_unique<sb::Core>(cfg, scfg,
                                          sb::makeScheme(scfg), p);
    }
};

TEST_P(CoreExecTest, ArithmeticSumLoop)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);  // i
    b.movi(2, 0);  // sum
    b.movi(3, 100);
    b.movi(4, 1);
    const auto loop = b.here();
    b.add(2, 2, 1);
    b.add(1, 1, 4);
    b.blt(1, 3, loop);
    b.halt();
    const sb::Program p = b.build();

    auto core = makeCore(p);
    const auto r = runToHalt(p, *core);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(core->readArchReg(2), 4950u); // sum 0..99.
}

TEST_P(CoreExecTest, FibonacciViaRegisters)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);
    b.movi(2, 1);
    b.movi(4, 0);
    b.movi(5, 20);
    b.movi(6, 1);
    const auto loop = b.here();
    b.add(3, 1, 2);
    b.add(1, 2, 6);   // r1 = r2 + 1 - 1 trick avoided; plain move:
    b.sub(1, 2, 4);   // r1 = r2 (r4 == 0).
    b.sub(2, 3, 4);   // r2 = r3.
    b.add(4, 4, 6);
    b.movi(4, 0);     // Keep r4 zero (also exercises re-rename).
    b.addi(5, 5, -1);
    b.bne(5, 4, loop);
    b.halt();
    const sb::Program p = b.build();

    auto core = makeCore(p);
    runToHalt(p, *core);
    // 20 iterations of fib starting (0,1): r2 = fib(21) = 10946.
    EXPECT_EQ(core->readArchReg(2), 10946u);
}

TEST_P(CoreExecTest, MemoryCopyLoop)
{
    sb::ProgramBuilder b;
    const sb::Addr src = 0x100000;
    const sb::Addr dst = 0x200000;
    for (int i = 0; i < 16; ++i)
        b.memory().write(src + 8 * i, 1000 + i);
    b.movi(1, src);
    b.movi(2, dst);
    b.movi(3, 0);
    b.movi(4, 16);
    b.movi(5, 1);
    const auto loop = b.here();
    b.load(6, 1, 0);
    b.store(2, 6, 0);
    b.addi(1, 1, 8);
    b.addi(2, 2, 8);
    b.add(3, 3, 5);
    b.blt(3, 4, loop);
    b.halt();
    const sb::Program p = b.build();

    auto core = makeCore(p);
    runToHalt(p, *core);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(core->readMemory(dst + 8 * i), 1000u + i) << i;
}

TEST_P(CoreExecTest, StoreToLoadForwardingValue)
{
    // Immediately reload stored values: exercises SQ forwarding.
    sb::ProgramBuilder b;
    const sb::Addr buf = 0x100000;
    b.movi(1, buf);
    b.movi(2, 0);   // acc
    b.movi(3, 0);   // i
    b.movi(4, 50);
    b.movi(5, 1);
    const auto loop = b.here();
    b.add(6, 3, 4);     // value = i + 50
    b.store(1, 6, 0);
    b.load(7, 1, 0);    // Forward from the store above.
    b.add(2, 2, 7);
    b.add(3, 3, 5);
    b.blt(3, 4, loop);
    b.halt();
    const sb::Program p = b.build();

    auto core = makeCore(p);
    runToHalt(p, *core);
    // sum of (i + 50) for i in 0..49 = 1225 + 2500 = 3725.
    EXPECT_EQ(core->readArchReg(2), 3725u);
}

TEST_P(CoreExecTest, DataDependentBranches)
{
    // Count odd background values over a fixed region: the result
    // must match a functional recomputation.
    sb::ProgramBuilder b;
    const sb::Addr buf = 0x300000;
    b.movi(1, buf);
    b.movi(2, 0);  // count
    b.movi(3, 0);  // i
    b.movi(4, 64);
    b.movi(5, 1);
    b.movi(6, 0);
    const auto loop = b.here();
    b.load(7, 1, 0);
    b.and_(8, 7, 5);
    const auto skip = b.futureLabel();
    b.beq(8, 6, skip);
    b.add(2, 2, 5);
    b.bind(skip);
    b.addi(1, 1, 8);
    b.add(3, 3, 5);
    b.blt(3, 4, loop);
    b.halt();
    const sb::Program p = b.build();

    unsigned expected = 0;
    for (int i = 0; i < 64; ++i)
        expected += sb::MemoryImage::backgroundValue(buf + 8 * i) & 1;

    auto core = makeCore(p);
    runToHalt(p, *core);
    EXPECT_EQ(core->readArchReg(2), expected);
}

TEST_P(CoreExecTest, DivisionAndMultiplication)
{
    sb::ProgramBuilder b;
    b.movi(1, 1000);
    b.movi(2, 7);
    b.div(3, 1, 2);   // 142
    b.mul(4, 3, 2);   // 994
    b.sub(5, 1, 4);   // 6
    b.halt();
    const sb::Program p = b.build();
    auto core = makeCore(p);
    runToHalt(p, *core);
    EXPECT_EQ(core->readArchReg(3), 142u);
    EXPECT_EQ(core->readArchReg(5), 6u);
}

TEST_P(CoreExecTest, DeterministicCycleCount)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);
    b.movi(2, 2000);
    b.movi(3, 1);
    b.movi(5, 0x100000);
    const auto loop = b.here();
    b.load(6, 5, 0);
    b.add(4, 4, 6);
    b.addi(5, 5, 64);
    b.add(1, 1, 3);
    b.blt(1, 2, loop);
    b.halt();
    const sb::Program p = b.build();

    auto c1 = makeCore(p);
    auto c2 = makeCore(p);
    const auto r1 = runToHalt(p, *c1);
    const auto r2 = runToHalt(p, *c2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST_P(CoreExecTest, CoresOnOneProgramKeepPrivateMemory)
{
    // Every Core's working memory shares the program's frozen image;
    // one Core's committed stores must reach neither the program nor
    // a second Core built on it.
    sb::GeneratorParams gp;
    gp.seed = 17;
    gp.profile = sb::OpMixProfile::MemHeavy;
    const sb::Program p = sb::generateProgram(gp);
    const sb::Word image = p.memory.fingerprint();

    auto c1 = makeCore(p);
    auto c2 = makeCore(p);
    const auto r1 = runToHalt(p, *c1);
    ASSERT_TRUE(r1.halted);
    EXPECT_NE(c1->memoryImage().fingerprint(), image);
    EXPECT_EQ(p.memory.fingerprint(), image);
    EXPECT_EQ(c2->memoryImage().fingerprint(), image);

    const auto r2 = runToHalt(p, *c2);
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(c2->memoryImage().fingerprint(),
              c1->memoryImage().fingerprint());
    EXPECT_EQ(p.memory.fingerprint(), image);
}

TEST_P(CoreExecTest, StopFromCommitHookEndsRunOnThatTick)
{
    // Cold loads 4 KB apart leave quiet stretches the run skips.
    sb::ProgramBuilder b;
    b.movi(1, 0);
    b.movi(2, 60);
    b.movi(3, 1);
    b.movi(5, 0x100000);
    const auto loop = b.here();
    b.load(6, 5, 0); // pc 4
    b.add(4, 4, 6);
    b.addi(5, 5, 4096);
    b.add(1, 1, 3);
    b.blt(1, 2, loop);
    b.halt();
    const sb::Program p = b.build();

    struct Commit
    {
        std::uint32_t pc;
        sb::Cycle at;
        bool operator==(const Commit &o) const
        {
            return pc == o.pc && at == o.at;
        }
    };
    std::vector<Commit> ref_commits;
    auto ref = makeCore(p);
    ref->setCommitHook([&](const sb::DynInst &inst, sb::Cycle at) {
        ref_commits.push_back({inst.pc, at});
    });
    const auto r_ref = runToHalt(p, *ref);
    ASSERT_TRUE(r_ref.halted);

    // Stop at the 20th load's commit.
    std::vector<Commit> commits;
    unsigned loads = 0;
    sb::Cycle stop_at = 0;
    auto core = makeCore(p);
    core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle at) {
        commits.push_back({inst.pc, at});
        if (inst.pc == 4 && ++loads == 20) {
            stop_at = at;
            core->requestStop();
        }
    });
    core->requestStop(); // Outside run(): dropped.
    const auto r_stop = runToHalt(p, *core);
    EXPECT_FALSE(r_stop.halted);
    ASSERT_NE(stop_at, 0u);
    EXPECT_EQ(core->now(), stop_at);
    // Every commit of that tick happened, none of a later one.
    std::uint64_t by_then = 0;
    for (const Commit &c : ref_commits)
        by_then += c.at <= stop_at ? 1 : 0;
    EXPECT_EQ(core->committedInstructions(), by_then);

    // The next run() carries on as if nothing had stopped it.
    const auto r_rest = runToHalt(p, *core);
    EXPECT_TRUE(r_rest.halted);
    EXPECT_EQ(r_rest.cycles, r_ref.cycles);
    EXPECT_EQ(r_rest.instructions, r_ref.instructions);
    EXPECT_TRUE(commits == ref_commits);
}

TEST_P(CoreExecTest, RunsOnEverySmallConfigToo)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);
    b.movi(2, 300);
    b.movi(3, 1);
    const auto loop = b.here();
    b.add(1, 1, 3);
    b.blt(1, 2, loop);
    b.halt();
    const sb::Program p = b.build();

    for (const auto &cfg : sb::CoreConfig::boomPresets()) {
        auto core = makeCore(p, cfg);
        const auto r = runToHalt(p, *core);
        EXPECT_TRUE(r.halted) << cfg.name;
        EXPECT_EQ(core->readArchReg(1), 300u) << cfg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CoreExecTest,
    ::testing::Values(sb::Scheme::Baseline, sb::Scheme::SttRename,
                      sb::Scheme::SttIssue, sb::Scheme::Nda,
                      sb::Scheme::NdaStrict, sb::Scheme::DelayOnMiss,
                      sb::Scheme::DelayAll),
    [](const ::testing::TestParamInfo<sb::Scheme> &info) {
        std::string name = sb::schemeName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // anonymous namespace
