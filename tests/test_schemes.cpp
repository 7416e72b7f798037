/**
 * @file
 * Secure-scheme semantics: YRoT helpers, taint propagation through
 * the rename-stage taint RAT and issue-stage taint table, blocking
 * behaviour, and the schemes' ground-truth obligations on targeted
 * mini-programs.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/core.hh"
#include "secure/delay_all.hh"
#include "secure/dom.hh"
#include "secure/factory.hh"
#include "secure/nda.hh"
#include "secure/stt_issue.hh"
#include "secure/stt_rename.hh"
#include "secure/taint_util.hh"

namespace
{

TEST(TaintUtil, YoungestRootPicksMaximumValidSeq)
{
    using sb::invalidSeqNum;
    EXPECT_EQ(sb::youngestRoot(invalidSeqNum, invalidSeqNum),
              invalidSeqNum);
    EXPECT_EQ(sb::youngestRoot(5, invalidSeqNum), 5u);
    EXPECT_EQ(sb::youngestRoot(invalidSeqNum, 7), 7u);
    EXPECT_EQ(sb::youngestRoot(5, 7), 7u);
    EXPECT_EQ(sb::youngestRoot(9, 7), 9u);
}

TEST(TaintUtil, RootLiveness)
{
    EXPECT_TRUE(sb::rootLive(10, 5));   // Root younger than VP: live.
    EXPECT_FALSE(sb::rootLive(10, 10)); // At the point: resolved.
    EXPECT_FALSE(sb::rootLive(10, 15));
    EXPECT_FALSE(sb::rootLive(sb::invalidSeqNum, 0));
    EXPECT_EQ(sb::filterRoot(10, 15), sb::invalidSeqNum);
    EXPECT_EQ(sb::filterRoot(10, 5), 10u);
}

/**
 * A mini-program with a long shadow: a slow branch (never taken, on
 * a value that trails a load by a mul chain) covering a dependent
 * load pair. Used to probe blocking behaviour per scheme.
 */
sb::Program
shadowedDependentLoads()
{
    sb::ProgramBuilder b;
    const sb::Addr table = 0x100000;
    // Pointer table: each slot points at the next (valid addresses).
    for (int i = 0; i < 64; ++i)
        b.memory().write(table + 8 * i, table + 8 * ((i + 1) % 64));

    b.movi(1, table);  // p
    b.movi(20, 0);     // i
    b.movi(21, 600);
    b.movi(22, 1);
    b.movi(30, 0x7fffffff); // magic (never equal)
    b.movi(15, 3);
    const auto loop = b.here();
    // Slow branch on a mul chain from the previous iteration's load.
    b.mul(15, 15, 22);
    b.mul(15, 15, 22);
    const auto next = b.futureLabel();
    b.beq(15, 30, next);
    b.bind(next);
    // Dependent load pair: the second address derives from the first.
    b.load(2, 1, 0);   // p = *p (speculative under the branch).
    b.load(3, 2, 0);   // tainted address: blocked under STT.
    b.add(15, 3, 22);  // Feed the next slow branch.
    b.sub(1, 2, 20);   // p for next iteration (r20 is the counter...
    b.add(1, 1, 20);   // ...undone: p = r2).
    b.add(20, 20, 22);
    b.blt(20, 21, loop);
    b.halt();
    return b.build("shadowed-deps");
}

sb::RunResult
runScheme(const sb::Program &p, sb::SchemeConfig scfg, sb::Core **out,
          std::unique_ptr<sb::Core> &holder)
{
    holder = std::make_unique<sb::Core>(sb::CoreConfig::mega(), scfg,
                                        sb::makeScheme(scfg), p);
    // The obligation counts come from the contract shadow, which is
    // off by default in release builds.
    holder->setContractShadowEnabled(true);
    *out = holder.get();
    return holder->run(3'000'000, 3'000'000);
}

TEST(SttRename, BlocksTaintedTransmitters)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttRename;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(core->stats().value("scheme_select_blocks"), 100u);
    EXPECT_EQ(core->contractShadow().transmitViolations(), 0u);
}

TEST(SttIssue, KillsTaintedSelectionsIntoNops)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttIssue;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);
    // Issue-time tainting wastes slots on kills (Fig. 4 step 4)...
    EXPECT_GT(core->stats().value("scheme_issue_kills"), 50u);
    // ...and masks ready afterwards (back-propagated YRoT).
    EXPECT_GT(core->stats().value("scheme_select_blocks"), 50u);
    EXPECT_EQ(core->contractShadow().transmitViolations(), 0u);
}

TEST(Nda, DefersSpeculativeLoadBroadcasts)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::Nda;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(core->stats().value("deferred_broadcasts"), 100u);
    EXPECT_EQ(core->contractShadow().transmitViolations(), 0u);
    EXPECT_EQ(core->contractShadow().consumeViolations(), 0u);
}

TEST(Baseline, LeaksOnTheSameProgram)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    runScheme(p, scfg, &core, holder);
    // The unprotected core freely transmits speculative data.
    EXPECT_GT(core->contractShadow().transmitViolations(), 0u);
    EXPECT_GT(core->contractShadow().consumeViolations(), 0u);
}

TEST(NdaStrict, AlsoDefersAluResults)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::NdaStrict;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);

    sb::SchemeConfig perm;
    perm.scheme = sb::Scheme::Nda;
    sb::Core *core2;
    std::unique_ptr<sb::Core> holder2;
    runScheme(p, perm, &core2, holder2);
    // Strict defers at least as much as permissive.
    EXPECT_GE(core->stats().value("deferred_broadcasts"),
              core2->stats().value("deferred_broadcasts"));
    EXPECT_EQ(core->contractShadow().consumeViolations(), 0u);
}

/**
 * shadowedDependentLoads() with the pointer table spread at 4 KB
 * stride: every slot maps to the same L1 set, so the chase misses on
 * (nearly) every lap — each one a speculative demand miss under the
 * slow branch's shadow, i.e. exactly what Delay-on-Miss must park.
 */
sb::Program
thrashingShadowedLoads()
{
    sb::ProgramBuilder b;
    const sb::Addr table = 0x100000;
    const sb::Addr stride = 4096;
    for (int i = 0; i < 64; ++i) {
        b.memory().write(table + stride * i,
                         table + stride * ((i + 1) % 64));
    }

    b.movi(1, table);  // p
    b.movi(20, 0);     // i
    b.movi(21, 300);
    b.movi(22, 1);
    b.movi(30, 0x7fffffff); // magic (never equal)
    b.movi(15, 3);
    const auto loop = b.here();
    b.mul(15, 15, 22);
    b.mul(15, 15, 22);
    const auto next = b.futureLabel();
    b.beq(15, 30, next);
    b.bind(next);
    b.load(2, 1, 0);   // p = *p: a cold miss under the shadow.
    b.add(15, 2, 22);  // Feed the next slow branch.
    b.add(1, 2, 20);   // p for the next iteration (r20 stays 0...
    b.sub(1, 1, 20);   // ...undone: p = r2).
    b.add(20, 20, 22);
    b.blt(20, 21, loop);
    b.halt();
    return b.build("thrashing-shadowed");
}

TEST(DelayOnMiss, ParksSpeculativeMissesUntilSafe)
{
    const sb::Program p = thrashingShadowedLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::DelayOnMiss;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);
    // The set-thrashing chase misses under the shadow on (nearly)
    // every lap: those demand accesses must have been parked.
    EXPECT_GT(core->stats().value("scheme_miss_delays"), 50u);
    // Every parked load was eventually released or squashed.
    auto *dom = dynamic_cast<sb::DomScheme *>(&core->scheme());
    ASSERT_NE(dom, nullptr);
    EXPECT_EQ(dom->parkedLoads(), 0u);
    // The delays are pure timing: architectural state is untouched
    // (r20 counted all 300 laps).
    EXPECT_EQ(core->readArchReg(20), 300u);
}

TEST(DelayOnMiss, SpeculativeHitsProceed)
{
    // The 64-slot pointer table (512 B) becomes L1-resident after the
    // first lap, so DoM — which only delays *misses* — must end up
    // much closer to baseline than DelayAll, which delays every
    // speculative load forever.
    const sb::Program p = shadowedDependentLoads();
    std::map<sb::Scheme, std::uint64_t> cycles;
    for (sb::Scheme s : {sb::Scheme::DelayOnMiss, sb::Scheme::DelayAll}) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      p);
        cycles[s] = core.run(3'000'000, 3'000'000).cycles;
    }
    EXPECT_LT(cycles[sb::Scheme::DelayOnMiss],
              cycles[sb::Scheme::DelayAll]);
}

TEST(DelayAll, NoLoadIssuesSpeculatively)
{
    const sb::Program p = shadowedDependentLoads();
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::DelayAll;
    sb::Core *core;
    std::unique_ptr<sb::Core> holder;
    const auto r = runScheme(p, scfg, &core, holder);
    EXPECT_TRUE(r.halted);
    // The veto fires in the ready logic, never a kill or a park.
    EXPECT_GT(core->stats().value("scheme_select_blocks"), 100u);
    EXPECT_EQ(core->stats().value("scheme_issue_kills"), 0u);
    EXPECT_EQ(core->stats().value("scheme_miss_delays"), 0u);
    // A load that never executes speculatively satisfies the NDA
    // obligation (and hence STT's) by construction.
    EXPECT_EQ(core->contractShadow().transmitViolations(), 0u);
    EXPECT_EQ(core->contractShadow().consumeViolations(), 0u);
}

TEST(Schemes, ContractsMatchTheRoster)
{
    struct Expect
    {
        sb::Scheme scheme;
        sb::ContractPolicy policy;
        bool transmitter;
        bool consume;
        bool leakFree;
    };
    const Expect expected[] = {
        {sb::Scheme::Baseline, sb::ContractPolicy::None, false, false,
         false},
        {sb::Scheme::SttRename, sb::ContractPolicy::TransmitterSafe,
         true, false, true},
        {sb::Scheme::SttIssue, sb::ContractPolicy::TransmitterSafe,
         true, false, true},
        {sb::Scheme::Nda, sb::ContractPolicy::ConsumeSafe, true, true,
         true},
        {sb::Scheme::NdaStrict, sb::ContractPolicy::ConsumeSafe, true,
         true, true},
        {sb::Scheme::DelayOnMiss, sb::ContractPolicy::Sandboxing, false,
         false, true},
        {sb::Scheme::DelayAll, sb::ContractPolicy::ConsumeSafe, true,
         true, true},
    };
    for (const Expect &e : expected) {
        sb::SchemeConfig scfg;
        scfg.scheme = e.scheme;
        const sb::SecurityContract c = sb::makeScheme(scfg)->contract();
        EXPECT_EQ(c.policy, e.policy) << sb::schemeName(e.scheme);
        EXPECT_EQ(c.obligesTransmitterSafety, e.transmitter)
            << sb::schemeName(e.scheme);
        EXPECT_EQ(c.obligesConsumeSafety, e.consume)
            << sb::schemeName(e.scheme);
        EXPECT_EQ(c.obligesLeakFreedom, e.leakFree)
            << sb::schemeName(e.scheme);
    }
}

TEST(Schemes, IdenticalArchitecturalResults)
{
    const sb::Program p = shadowedDependentLoads();
    std::vector<sb::Word> results;
    for (sb::Scheme s : {sb::Scheme::Baseline, sb::Scheme::SttRename,
                         sb::Scheme::SttIssue, sb::Scheme::Nda,
                         sb::Scheme::NdaStrict, sb::Scheme::DelayOnMiss,
                         sb::Scheme::DelayAll}) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      p);
        const auto r = core.run(3'000'000, 3'000'000);
        ASSERT_TRUE(r.halted) << sb::schemeName(s);
        results.push_back(core.readArchReg(3));
    }
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[i], results[0]);
}

TEST(Schemes, OrderingOnShadowedLoads)
{
    // On a workload dominated by tainted transmitters, the baseline
    // must be fastest and every scheme slower or equal.
    const sb::Program p = shadowedDependentLoads();
    std::map<sb::Scheme, std::uint64_t> cycles;
    for (sb::Scheme s : {sb::Scheme::Baseline, sb::Scheme::SttRename,
                         sb::Scheme::SttIssue, sb::Scheme::Nda,
                         sb::Scheme::DelayOnMiss, sb::Scheme::DelayAll}) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                      p);
        cycles[s] = core.run(3'000'000, 3'000'000).cycles;
    }
    EXPECT_LE(cycles[sb::Scheme::Baseline],
              cycles[sb::Scheme::SttRename]);
    EXPECT_LE(cycles[sb::Scheme::Baseline],
              cycles[sb::Scheme::SttIssue]);
    EXPECT_LE(cycles[sb::Scheme::Baseline], cycles[sb::Scheme::Nda]);
    EXPECT_LE(cycles[sb::Scheme::Baseline],
              cycles[sb::Scheme::DelayOnMiss]);
    EXPECT_LE(cycles[sb::Scheme::Baseline],
              cycles[sb::Scheme::DelayAll]);
}

TEST(SchemeFactory, CreatesEveryKind)
{
    for (sb::Scheme s : sb::allSchemes()) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        auto scheme = sb::makeScheme(scfg);
        ASSERT_TRUE(scheme);
        EXPECT_EQ(scheme->kind(), s);
        EXPECT_STREQ(scheme->name(), sb::schemeName(s));
    }
}

TEST(SchemeFactory, NdaDisablesSpeculativeScheduling)
{
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::Nda;
    EXPECT_FALSE(sb::makeScheme(scfg)->allowsSpeculativeScheduling());
    scfg.ndaKeepSpeculativeScheduling = true;
    EXPECT_TRUE(sb::makeScheme(scfg)->allowsSpeculativeScheduling());

    sb::SchemeConfig stt;
    stt.scheme = sb::Scheme::SttRename;
    EXPECT_TRUE(sb::makeScheme(stt)->allowsSpeculativeScheduling());
}

} // anonymous namespace
