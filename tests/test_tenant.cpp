/**
 * @file
 * Multi-tenant tier tests: the set-associative BTB, predictor
 * flushing, context-switch register banking and squash, the
 * server-mix workload/harness, and the cross-domain gadget closure
 * matrix under the switch policies.
 */

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "branch/tage.hh"
#include "core/core.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "isa/program.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"
#include "trace/server_mix.hh"

namespace
{

// --- BTB geometry -------------------------------------------------------

TEST(Btb, MissPredictsFallThroughAndHitPredictsTarget)
{
    sb::BranchTargetBuffer btb(16, 2);
    EXPECT_FALSE(btb.hit(5));
    EXPECT_EQ(btb.predict(5), 6u);
    btb.train(5, 100);
    EXPECT_TRUE(btb.hit(5));
    EXPECT_EQ(btb.predict(5), 100u);
    btb.train(5, 200); // Retrain in place, no second entry.
    EXPECT_EQ(btb.predict(5), 200u);
    EXPECT_EQ(btb.size(), 1u);
}

TEST(Btb, LruEvictionWithinASet)
{
    // 4 sets x 2 ways; pcs 1, 5, 9 all map to set 1.
    sb::BranchTargetBuffer btb(4, 2);
    btb.train(1, 100);
    btb.train(5, 200);
    btb.train(1, 100); // Touch: 5 becomes the LRU way.
    btb.train(9, 300); // Evicts 5.
    EXPECT_TRUE(btb.hit(1));
    EXPECT_TRUE(btb.hit(9));
    EXPECT_FALSE(btb.hit(5));
    EXPECT_EQ(btb.predict(5), 6u);
    EXPECT_EQ(btb.size(), 2u);
}

TEST(Btb, FlushInvalidatesEverything)
{
    sb::BranchTargetBuffer btb(8, 2);
    for (std::uint32_t pc = 0; pc < 16; ++pc)
        btb.train(pc, pc + 50);
    EXPECT_EQ(btb.size(), 16u);
    btb.flush();
    EXPECT_EQ(btb.size(), 0u);
    for (std::uint32_t pc = 0; pc < 16; ++pc)
        EXPECT_EQ(btb.predict(pc), pc + 1);
}

// --- TAGE flush ---------------------------------------------------------

TEST(Tage, FlushRestoresFreshPredictorState)
{
    sb::TagePredictor fresh(8);
    sb::TagePredictor trained(8);
    // Bias a set of branches hard-taken with varied histories.
    for (int round = 0; round < 200; ++round) {
        for (std::uint64_t pc = 0; pc < 8; ++pc)
            trained.update(pc * 37 + 5, round * 0x9E37, true);
    }
    bool diverged = false;
    for (std::uint64_t pc = 0; pc < 8; ++pc) {
        diverged |= trained.predict(pc * 37 + 5, 0)
                    != fresh.predict(pc * 37 + 5, 0);
    }
    EXPECT_TRUE(diverged); // Training visibly moved the tables...
    trained.flushSpeculativeState();
    for (std::uint64_t pc = 0; pc < 64; ++pc) {
        for (std::uint64_t hist : {0ULL, 0x5AULL, 0xFFFFULL}) {
            EXPECT_EQ(trained.predict(pc, hist),
                      fresh.predict(pc, hist));
        }
    }
    // ...and a flushed predictor trains exactly like a fresh one
    // (bit-identical state, so flushed runs stay deterministic).
    for (int round = 0; round < 50; ++round) {
        trained.update(11, 3, round % 3 == 0);
        fresh.update(11, 3, round % 3 == 0);
    }
    EXPECT_EQ(trained.predict(11, 3), fresh.predict(11, 3));
}

// --- Context-switch register banking ------------------------------------

TEST(ContextSwitch, BanksRegistersAndZeroInitsFreshTenants)
{
    // Tenant 0 sets r1=111 and yields. Tenant 1 must see r1 == 0 (a
    // fresh tenant starts from zeroed architectural state) — if it
    // sees anything else it spins forever and the run cannot halt.
    // When tenant 1 yields back, tenant 0's r1=111 must be restored.
    sb::ProgramBuilder b;
    b.tenantEntry(0);
    b.movi(1, 111);
    b.switchTenant(1);
    b.halt(); // Tenant 0's resume point.

    b.tenantEntry(1);
    b.movi(2, 0);
    const auto spin = b.here();
    b.bne(1, 2, spin); // r1 != 0 -> leaked state, spin forever.
    b.movi(1, 222);
    b.switchTenant(0);
    b.halt(); // Unreachable terminator.

    const sb::Program prog = b.build("banking-test");
    sb::SchemeConfig sc;
    sb::Core core(sb::CoreConfig::mega(), sc, sb::makeScheme(sc), prog);
    const sb::RunResult res = core.run(1'000'000, 100'000);
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(core.contextSwitchCount(), 2u);
    EXPECT_EQ(core.activeTenant(), 0);
    EXPECT_EQ(core.readArchReg(1), 111u); // Banked out and back in.
}

// --- Server-mix workload ------------------------------------------------

sb::RunOutcome
mixOutcome(sb::Scheme scheme, const sb::CoreConfig &core,
           bool hostile = true)
{
    sb::ServerMixParams p;
    p.hostile = hostile;
    sb::RunSpec spec;
    spec.core = core;
    spec.scheme.scheme = scheme;
    spec.workload = sb::tenantWorkloadName(p);
    spec.warmupInsts = 0;
    spec.measureInsts = 0;
    return sb::ExperimentRunner::runOne(spec);
}

TEST(ServerMix, WorkloadNameRoundTripsAndRejectsGarbage)
{
    sb::ServerMixParams p;
    p.tenants = 3;
    p.requests = 12;
    p.work = 9;
    p.hostile = false;
    p.seed = 99;
    const std::string name = sb::tenantWorkloadName(p);
    EXPECT_EQ(name, "mt:tenants=3:requests=12:work=9:hostile=0:seed=99");
    EXPECT_TRUE(sb::isTenantWorkload(name));
    EXPECT_FALSE(sb::isTenantWorkload("gadget:spectre-v1:secret=1:seed=2"));
    sb::ServerMixParams q;
    ASSERT_TRUE(sb::parseTenantWorkload(name, q));
    EXPECT_EQ(q.tenants, 3u);
    EXPECT_EQ(q.requests, 12u);
    EXPECT_EQ(q.work, 9u);
    EXPECT_FALSE(q.hostile);
    EXPECT_EQ(q.seed, 99u);
    EXPECT_FALSE(sb::parseTenantWorkload("mt:tenants=3", q));
    EXPECT_FALSE(sb::parseTenantWorkload("nonsense", q));
}

TEST(ServerMix, BenignMixRunsToHaltAcrossShapes)
{
    for (unsigned tenants : {2u, 4u}) {
        sb::ServerMixParams p;
        p.tenants = tenants;
        p.hostile = false;
        const sb::ServerMixProgram mix = sb::buildServerMix(p);
        EXPECT_EQ(mix.requestEnds.size(), tenants * p.requests);
        sb::SchemeConfig sc;
        sb::Core core(sb::CoreConfig::mega(), sc, sb::makeScheme(sc),
                      mix.program);
        const sb::RunResult res = core.run(1'000'000'000ULL, 10'000'000ULL);
        EXPECT_TRUE(res.halted) << tenants << " tenants";
        EXPECT_EQ(core.contextSwitchCount(), tenants * p.requests);
    }
}

TEST(ServerMix, CellReportsOrderedQuantilesAndSwitches)
{
    const sb::RunOutcome out =
        mixOutcome(sb::Scheme::Baseline, sb::CoreConfig::mega());
    EXPECT_EQ(out.stat("mt_halted"), 1u);
    EXPECT_EQ(out.stat("mt_requests"), out.stat("mt_total_requests"));
    EXPECT_EQ(out.stat("mt_context_switches"),
              out.stat("mt_total_requests"));
    EXPECT_GT(out.stat("mt_p50"), 0u);
    EXPECT_LE(out.stat("mt_p50"), out.stat("mt_p95"));
    EXPECT_LE(out.stat("mt_p95"), out.stat("mt_p99"));
}

TEST(ServerMix, HostileTenantLeaksOnBaselineOnly)
{
    // The in-stream v1 gadget transmits tenant 1's secret from tenant
    // 0's instruction stream on the unprotected core — under either
    // switch policy, since its training never crosses a switch — and
    // every dataflow scheme blocks the transient transmit. (DoM is
    // deliberately absent: it declares only sandboxing, and the
    // victim keeps its own secret L1-hot, which delay-on-miss never
    // claimed to cover.)
    EXPECT_GE(mixOutcome(sb::Scheme::Baseline, sb::CoreConfig::mega())
                  .stat("mt_cross_viol"),
              1u);
    EXPECT_GE(mixOutcome(sb::Scheme::Baseline,
                         sb::CoreConfig::megaFlush())
                  .stat("mt_cross_viol"),
              1u);
    for (sb::Scheme scheme :
         {sb::Scheme::SttRename, sb::Scheme::SttIssue, sb::Scheme::Nda,
          sb::Scheme::NdaStrict, sb::Scheme::DelayAll}) {
        EXPECT_EQ(mixOutcome(scheme, sb::CoreConfig::mega())
                      .stat("mt_cross_viol"),
                  0u)
            << sb::schemeName(scheme);
    }
}

TEST(ServerMix, BenignMixShowsNoCrossTenantViolations)
{
    const sb::RunOutcome out = mixOutcome(
        sb::Scheme::Baseline, sb::CoreConfig::mega(), false);
    EXPECT_EQ(out.stat("mt_cross_viol"), 0u);
    EXPECT_EQ(out.stat("mt_halted"), 1u);
}

TEST(ServerMix, RerunIsDeterministic)
{
    // DoM parks loads and NDA defers broadcasts across the squash-on-
    // switch path; a survivor would perturb timing between identical
    // runs (or trip the slab's generation asserts outright).
    for (sb::Scheme scheme :
         {sb::Scheme::DelayOnMiss, sb::Scheme::Nda}) {
        const sb::RunOutcome a =
            mixOutcome(scheme, sb::CoreConfig::megaFlush());
        const sb::RunOutcome b =
            mixOutcome(scheme, sb::CoreConfig::megaFlush());
        EXPECT_EQ(a.cycles, b.cycles) << sb::schemeName(scheme);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.stats, b.stats) << sb::schemeName(scheme);
    }
}

// --- Cross-domain gadget closure under the switch policies --------------

TEST(CrossDomain, V2GadgetLeaksOnKeepAndClosesUnderFlushAndSchemes)
{
    const auto attack = [](const sb::CoreConfig &core, sb::Scheme scheme,
                           sb::Mitigation m = sb::Mitigation::None) {
        sb::SchemeConfig scfg;
        scfg.scheme = scheme;
        sb::RunSpec spec =
            sb::gadgetSpec(sb::GadgetKind::SpectreV2CrossDomain, core,
                           scfg, sb::verifySecretA);
        spec.mitigation.kind = m;
        return sb::attackResult(sb::ExperimentRunner::runOne(spec));
    };

    // Keep policy: tenant A's BTB training survives the switch and
    // steers tenant B into the gadget.
    const sb::AttackResult keep =
        attack(sb::CoreConfig::mega(), sb::Scheme::Baseline);
    EXPECT_TRUE(keep.leaked);
    EXPECT_GT(keep.contextSwitches, 0u);

    // Flush policy: same unprotected core, poisoned entry dies at the
    // switch.
    EXPECT_FALSE(
        attack(sb::CoreConfig::megaFlush(), sb::Scheme::Baseline).leaked);

    // Retpoline: the indirect branch never consults the BTB at all.
    EXPECT_FALSE(attack(sb::CoreConfig::mega(), sb::Scheme::Baseline,
                        sb::Mitigation::Retpoline)
                     .leaked);

    // A dataflow scheme closes it even with the poisoned BTB kept.
    EXPECT_FALSE(
        attack(sb::CoreConfig::mega(), sb::Scheme::SttRename).leaked);
}

} // anonymous namespace
