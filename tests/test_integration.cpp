/**
 * @file
 * Integration tests: whole-suite behaviours the paper reports must
 * hold — the exchange2 forwarding-error storm (Sec. 9.2), NDA's
 * collapse on compute-bound code, scheme orderings, and the
 * width-scaling trend (Sec. 8.2).
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "secure/factory.hh"
#include "trace/spec_suite.hh"

namespace
{

sb::RunOutcome
runBench(const std::string &bench, sb::Scheme scheme,
         sb::CoreConfig cfg = sb::CoreConfig::mega(),
         bool two_taint = false)
{
    sb::RunSpec s;
    s.core = std::move(cfg);
    s.scheme.scheme = scheme;
    s.scheme.twoTaintStores = two_taint;
    s.workload = bench;
    s.warmupInsts = 20000;
    s.measureInsts = 60000;
    return sb::ExperimentRunner::runOne(s);
}

/** Shadow-on Mega run over runBench()'s warmup + measure length
 *  (window cells do not carry the obligation counts). */
sb::ContractShadow
shadowRun(const std::string &bench, sb::Scheme scheme)
{
    const sb::Workload w = sb::SpecSuite::make(bench);
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg),
                  w.program);
    core.setContractShadowEnabled(true);
    core.run(80000, 40'000'000);
    return core.contractShadow();
}

TEST(Exchange2, SttRenameForwardingErrorStorm)
{
    // Paper Sec. 9.2: STT-Rename suffers orders of magnitude more
    // store-to-load forwarding errors than NDA on exchange2.
    const auto rename = runBench("548.exchange2", sb::Scheme::SttRename);
    const auto issue = runBench("548.exchange2", sb::Scheme::SttIssue);
    const auto nda = runBench("548.exchange2", sb::Scheme::Nda);

    EXPECT_GT(rename.stat("mem_order_violations"), 100u);
    EXPECT_LT(issue.stat("mem_order_violations"), 50u);
    EXPECT_LT(nda.stat("mem_order_violations"), 50u);
}

TEST(Exchange2, TwoTaintStoresFixTheStorm)
{
    const auto single =
        runBench("548.exchange2", sb::Scheme::SttRename);
    const auto two = runBench("548.exchange2", sb::Scheme::SttRename,
                              sb::CoreConfig::mega(), true);
    EXPECT_LT(two.stat("mem_order_violations"),
              single.stat("mem_order_violations") / 10);
    EXPECT_GT(two.ipc, single.ipc);
}

TEST(Imagick, NdaCollapsesSttDoesNot)
{
    // Paper Sec. 8.1: compute-bound code with loads feeding invisible
    // arithmetic — NDA loses close to half, STT close to nothing.
    const auto base = runBench("538.imagick", sb::Scheme::Baseline);
    const auto rename = runBench("538.imagick", sb::Scheme::SttRename);
    const auto nda = runBench("538.imagick", sb::Scheme::Nda);

    EXPECT_GT(rename.ipc / base.ipc, 0.90);
    EXPECT_LT(nda.ipc / base.ipc, 0.60);
    EXPECT_GT(nda.stat("deferred_broadcasts"), 1000u);
}

TEST(Bwaves, EveryoneIsInsensitive)
{
    const auto base = runBench("503.bwaves", sb::Scheme::Baseline);
    for (sb::Scheme s : {sb::Scheme::SttRename, sb::Scheme::SttIssue,
                         sb::Scheme::Nda}) {
        const auto o = runBench("503.bwaves", s);
        EXPECT_GT(o.ipc / base.ipc, 0.95) << sb::schemeName(s);
    }
}

TEST(Gcc, DependentLoadsHurtAllSchemes)
{
    const auto base = runBench("502.gcc", sb::Scheme::Baseline);
    for (sb::Scheme s : {sb::Scheme::SttRename, sb::Scheme::SttIssue,
                         sb::Scheme::Nda}) {
        const auto o = runBench("502.gcc", s);
        EXPECT_LT(o.ipc / base.ipc, 0.85) << sb::schemeName(s);
    }
}

TEST(Ordering, SttIssueBeatsSttRenameOnAverage)
{
    // Paper Sec. 9.1: STT-Issue generally outperforms STT-Rename.
    double rename_sum = 0.0;
    double issue_sum = 0.0;
    for (const char *b : {"548.exchange2", "502.gcc", "557.xz",
                          "505.mcf"}) {
        rename_sum += runBench(b, sb::Scheme::SttRename).ipc;
        issue_sum += runBench(b, sb::Scheme::SttIssue).ipc;
    }
    EXPECT_GT(issue_sum, rename_sum);
}

TEST(Scaling, RelativeLossGrowsWithWidth)
{
    // Paper Sec. 8.2 / Fig. 8: wider cores lose more relative IPC.
    // Compare the 1-wide Small with the 4-wide Mega on a sensitive
    // benchmark.
    const auto cfg_small = sb::CoreConfig::small();
    const auto cfg_mega = sb::CoreConfig::mega();

    const auto base_s =
        runBench("502.gcc", sb::Scheme::Baseline, cfg_small);
    const auto stt_s =
        runBench("502.gcc", sb::Scheme::SttRename, cfg_small);
    const auto base_m =
        runBench("502.gcc", sb::Scheme::Baseline, cfg_mega);
    const auto stt_m =
        runBench("502.gcc", sb::Scheme::SttRename, cfg_mega);

    const double rel_small = stt_s.ipc / base_s.ipc;
    const double rel_mega = stt_m.ipc / base_m.ipc;
    EXPECT_LT(rel_mega, rel_small);
}

TEST(Nda, StrictIsNoFasterThanPermissive)
{
    const auto perm = runBench("538.imagick", sb::Scheme::Nda);
    const auto strict = runBench("538.imagick", sb::Scheme::NdaStrict);
    EXPECT_LE(strict.ipc, perm.ipc * 1.02);
    const auto shadow = shadowRun("538.imagick", sb::Scheme::NdaStrict);
    EXPECT_EQ(shadow.transmitViolations(), 0u);
    EXPECT_EQ(shadow.consumeViolations(), 0u);
}

TEST(Monitor, BaselineLeaksOnTaintHeavyWorkloads)
{
    for (const char *b : {"505.mcf", "502.gcc", "531.deepsjeng"}) {
        EXPECT_GT(shadowRun(b, sb::Scheme::Baseline).transmitViolations(),
                  0u)
            << b;
    }
}

TEST(Stats, SchemesReportTheirMechanisms)
{
    const auto rename = runBench("502.gcc", sb::Scheme::SttRename);
    EXPECT_GT(rename.stat("scheme_select_blocks"), 0u);
    EXPECT_EQ(rename.stat("scheme_issue_kills"), 0u);

    const auto issue = runBench("502.gcc", sb::Scheme::SttIssue);
    EXPECT_GT(issue.stat("scheme_issue_kills"), 0u);

    const auto nda = runBench("502.gcc", sb::Scheme::Nda);
    EXPECT_GT(nda.stat("deferred_broadcasts"), 0u);
    EXPECT_EQ(nda.stat("scheme_select_blocks"), 0u);
}

} // anonymous namespace
