/**
 * @file
 * Unit tests for the differential leakage verifier: gadget workload
 * encoding, gadget cells through ExperimentRunner::runOne, battery
 * pairing/folding, and — most importantly — that an intentionally
 * leaky scheme which *claims* safety is caught by the battery's own
 * pair fold.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "harness/cell_driver.hh"
#include "harness/engine.hh"
#include "harness/verify.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"

namespace
{

sb::RunSpec
gadgetSpec(sb::GadgetKind kind, std::uint8_t secret, sb::Scheme scheme)
{
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    return sb::gadgetSpec(kind, sb::CoreConfig::mega(), scfg, secret);
}

/** One attack run on the mega core. */
sb::AttackResult
attack(const sb::RunSpec &spec)
{
    return sb::attackResult(sb::ExperimentRunner::runOne(spec));
}

/**
 * The secret-A/secret-B pair of @p kind with a fresh @p Injected
 * scheme in each run, folded by the battery's pair fold against that
 * scheme's declared contract.
 */
template <typename Injected>
sb::VerifyCell
injectedPair(sb::GadgetKind kind)
{
    // Reported as Baseline: the scheme is injected.
    const auto a = sb::ExperimentRunner::runOne(
        gadgetSpec(kind, sb::verifySecretA, sb::Scheme::Baseline),
        std::make_unique<Injected>());
    const auto b = sb::ExperimentRunner::runOne(
        gadgetSpec(kind, sb::verifySecretB, sb::Scheme::Baseline),
        std::make_unique<Injected>());
    return sb::foldVerifyPair(a, b, Injected().contract());
}

TEST(GadgetWorkloads, EncodingRoundTrips)
{
    for (const auto kind : sb::allGadgets()) {
        const std::string name = sb::gadgetWorkloadName(kind, 0xA7, 42);
        EXPECT_TRUE(sb::isGadgetWorkload(name));

        sb::GadgetKind parsed_kind;
        std::uint8_t secret = 0;
        std::uint64_t seed = 0;
        ASSERT_TRUE(sb::parseGadgetWorkload(name, parsed_kind, secret,
                                            seed))
            << name;
        EXPECT_EQ(parsed_kind, kind);
        EXPECT_EQ(secret, 0xA7);
        EXPECT_EQ(seed, 42u);
    }
}

TEST(GadgetWorkloads, ParseRejectsMalformed)
{
    sb::GadgetKind kind;
    std::uint8_t secret = 0;
    std::uint64_t seed = 0;
    for (const char *bad :
         {"505.mcf", "gadget:", "gadget:spectre-v1",
          "gadget:spectre-v1:secret=167", "gadget:nope:secret=1:seed=2",
          "gadget:spectre-v1:secret=0:seed=2",
          "gadget:spectre-v1:secret=256:seed=2",
          "gadget:spectre-v1:secret=x:seed=2",
          "gadget:spectre-v1:seed=2:secret=167"}) {
        EXPECT_FALSE(sb::parseGadgetWorkload(bad, kind, secret, seed))
            << bad;
    }
    EXPECT_FALSE(sb::isGadgetWorkload("505.mcf"));
}

TEST(GadgetWorkloads, SpecKeySeparatesSecretsAndGadgets)
{
    const auto a = gadgetSpec(sb::GadgetKind::SpectreV1,
                              sb::verifySecretA, sb::Scheme::Baseline);
    const auto a2 = gadgetSpec(sb::GadgetKind::SpectreV1,
                               sb::verifySecretA, sb::Scheme::Baseline);
    const auto b = gadgetSpec(sb::GadgetKind::SpectreV1,
                              sb::verifySecretB, sb::Scheme::Baseline);
    const auto mask =
        gadgetSpec(sb::GadgetKind::SpectreV1Mask, sb::verifySecretA,
                   sb::Scheme::Baseline);
    EXPECT_EQ(a.specKey(), a2.specKey());
    EXPECT_NE(a.specKey(), b.specKey());
    EXPECT_NE(a.specKey(), mask.specKey());
}

TEST(GadgetCells, RunOneRunsTheAttack)
{
    const auto spec = gadgetSpec(sb::GadgetKind::SpectreV1,
                                 sb::verifySecretA, sb::Scheme::Baseline);
    const auto out = sb::ExperimentRunner::runOne(spec);
    EXPECT_EQ(out.workload, spec.workload);
    // The cached encoding attackResult() decodes (bytes stored +1).
    EXPECT_EQ(out.stat("gadget_leaked"), 1u);
    EXPECT_EQ(out.stat("gadget_oracle_byte"),
              std::uint64_t(sb::verifySecretA) + 1);
    EXPECT_GT(out.stat("gadget_trace_len"), 0u);
    EXPECT_GT(out.transmitViolations, 0u);

    const auto safe = sb::ExperimentRunner::runOne(gadgetSpec(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::Scheme::SttRename));
    EXPECT_EQ(safe.stat("gadget_leaked"), 0u);
    EXPECT_EQ(safe.transmitViolations, 0u);
}

/** Where a gadget cell's first phase leaves the core. */
struct BarrierPause
{
    sb::Cycle cycle = 0;
    std::uint64_t committed = 0;
    std::vector<bool> probeCached; ///< Probe slots 1..255.
};

/**
 * Run @p spec's gadget to its first barrier commit the way a gadget
 * cell's phase 1 does (one run() that a commit hook stops), or with
 * the single-commit stepping loop it replaced.
 */
BarrierPause
pauseAtBarrier(const sb::RunSpec &spec, bool stepping)
{
    sb::GadgetKind kind{};
    std::uint8_t secret = 0;
    std::uint64_t seed = 0;
    EXPECT_TRUE(sb::parseGadgetWorkload(spec.workload, kind, secret, seed));
    const sb::GadgetProgram g = sb::buildGadgetProgram(kind, secret, seed);
    sb::Core core(spec.core, spec.scheme, sb::makeScheme(spec.scheme),
                  g.program);
    core.setContractShadowEnabled(true);
    core.enableObservationTrace();
    bool reached = false;
    core.setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
        if (inst.pc != g.barrierPc || reached)
            return;
        reached = true;
        if (!stepping)
            core.requestStop();
    });
    if (stepping) {
        while (!reached && !core.halted() && !core.watchdogTripped()
               && core.now() < 10'000'000)
            core.run(1, 10'000'000);
    } else {
        core.run(100'000'000, 10'000'000);
    }
    EXPECT_TRUE(reached) << spec.workload;
    BarrierPause pause;
    pause.cycle = core.now();
    pause.committed = core.committedInstructions();
    for (unsigned v = 1; v < 256; ++v)
        pause.probeCached.push_back(core.memorySystem().cached(
            sb::gadget_layout::array2Base
            + sb::Addr(v) * sb::gadget_layout::probeStride));
    return pause;
}

TEST(GadgetCells, BarrierPauseMatchesSteppingForEveryGadgetAndScheme)
{
    for (const sb::GadgetKind kind : sb::allGadgets()) {
        for (const sb::Scheme scheme : sb::allSchemes()) {
            const sb::RunSpec spec =
                gadgetSpec(kind, sb::verifySecretA, scheme);
            const std::string cell =
                spec.workload + " " + sb::schemeName(scheme);
            const BarrierPause stepped = pauseAtBarrier(spec, true);
            const BarrierPause paused = pauseAtBarrier(spec, false);
            EXPECT_EQ(paused.cycle, stepped.cycle) << cell;
            EXPECT_EQ(paused.committed, stepped.committed) << cell;
            EXPECT_TRUE(paused.probeCached == stepped.probeCached) << cell;

            // The cell's residency oracle reads that same pause.
            int oracle = -1;
            unsigned hits = 0;
            for (unsigned v = 1; v < 256; ++v) {
                if (stepped.probeCached[v - 1]) {
                    oracle = static_cast<int>(v);
                    ++hits;
                }
            }
            if (hits != 1)
                oracle = -1;
            EXPECT_EQ(sb::ExperimentRunner::runOne(spec).stat(
                          "gadget_oracle_byte"),
                      static_cast<std::uint64_t>(oracle + 1))
                << cell;
        }
    }
}

TEST(Battery, SpecsComeInAdjacentSecretPairs)
{
    sb::SchemeConfig baseline;
    const auto specs =
        sb::verifyBatterySpecs(sb::CoreConfig::mega(), {baseline});
    ASSERT_EQ(specs.size(), 2 * sb::allGadgets().size());
    for (std::size_t i = 0; i + 1 < specs.size(); i += 2) {
        sb::GadgetKind ka, kb;
        std::uint8_t sa = 0, sbyte = 0;
        std::uint64_t seed_a = 0, seed_b = 0;
        ASSERT_TRUE(sb::parseGadgetWorkload(specs[i].workload, ka, sa,
                                            seed_a));
        ASSERT_TRUE(sb::parseGadgetWorkload(specs[i + 1].workload, kb,
                                            sbyte, seed_b));
        EXPECT_EQ(ka, kb);
        EXPECT_EQ(sa, sb::verifySecretA);
        EXPECT_EQ(sbyte, sb::verifySecretB);
    }
}

TEST(Battery, FoldAndJsonOverEngineOutcomes)
{
    sb::SchemeConfig baseline;
    std::vector<sb::RunSpec> specs;
    for (std::uint8_t secret : {sb::verifySecretA, sb::verifySecretB}) {
        specs.push_back(gadgetSpec(sb::GadgetKind::SpectreV1, secret,
                                   sb::Scheme::Baseline));
    }
    sb::ExperimentEngine engine;
    const auto outcomes = engine.run(specs);

    const auto matrix = sb::foldVerifyOutcomes(outcomes);
    ASSERT_EQ(matrix.cells.size(), 1u);
    const auto &cell = matrix.cells[0];
    EXPECT_EQ(cell.gadget, "spectre-v1");
    EXPECT_TRUE(cell.leaked);
    EXPECT_TRUE(cell.armed);
    EXPECT_TRUE(cell.diverged);   // A leaky run is secret-dependent.
    EXPECT_EQ(cell.contract.policy, sb::ContractPolicy::None);
    // An unprotected leak must come with the pinpointed repro record
    // from the contract shadow engine.
    EXPECT_TRUE(cell.firstCtViolation.valid());
    EXPECT_GT(cell.ctViolations, 0u);
    EXPECT_TRUE(cell.pass());     // The baseline is *supposed* to leak.
    EXPECT_TRUE(matrix.ok());

    const sb::Json doc = sb::toJson(matrix);
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("cells").items().size(), 1u);
    EXPECT_EQ(doc.at("cells").items()[0].at("gadget").asString(),
              "spectre-v1");
}

/**
 * A scheme that *claims* the STT obligation but implements nothing:
 * the whole point of the differential checker is that this must be
 * caught, whatever its self-report says.
 */
class LeakyDummyScheme : public sb::SecureScheme
{
  public:
    const char *name() const override { return "LeakyDummy"; }
    sb::SecurityContract contract() const override
    {
        return sb::SecurityContract::transmitterSafe();
    }
};

TEST(Differential, LeakyDummySchemeIsCaught)
{
    const sb::VerifyCell cell =
        injectedPair<LeakyDummyScheme>(sb::GadgetKind::SpectreV1);

    // The do-nothing scheme leaks, and the paired observation traces
    // diverge: the differential signal fires with no knowledge of the
    // receivers at all.
    EXPECT_TRUE(cell.armed);
    EXPECT_TRUE(cell.diverged);
    EXPECT_GT(cell.transmitViolations, 0u);
    EXPECT_FALSE(cell.pass()) << "a leaky scheme claiming safety "
                                 "must fail verification";
}

TEST(GadgetCells, NewRosterSchemesBlockTheBattery)
{
    // DelayAll satisfies the full dataflow contract: no leak, no
    // violations of either obligation.
    const auto delay_all = attack(gadgetSpec(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::Scheme::DelayAll));
    EXPECT_FALSE(delay_all.leaked);
    EXPECT_EQ(delay_all.transmitViolations, 0u);
    EXPECT_EQ(delay_all.consumeViolations, 0u);

    // DoM blocks the channel without policing dataflow: no leak, yet
    // tainted transmitters legitimately execute on L1 hits — the
    // shadow's nonzero transmit count is the signature of the
    // leak-freedom-only contract.
    const auto dom = attack(gadgetSpec(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::Scheme::DelayOnMiss));
    EXPECT_FALSE(dom.leaked);
    EXPECT_GT(dom.transmitViolations, 0u);
}

TEST(Differential, DomPairedTracesAreEquivalent)
{
    // The leak-freedom contract DoM claims is exactly this: paired
    // secret-flipped runs must be observationally identical even
    // though the shadow records transmitter violations.
    for (const auto kind : sb::allGadgets()) {
        const auto res_a = attack(
            gadgetSpec(kind, sb::verifySecretA, sb::Scheme::DelayOnMiss));
        const auto res_b = attack(
            gadgetSpec(kind, sb::verifySecretB, sb::Scheme::DelayOnMiss));
        EXPECT_EQ(res_a.traceHash, res_b.traceHash)
            << sb::gadgetName(kind);
        EXPECT_EQ(res_a.cycles, res_b.cycles) << sb::gadgetName(kind);
        EXPECT_FALSE(res_a.leaked) << sb::gadgetName(kind);
        EXPECT_FALSE(res_b.leaked) << sb::gadgetName(kind);
    }
}

/**
 * A do-nothing scheme claiming only the observational contract: the
 * new leak-freedom verdict path must catch it through the
 * differential check alone (it has no dataflow obligation to trip).
 */
class LeakyObservationalScheme : public sb::SecureScheme
{
  public:
    const char *name() const override { return "LeakyObservational"; }
    sb::SecurityContract contract() const override
    {
        return sb::SecurityContract::sandboxing();
    }
};

TEST(Differential, LeakyLeakFreedomClaimantIsCaught)
{
    // Declares nothing stronger than observational leak freedom.
    const sb::VerifyCell cell =
        injectedPair<LeakyObservationalScheme>(sb::GadgetKind::SpectreV1);
    EXPECT_EQ(cell.judgedPolicy, sb::ContractPolicy::Sandboxing);
    EXPECT_TRUE(cell.leaked);
    EXPECT_TRUE(cell.diverged);
    EXPECT_FALSE(cell.pass()) << "a leaky scheme claiming only leak "
                                 "freedom must fail verification";
}

TEST(Battery, FoldCarriesTheContract)
{
    std::vector<sb::RunSpec> specs;
    for (std::uint8_t secret : {sb::verifySecretA, sb::verifySecretB}) {
        specs.push_back(gadgetSpec(sb::GadgetKind::SpectreV1, secret,
                                   sb::Scheme::DelayOnMiss));
    }
    sb::ExperimentEngine engine;
    const auto matrix = sb::foldVerifyOutcomes(engine.run(specs));
    ASSERT_EQ(matrix.cells.size(), 1u);
    const auto &cell = matrix.cells[0];
    EXPECT_EQ(cell.contract.policy, sb::ContractPolicy::Sandboxing);
    EXPECT_EQ(cell.judgedPolicy, sb::ContractPolicy::Sandboxing);
    EXPECT_TRUE(cell.contract.obligesLeakFreedom);
    EXPECT_FALSE(cell.contract.obligesTransmitterSafety);
    EXPECT_FALSE(cell.contract.obligesConsumeSafety);
    EXPECT_FALSE(cell.leaked);
    EXPECT_FALSE(cell.diverged);
    EXPECT_EQ(cell.sandboxViolations, 0u);
    EXPECT_TRUE(cell.pass());

    const sb::Json doc = sb::toJson(matrix);
    const auto &jcell = doc.at("cells").items()[0];
    EXPECT_EQ(jcell.at("contract").asString(), "sandboxing");
    EXPECT_EQ(jcell.at("judged_contract").asString(), "sandboxing");
    EXPECT_TRUE(jcell.at("obliges_leak_freedom").asBool());
}

TEST(Battery, ConstantTimeOverrideJudgesDeclaredCells)
{
    std::vector<sb::RunSpec> specs;
    for (sb::Scheme s :
         {sb::Scheme::Baseline, sb::Scheme::DelayOnMiss}) {
        for (std::uint8_t secret :
             {sb::verifySecretA, sb::verifySecretB}) {
            specs.push_back(
                gadgetSpec(sb::GadgetKind::SpectreV1, secret, s));
        }
    }
    sb::ExperimentEngine engine;
    const auto matrix = sb::foldVerifyOutcomes(
        engine.run(specs), sb::ContractPolicy::ConstantTime);
    ASSERT_EQ(matrix.cells.size(), 2u);
    for (const auto &cell : matrix.cells) {
        if (cell.scheme == sb::Scheme::Baseline) {
            // The override never touches undeclared cells: Baseline
            // keeps its armed-proof role, and its shadow record is the
            // evidence that it violates constant-time.
            EXPECT_EQ(cell.judgedPolicy, sb::ContractPolicy::None);
            EXPECT_GT(cell.ctViolations, 0u);
            EXPECT_TRUE(cell.firstCtViolation.valid());
        } else {
            EXPECT_EQ(cell.judgedPolicy,
                      sb::ContractPolicy::ConstantTime);
            // DoM never lets the secret reach a transmitter on this
            // battery (the transient read is the only access, and the
            // judged CT count is over executed transmitters).
            EXPECT_EQ(cell.ctViolations, 0u);
        }
        EXPECT_TRUE(cell.pass());
    }
    EXPECT_TRUE(matrix.ok());
}

// ---------------------------------------------------------------------
// Software-mitigation closure (isa/transform.hh co-study)
// ---------------------------------------------------------------------

/** One attack run on the unprotected core with @p m applied. */
sb::AttackResult
runMitigated(sb::GadgetKind kind, sb::Mitigation m,
             std::uint8_t secret)
{
    sb::RunSpec spec = gadgetSpec(kind, secret, sb::Scheme::Baseline);
    spec.mitigation.kind = m;
    return attack(spec);
}

TEST(MitigationClosure, ClosureMapMatchesTheDesign)
{
    using sb::GadgetKind;
    using sb::Mitigation;
    for (const GadgetKind g : sb::allGadgets())
        EXPECT_FALSE(sb::mitigationCloses(Mitigation::None, g));
    for (const Mitigation m : {Mitigation::Slh, Mitigation::Fence}) {
        EXPECT_TRUE(sb::mitigationCloses(m, GadgetKind::SpectreV1));
        EXPECT_TRUE(sb::mitigationCloses(m, GadgetKind::SpectreV1Mask));
        EXPECT_TRUE(
            sb::mitigationCloses(m, GadgetKind::SpectreV1Swapgs));
        EXPECT_FALSE(
            sb::mitigationCloses(m, GadgetKind::SpectreV2Indirect));
        EXPECT_FALSE(
            sb::mitigationCloses(m, GadgetKind::SpectreV2CrossDomain));
        EXPECT_FALSE(
            sb::mitigationCloses(m, GadgetKind::SpectreV4StoreBypass));
    }
    EXPECT_TRUE(sb::mitigationCloses(Mitigation::Retpoline,
                                     GadgetKind::SpectreV2Indirect));
    EXPECT_TRUE(sb::mitigationCloses(Mitigation::Retpoline,
                                     GadgetKind::SpectreV2CrossDomain));
    EXPECT_FALSE(sb::mitigationCloses(Mitigation::Retpoline,
                                      GadgetKind::SpectreV1));
    EXPECT_FALSE(sb::mitigationCloses(Mitigation::Retpoline,
                                      GadgetKind::SpectreV1Swapgs));
    // Nothing in the software roster closes the store-bypass channel.
    for (const Mitigation m : sb::allMitigations())
        EXPECT_FALSE(
            sb::mitigationCloses(m, GadgetKind::SpectreV4StoreBypass));
}

TEST(MitigationClosure, TargetGadgetsFlipToClosedOnBaseline)
{
    const struct
    {
        sb::Mitigation m;
        sb::GadgetKind g;
    } targets[] = {
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV1},
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV1Mask},
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV1Swapgs},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV1},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV1Mask},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV1Swapgs},
        {sb::Mitigation::Retpoline, sb::GadgetKind::SpectreV2Indirect},
        {sb::Mitigation::Retpoline,
         sb::GadgetKind::SpectreV2CrossDomain},
    };
    for (const auto &t : targets) {
        ASSERT_TRUE(sb::mitigationCloses(t.m, t.g));
        const std::string label = std::string(sb::mitigationName(t.m))
                                  + " x " + sb::gadgetName(t.g);

        // Unmitigated Baseline: demonstrably armed, with the contract
        // shadow engine's pinpointed (cycle, seq, pc) leak record.
        const auto bare = attack(
            gadgetSpec(t.g, sb::verifySecretA, sb::Scheme::Baseline));
        ASSERT_TRUE(bare.leaked) << label;
        ASSERT_TRUE(bare.firstCtViolation.valid()) << label;

        // Mitigated: the cell flips to PASS — no recovery through
        // either receiver, and the first-violation record is *gone*
        // (the secret never reached a transmitter at all).
        const auto hard = runMitigated(t.g, t.m, sb::verifySecretA);
        EXPECT_FALSE(hard.leaked) << label;
        EXPECT_FALSE(hard.firstCtViolation.valid()) << label;
        EXPECT_EQ(hard.ctViolations, 0u) << label;
    }
}

TEST(MitigationClosure, NonTargetGadgetsStayArmed)
{
    // A pass must not quietly perturb a gadget it does not claim:
    // the attack still recovers the secret through the rewritten
    // program.
    const struct
    {
        sb::Mitigation m;
        sb::GadgetKind g;
    } non_targets[] = {
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV2Indirect},
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV4StoreBypass},
        {sb::Mitigation::Slh, sb::GadgetKind::SpectreV2CrossDomain},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV2Indirect},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV4StoreBypass},
        {sb::Mitigation::Fence, sb::GadgetKind::SpectreV2CrossDomain},
        {sb::Mitigation::Retpoline, sb::GadgetKind::SpectreV1},
        {sb::Mitigation::Retpoline, sb::GadgetKind::SpectreV1Swapgs},
    };
    for (const auto &t : non_targets) {
        ASSERT_FALSE(sb::mitigationCloses(t.m, t.g));
        const auto res = runMitigated(t.g, t.m, sb::verifySecretA);
        EXPECT_TRUE(res.leaked)
            << sb::mitigationName(t.m) << " x " << sb::gadgetName(t.g);
    }
}

TEST(MitigationClosure, WeakenedSlhIsStillCaught)
{
    // SLH with a control-flow-derived (not data-dependent) mask keeps
    // the full pass shape but hardens nothing: transient execution
    // runs the wrong pad's immediate. The verifier must still catch
    // the leak — this is the leaky-dummy-scheme test for transforms.
    const sb::GadgetProgram gadget = sb::buildGadgetProgram(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::verifyGadgetSeed);
    const sb::TransformedProgram weak =
        sb::applySlh(gadget.program, /*data_dependent_mask=*/false);
    // Same instrumentation shape as the honest pass...
    const sb::TransformedProgram honest =
        sb::applySlh(gadget.program, /*data_dependent_mask=*/true);
    EXPECT_EQ(weak.stats.hardenedLoads, honest.stats.hardenedLoads);
    EXPECT_EQ(weak.stats.instrumentedBranches,
              honest.stats.instrumentedBranches);

    // No RunSpec names a broken pass, so drive the gadget cell by hand
    // on the transformed program (unprotected Baseline), with commits
    // mapped back through origin() exactly as runOne maps them.
    const auto attack_through = [](const sb::TransformedProgram &t) {
        const sb::RunSpec spec =
            gadgetSpec(sb::GadgetKind::SpectreV1, sb::verifySecretA,
                       sb::Scheme::Baseline);
        const std::unique_ptr<sb::CellDriver> cell =
            sb::makeGadgetCell(spec);
        sb::Core core(spec.core, spec.scheme, sb::makeScheme(spec.scheme),
                      t.program);
        core.setContractShadowEnabled(true);
        core.setCommitHook([&t, &cell](const sb::DynInst &inst,
                                       sb::Cycle at) {
            const std::int64_t pc = t.origin(inst.pc);
            if (pc >= 0)
                cell->onCommit(inst, static_cast<std::uint32_t>(pc), at);
        });
        sb::RunOutcome out = sb::outcomeHeader(spec);
        cell->drive(core, out);
        return sb::attackResult(out);
    };

    // The receivers recover the secret, and the shadow pinpoints the
    // gadget's own transmit...
    const sb::AttackResult res = attack_through(weak);
    EXPECT_TRUE(res.leaked);
    ASSERT_TRUE(res.firstCtViolation.valid());
    EXPECT_EQ(weak.origin(res.firstCtViolation.pc), gadget.transmitPc);

    // ...while the honest mask closes the same gadget.
    const sb::AttackResult closed = attack_through(honest);
    EXPECT_FALSE(closed.leaked);
    EXPECT_FALSE(closed.firstCtViolation.valid());
}

TEST(MitigationBattery, SpecsHalvesAlignAndFoldJudgesClosure)
{
    sb::SchemeConfig baseline;
    const auto specs = sb::mitigationBatterySpecs(
        sb::CoreConfig::mega(), {baseline}, sb::Mitigation::Slh);
    const std::size_t half = specs.size() / 2;
    ASSERT_EQ(specs.size(), 4 * sb::allGadgets().size());
    for (std::size_t i = 0; i < half; ++i) {
        EXPECT_EQ(specs[i].workload, specs[half + i].workload);
        EXPECT_FALSE(specs[i].mitigation.enabled());
        EXPECT_EQ(specs[half + i].mitigation.kind, sb::Mitigation::Slh);
    }

    sb::ExperimentEngine engine;
    const sb::MitigationReport report = sb::foldMitigationOutcomes(
        sb::Mitigation::Slh, engine.run(specs));
    ASSERT_EQ(report.cells.size(), sb::allGadgets().size());
    for (const sb::MitigationCell &cell : report.cells) {
        // SLH keys on conditional branches: it closes the classic and
        // masked bounds-check bypasses plus the swapgs variant (whose
        // transient entry is also a trained conditional branch).
        const bool is_v1 = cell.gadget == "spectre-v1"
                           || cell.gadget == "spectre-v1-mask"
                           || cell.gadget == "spectre-v1-swapgs";
        EXPECT_EQ(cell.target, is_v1) << cell.gadget;
        EXPECT_EQ(cell.closed, is_v1) << cell.gadget;
        EXPECT_EQ(cell.armed, !is_v1) << cell.gadget;
        EXPECT_GT(cell.cyclesBase, 0u);
        EXPECT_GT(cell.cyclesMitigated, 0u);
        EXPECT_TRUE(cell.pass()) << cell.gadget;
    }
    EXPECT_TRUE(report.ok());

    const sb::Json doc = sb::toJson(report);
    EXPECT_EQ(doc.at("mitigation").asString(), "slh");
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("cells").items().size(),
              sb::allGadgets().size());
}

TEST(Differential, SecureSchemeTracesAreEquivalent)
{
    // Positive control for the equivalence check: under STT-Rename
    // the paired traces must be bit-identical, so the differential
    // checker's pass is meaningful (not just an insensitive hash).
    const auto res_a = attack(gadgetSpec(sb::GadgetKind::SpectreV2Indirect,
                                         sb::verifySecretA,
                                         sb::Scheme::SttRename));
    const auto res_b = attack(gadgetSpec(sb::GadgetKind::SpectreV2Indirect,
                                         sb::verifySecretB,
                                         sb::Scheme::SttRename));
    EXPECT_EQ(res_a.traceHash, res_b.traceHash);
    EXPECT_EQ(res_a.traceLength, res_b.traceLength);
    EXPECT_EQ(res_a.cycles, res_b.cycles);
    EXPECT_GT(res_a.traceLength, 0u);
}

} // anonymous namespace
