/**
 * @file
 * The software-mitigation pass framework's own regression net:
 * name/vocabulary round-trips for the CLI, structural invariants of
 * the in-place thunking strategy (PC provenance, scratch-register
 * discipline, per-pass instrumentation counts), differential
 * transform-correctness over the committed seed corpus and the
 * kernel suite, and the 50-program SLH conformance campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/number.hh"
#include "common/roster.hh"
#include "core/core.hh"
#include "harness/conformance.hh"
#include "harness/engine.hh"
#include "harness/verify.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"
#include "trace/spec_suite.hh"

#ifndef SB_CORPUS_DIR
#error "SB_CORPUS_DIR must point at tests/corpus"
#endif

namespace
{

/** The three real passes (None is the identity and tested apart). */
const std::vector<sb::Mitigation> &
activeMitigations()
{
    static const std::vector<sb::Mitigation> roster = {
        sb::Mitigation::Slh,
        sb::Mitigation::Fence,
        sb::Mitigation::Retpoline,
    };
    return roster;
}

// ---------------------------------------------------------------------
// Name round-trips (the `sbsim fuzz --profile/--mitigation` vocabulary)
// ---------------------------------------------------------------------

TEST(Vocabulary, MitigationNamesRoundTrip)
{
    const auto &roster = sb::allMitigations();
    for (const sb::Mitigation m : roster) {
        sb::Mitigation back;
        ASSERT_TRUE(sb::fromName(roster, sb::mitigationName,
                                 sb::mitigationName(m), back))
            << sb::mitigationName(m);
        EXPECT_EQ(back, m);
    }
    sb::Mitigation out;
    for (const char *bad : {"", "SLH", "retpolines", "lfence", "nope"})
        EXPECT_FALSE(sb::fromName(roster, sb::mitigationName, bad, out))
            << bad;
    // The CLI diagnostic enumerates exactly the parseable names.
    EXPECT_EQ(sb::vocabulary(roster, sb::mitigationName),
              "none|slh|fence|retpoline");
}

TEST(Vocabulary, OpMixProfileNamesRoundTrip)
{
    const auto roster = sb::allOpMixProfiles();
    for (const sb::OpMixProfile p : roster) {
        sb::OpMixProfile back;
        ASSERT_TRUE(sb::fromName(roster, sb::opMixProfileName,
                                 sb::opMixProfileName(p), back))
            << sb::opMixProfileName(p);
        EXPECT_EQ(back, p);
    }
    sb::OpMixProfile out;
    for (const char *bad : {"", "Mixed", "memory", "branchy"})
        EXPECT_FALSE(sb::fromName(roster, sb::opMixProfileName, bad, out))
            << bad;
}

// ---------------------------------------------------------------------
// Structural invariants of the in-place thunking strategy
// ---------------------------------------------------------------------

/**
 * Every original PC must be represented exactly once in the rewritten
 * program (either left in place or relocated into a thunk), glue must
 * be marked -1, and original code slots must keep their indices —
 * programs store code addresses in data memory, so any shift is a
 * silent miscompile.
 */
void
checkProvenance(const sb::Program &original,
                const sb::TransformedProgram &t)
{
    ASSERT_EQ(t.originPc.size(), t.program.code.size());
    ASSERT_GE(t.program.code.size(), original.code.size());
    std::vector<unsigned> seen(original.code.size(), 0);
    for (std::size_t pc = 0; pc < t.originPc.size(); ++pc) {
        const std::int64_t orig = t.originPc[pc];
        if (orig < 0)
            continue;
        ASSERT_LT(static_cast<std::size_t>(orig), seen.size());
        ++seen[static_cast<std::size_t>(orig)];
        // An untouched slot stands for itself.
        if (pc < original.code.size()) {
            EXPECT_EQ(orig, static_cast<std::int64_t>(pc));
        }
    }
    for (std::size_t pc = 0; pc < seen.size(); ++pc)
        EXPECT_EQ(seen[pc], 1u) << "original pc " << pc;
}

TEST(TransformStructure, NoneIsTheIdentity)
{
    const sb::GadgetProgram gadget = sb::buildGadgetProgram(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::verifyGadgetSeed);
    const sb::TransformedProgram t =
        sb::applyMitigation(sb::Mitigation::None, gadget.program);
    ASSERT_EQ(t.program.code.size(), gadget.program.code.size());
    for (std::size_t pc = 0; pc < t.originPc.size(); ++pc)
        EXPECT_EQ(t.originPc[pc], static_cast<std::int64_t>(pc));
    EXPECT_EQ(t.stats.hardenedLoads, 0u);
    EXPECT_EQ(t.stats.loweredIndirects, 0u);
}

TEST(TransformStructure, SlhInstrumentsAndKeepsProvenance)
{
    const sb::GadgetProgram gadget = sb::buildGadgetProgram(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::verifyGadgetSeed);
    const sb::TransformedProgram t =
        sb::applyMitigation(sb::Mitigation::Slh, gadget.program);
    checkProvenance(gadget.program, t);
    EXPECT_GT(t.stats.instrumentedBranches, 0u);
    EXPECT_GT(t.stats.hardenedLoads, 0u);
    // Three distinct scratch registers the program never names.
    EXPECT_NE(t.stats.maskReg, sb::invalidArchReg);
    EXPECT_NE(t.stats.tmpReg, sb::invalidArchReg);
    EXPECT_NE(t.stats.zeroReg, sb::invalidArchReg);
    EXPECT_NE(t.stats.maskReg, t.stats.tmpReg);
    EXPECT_NE(t.stats.tmpReg, t.stats.zeroReg);
    for (const sb::MicroOp &uop : gadget.program.code) {
        if (uop.hasDst()) {
            EXPECT_NE(uop.dst, t.stats.maskReg);
        }
    }
    EXPECT_EQ(t.program.name, gadget.program.name + "+slh");
}

TEST(TransformStructure, FencePairsEveryInstrumentedBranch)
{
    const sb::GadgetProgram gadget = sb::buildGadgetProgram(
        sb::GadgetKind::SpectreV1, sb::verifySecretA,
        sb::verifyGadgetSeed);
    const sb::TransformedProgram t =
        sb::applyMitigation(sb::Mitigation::Fence, gadget.program);
    checkProvenance(gadget.program, t);
    EXPECT_GT(t.stats.instrumentedBranches, 0u);
    EXPECT_EQ(t.stats.fencesInserted,
              2 * t.stats.instrumentedBranches);
    unsigned fences = 0;
    for (const sb::MicroOp &uop : t.program.code)
        fences += uop.op == sb::Op::Fence;
    EXPECT_EQ(fences, t.stats.fencesInserted);
}

TEST(TransformStructure, RetpolineLowersEveryIndirect)
{
    const sb::GadgetProgram gadget = sb::buildGadgetProgram(
        sb::GadgetKind::SpectreV2Indirect, sb::verifySecretA,
        sb::verifyGadgetSeed);
    const sb::TransformedProgram t =
        sb::applyMitigation(sb::Mitigation::Retpoline, gadget.program);
    checkProvenance(gadget.program, t);
    EXPECT_GT(t.stats.loweredIndirects, 0u);
    unsigned jmpregs = 0, jrrs = 0;
    for (const sb::MicroOp &uop : t.program.code) {
        jmpregs += uop.op == sb::Op::JmpReg;
        jrrs += uop.op == sb::Op::JmpRegRet;
    }
    EXPECT_EQ(jmpregs, 0u) << "an un-lowered JmpReg survived";
    EXPECT_EQ(jrrs, t.stats.loweredIndirects);
}

TEST(TransformStructure, ProvenanceHoldsOnGeneratedPrograms)
{
    for (const std::uint64_t seed : {7ull, 1000ull, 4242ull}) {
        sb::GeneratorParams gen;
        gen.seed = seed;
        const sb::Program program = sb::generateProgram(gen);
        for (const sb::Mitigation m : activeMitigations()) {
            const sb::TransformedProgram t =
                sb::applyMitigation(m, program);
            checkProvenance(program, t);
        }
    }
}

// ---------------------------------------------------------------------
// Differential transform-correctness: corpus replay
// ---------------------------------------------------------------------

struct CorpusEntry
{
    std::string file;
    std::uint64_t seed = 0;
    sb::OpMixProfile profile = sb::OpMixProfile::Mixed;
    unsigned iters = 32;
};

std::vector<CorpusEntry>
loadCorpus()
{
    std::vector<CorpusEntry> entries;
    std::vector<std::filesystem::path> files;
    for (const auto &dirent :
         std::filesystem::directory_iterator(SB_CORPUS_DIR)) {
        if (dirent.path().extension() == ".seed")
            files.push_back(dirent.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        CorpusEntry entry;
        entry.file = path.filename().string();
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const auto eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 1);
            if (key == "seed") {
                EXPECT_TRUE(sb::parseUnsigned(
                    value, entry.seed,
                    std::numeric_limits<std::uint64_t>::max(),
                    sb::Radix::DecimalOrHex))
                    << entry.file;
            } else if (key == "profile") {
                EXPECT_TRUE(sb::fromName(sb::allOpMixProfiles(),
                                         sb::opMixProfileName, value,
                                         entry.profile))
                    << entry.file;
            } else if (key == "iters") {
                std::uint64_t iters = 0;
                EXPECT_TRUE(sb::parseUnsigned(
                    value, iters, std::numeric_limits<unsigned>::max()))
                    << entry.file;
                entry.iters = static_cast<unsigned>(iters);
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

TEST(TransformCorrectness, CorpusStaysEquivalentUnderEveryTransform)
{
    const auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 8u)
        << "committed corpus went missing from " << SB_CORPUS_DIR;

    for (const sb::Mitigation m : activeMitigations()) {
        for (const CorpusEntry &entry : corpus) {
            sb::FuzzParams params;
            params.baseSeed = entry.seed;
            params.programs = 1;
            params.profiles = {entry.profile};
            params.outerIterations = entry.iters;
            params.mitigation = m;
            const auto specs = sb::fuzzSpecs(params);
            ASSERT_EQ(specs.size(),
                      sb::allSchemeConfigs().size() + 1);
            std::vector<sb::RunOutcome> outcomes;
            for (const sb::RunSpec &spec : specs)
                outcomes.push_back(sb::ExperimentRunner::runOne(spec));
            const sb::FuzzReport report =
                sb::foldFuzzOutcomes(params, outcomes);
            EXPECT_TRUE(report.ok())
                << entry.file << " under " << sb::mitigationName(m)
                << ": "
                << (report.failures.empty()
                        ? "no cells ran"
                        : report.failures[0].kind + ": "
                              + report.failures[0].detail);
        }
    }
}

// ---------------------------------------------------------------------
// Differential transform-correctness: kernel suite
// ---------------------------------------------------------------------

/**
 * Kernels never halt (they are windowed workloads), so equivalence is
 * judged on a bounded prefix: the committed-PC stream of the
 * untransformed kernel must equal the origin-mapped, glue-filtered
 * committed-PC stream of the transformed one, element for element.
 */
TEST(TransformCorrectness, KernelCommitStreamsMatchModuloGlue)
{
    sb::SchemeConfig baseline;
    for (const std::string &name :
         {std::string("505.mcf"), std::string("541.leela"),
          std::string("557.xz")}) {
        const sb::Workload workload = sb::SpecSuite::make(name);

        std::vector<std::uint32_t> reference;
        sb::Core ref(sb::CoreConfig::mega(), baseline,
                     sb::makeScheme(baseline), workload.program);
        ref.setCommitHook(
            [&reference](const sb::DynInst &inst, sb::Cycle) {
                if (reference.size() < 30000)
                    reference.push_back(inst.pc);
            });
        ref.run(30000, 1'000'000);
        ASSERT_GE(reference.size(), 20000u) << name;

        for (const sb::Mitigation m : activeMitigations()) {
            const sb::TransformedProgram t =
                sb::applyMitigation(m, workload.program);
            std::vector<std::uint32_t> mapped;
            sb::Core core(sb::CoreConfig::mega(), baseline,
                          sb::makeScheme(baseline), t.program);
            core.setCommitHook(
                [&mapped, &t](const sb::DynInst &inst, sb::Cycle) {
                    const std::int64_t orig = t.origin(inst.pc);
                    if (orig >= 0 && mapped.size() < 30000)
                        mapped.push_back(
                            static_cast<std::uint32_t>(orig));
                });
            // Generous raw budget: the transform pads the stream with
            // glue, so reaching 30000 *useful* commits takes more
            // committed instructions and cycles.
            core.run(400'000, 4'000'000);

            const std::size_t n =
                std::min(reference.size(), mapped.size());
            ASSERT_GE(n, 20000u)
                << name << " under " << sb::mitigationName(m);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(mapped[i], reference[i])
                    << name << " under " << sb::mitigationName(m)
                    << " diverges at useful commit " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The SLH conformance campaign (sbsim fuzz --mitigation slh)
// ---------------------------------------------------------------------

TEST(MitigationFuzz, FiftyProgramsSevenSchemesStayEquivalentUnderSlh)
{
    sb::FuzzParams params; // 50 programs, full roster, mega core.
    params.mitigation = sb::Mitigation::Slh;
    sb::ExperimentEngine engine;
    const sb::FuzzReport report =
        sb::foldFuzzOutcomes(params, engine.run(sb::fuzzSpecs(params)));
    EXPECT_EQ(report.cells,
              50 * (sb::allSchemeConfigs().size() + 1));
    for (const sb::FuzzFailure &f : report.failures) {
        ADD_FAILURE() << f.kind << " seed=" << f.seed << ": "
                      << f.detail << "\n  repro: "
                      << f.repro(report.coreName);
    }
    EXPECT_TRUE(report.ok());
}

TEST(MitigationFuzz, ReproLineCarriesTheMitigation)
{
    sb::FuzzFailure f;
    f.seed = 99;
    f.profile = sb::OpMixProfile::MemHeavy;
    f.mitigation = sb::Mitigation::Slh;
    const std::string repro = f.repro("mega");
    EXPECT_NE(repro.find("--seed 99"), std::string::npos) << repro;
    EXPECT_NE(repro.find("--mitigation slh"), std::string::npos)
        << repro;
}

} // anonymous namespace
