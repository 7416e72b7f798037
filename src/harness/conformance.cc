#include "harness/conformance.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "harness/cell_driver.hh"
#include "harness/scenario.hh"
#include "secure/factory.hh"

namespace sb
{

namespace
{

constexpr const char *fuzzPrefix = "fuzz:";

/** The fixed campaign behind the "conformance" scenario. */
FuzzParams
scenarioParams()
{
    FuzzParams params;
    params.baseSeed = 0xC0FFEE;
    params.programs = 8;
    return params;
}

} // anonymous namespace

std::string
fuzzWorkloadName(OpMixProfile profile, std::uint64_t seed,
                 unsigned iterations)
{
    std::string name = fuzzPrefix;
    name += opMixProfileName(profile);
    name += ":seed=" + std::to_string(seed);
    name += ":iters=" + std::to_string(iterations);
    return name;
}

bool
isFuzzWorkload(const std::string &workload)
{
    return workload.rfind(fuzzPrefix, 0) == 0;
}

bool
parseFuzzWorkload(const std::string &workload, OpMixProfile &profile,
                  std::uint64_t &seed, unsigned &iterations)
{
    if (!isFuzzWorkload(workload))
        return false;
    const std::size_t profile_begin = std::strlen(fuzzPrefix);
    const std::size_t profile_end = workload.find(':', profile_begin);
    if (profile_end == std::string::npos)
        return false;
    OpMixProfile parsed_profile;
    if (!opMixProfileFromName(
            workload.substr(profile_begin, profile_end - profile_begin),
            parsed_profile))
        return false;

    std::uint64_t parsed_seed = 0;
    unsigned parsed_iters = 0;
    const std::string rest = workload.substr(profile_end);
    if (std::sscanf(rest.c_str(), ":seed=%" SCNu64 ":iters=%u",
                    &parsed_seed, &parsed_iters)
            != 2
        || parsed_iters == 0
        || fuzzWorkloadName(parsed_profile, parsed_seed, parsed_iters)
               != workload)
        return false;

    profile = parsed_profile;
    seed = parsed_seed;
    iterations = parsed_iters;
    return true;
}

namespace
{

/** One generated program run to halt, fingerprinted for the oracle. */
class FuzzCell final : public CellDriver
{
  public:
    explicit FuzzCell(const RunSpec &spec) : spec(spec)
    {
        GeneratorParams gen;
        if (!parseFuzzWorkload(spec.workload, gen.profile, gen.seed,
                               gen.outerIterations))
            sb_fatal("malformed fuzz workload '", spec.workload, "'");
        generated = generateProgram(gen);
    }

    const Program &program() const override { return generated; }

    // Every commit arrives here (glue excepted), so the count is the
    // whole run's unmitigated, and only the useful work mitigated.
    void
    onCommit(const DynInst &, std::uint32_t pc, Cycle) override
    {
        commitHash = fnv1aWord(commitHash, pc);
        ++useful;
    }

    void
    drive(Core &core, RunOutcome &out) override
    {
        core.setInvariantsEnabled(true);
        const RunResult r =
            core.run(std::numeric_limits<std::uint64_t>::max() / 2,
                     spec.maxCycles);

        std::uint64_t reg_hash = fnv1aBasis;
        for (ArchReg reg = 0; reg < numArchRegs; ++reg)
            reg_hash = fnv1aWord(reg_hash, core.readArchReg(reg));
        const ContractShadow &shadow = core.contractShadow();
        const ContractViolation &first = shadow.firstSandboxViolation();
        // A deadlock is this kind's own (cacheable) verdict; a run
        // the stop check ended carries runOne's supervision marker.
        const bool deadlocked = r.watchdogTripped && !core.stopped();

        out.cycles = r.cycles;
        out.instructions = useful;
        out.stats["fuzz_reg_hash"] = reg_hash;
        out.stats["fuzz_mem_hash"] = core.memoryImage().fingerprint();
        out.stats["fuzz_commit_hash"] = commitHash;
        out.stats["fuzz_halted"] = r.halted ? 1 : 0;
        out.stats["fuzz_watchdog"] = deadlocked ? 1 : 0;
        out.stats["fuzz_invariant_violations"] =
            core.invariants().violations();
        out.stats["fuzz_sandbox_viol"] = shadow.sandboxViolations();
        out.stats["fuzz_ct_viol"] = shadow.ctViolations();
        out.stats["fuzz_first_sandbox_cycle"] =
            first.valid() ? first.cycle : 0;
        out.stats["fuzz_first_sandbox_pc"] = first.valid() ? first.pc : 0;
    }

  private:
    const RunSpec &spec;
    Program generated;
    std::uint64_t commitHash = fnv1aBasis;
    std::uint64_t useful = 0;
};

} // anonymous namespace

std::unique_ptr<CellDriver>
makeFuzzCell(const RunSpec &spec)
{
    return std::make_unique<FuzzCell>(spec);
}

ConformanceCell
conformanceCell(const RunOutcome &outcome)
{
    ConformanceCell cell;
    cell.regHash = outcome.stat("fuzz_reg_hash");
    cell.memHash = outcome.stat("fuzz_mem_hash");
    cell.commitHash = outcome.stat("fuzz_commit_hash");
    cell.instructions = outcome.instructions;
    cell.cycles = outcome.cycles;
    cell.halted = outcome.stat("fuzz_halted") != 0;
    cell.watchdogTripped = outcome.stat("fuzz_watchdog") != 0;
    cell.invariantViolations = outcome.stat("fuzz_invariant_violations");
    cell.transmitViolations = outcome.transmitViolations;
    cell.consumeViolations = outcome.consumeViolations;
    cell.sandboxViolations = outcome.stat("fuzz_sandbox_viol");
    cell.ctViolations = outcome.stat("fuzz_ct_viol");
    cell.firstSandboxCycle = outcome.stat("fuzz_first_sandbox_cycle");
    cell.firstSandboxPc = outcome.stat("fuzz_first_sandbox_pc");
    return cell;
}

OpMixProfile
FuzzParams::profileFor(unsigned index) const
{
    const std::vector<OpMixProfile> pool =
        profiles.empty() ? allOpMixProfiles() : profiles;
    return pool[index % pool.size()];
}

std::string
FuzzFailure::repro(const std::string &core_name) const
{
    std::string cmd = "sbsim fuzz --programs 1 --seed "
                      + std::to_string(seed) + " --profile "
                      + opMixProfileName(profile);
    if (!core_name.empty() && core_name != "mega")
        cmd += " --core " + core_name;
    if (mitigation != Mitigation::None)
        cmd += std::string(" --mitigation ") + mitigationName(mitigation);
    return cmd;
}

std::vector<RunSpec>
fuzzSpecs(const FuzzParams &params)
{
    const bool mitigated = params.mitigation != Mitigation::None;
    std::vector<RunSpec> specs;
    specs.reserve(params.programs
                  * (allSchemeConfigs().size() + (mitigated ? 1 : 0)));
    for (unsigned p = 0; p < params.programs; ++p) {
        const std::string workload =
            fuzzWorkloadName(params.profileFor(p), params.programSeed(p),
                             params.outerIterations);
        if (mitigated) {
            // The architectural oracle: the untransformed program on
            // the Baseline core. Every mitigated cell — including the
            // mitigated Baseline — is judged against this one.
            RunSpec oracle;
            oracle.core = params.core;
            oracle.scheme = allSchemeConfigs().front();
            oracle.workload = workload;
            oracle.maxCycles = params.maxCycles;
            specs.push_back(std::move(oracle));
        }
        for (const SchemeConfig &scheme : allSchemeConfigs()) {
            RunSpec spec;
            spec.core = params.core;
            spec.scheme = scheme;
            spec.workload = workload;
            spec.maxCycles = params.maxCycles;
            spec.mitigation.kind = params.mitigation;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

FuzzReport
foldFuzzOutcomes(const FuzzParams &params,
                 const std::vector<RunOutcome> &outcomes)
{
    const std::vector<SchemeConfig> schemes = allSchemeConfigs();
    const bool mitigated = params.mitigation != Mitigation::None;
    const std::size_t stride = schemes.size() + (mitigated ? 1 : 0);
    sb_assert(outcomes.size() == params.programs * stride,
              "fuzz outcome count does not match the campaign");
    sb_assert(!schemes.empty()
                  && schemes.front().scheme == Scheme::Baseline,
              "scheme roster must lead with Baseline");

    FuzzReport report;
    report.programs = params.programs;
    report.cells = static_cast<unsigned>(outcomes.size());
    report.coreName = params.core.name;
    report.mitigation = params.mitigation;
    for (const RunOutcome &outcome : outcomes)
        report.unfinished += !outcomeIsCacheable(outcome);

    // The contract each scheme declares is constant per scheme:
    // resolve the descriptors once, not per (program, scheme) cell.
    std::vector<SecurityContract> contracts;
    contracts.reserve(schemes.size());
    for (const SchemeConfig &scfg : schemes)
        contracts.push_back(makeScheme(scfg)->contract());

    for (unsigned p = 0; p < params.programs; ++p) {
        const std::uint64_t seed = params.programSeed(p);
        const OpMixProfile profile = params.profileFor(p);
        const std::size_t base_idx = std::size_t(p) * stride;
        // The oracle: with a mitigation the extra leading unmitigated
        // Baseline cell; otherwise the roster's Baseline cell itself.
        const ConformanceCell baseline =
            conformanceCell(outcomes[base_idx]);

        auto add = [&](Scheme scheme, const char *kind,
                       std::string detail,
                       Mitigation m = Mitigation::None) {
            FuzzFailure f;
            f.seed = seed;
            f.profile = profile;
            f.scheme = scheme;
            f.mitigation = m;
            f.kind = kind;
            f.detail = std::move(detail);
            report.failures.push_back(std::move(f));
        };

        // A cell supervision cut short ran only part of its program:
        // its stats say nothing about liveness or equivalence (it is
        // counted above), and without its oracle no cell of this
        // program can be judged.
        if (!outcomeIsCacheable(outcomes[base_idx]))
            continue;
        if (!baseline.halted || baseline.watchdogTripped) {
            add(Scheme::Baseline, "deadlock",
                baseline.watchdogTripped
                    ? "baseline run tripped the watchdog"
                    : "baseline run exhausted its cycle budget");
            continue; // No trustworthy oracle for this program.
        }
        if (baseline.invariantViolations) {
            add(Scheme::Baseline, "invariant",
                std::to_string(baseline.invariantViolations)
                    + " invariant violation(s) under Baseline");
        }

        // With a mitigation even the (mitigated) Baseline cell is
        // judged against the unmitigated oracle — that comparison IS
        // the transform-correctness check.
        for (std::size_t s = mitigated ? 0 : 1; s < schemes.size();
             ++s) {
            const Scheme scheme = schemes[s].scheme;
            const RunOutcome &outcome =
                outcomes[base_idx + s + (mitigated ? 1 : 0)];
            const ConformanceCell cell = conformanceCell(outcome);

            if (!outcomeIsCacheable(outcome))
                continue;
            if (!cell.halted || cell.watchdogTripped) {
                add(scheme, "deadlock",
                    cell.watchdogTripped
                        ? "no commit within the watchdog window"
                        : "cycle budget exhausted before halt",
                    params.mitigation);
                continue;
            }
            if (!cell.architecturallyEqual(baseline)) {
                std::string detail = "vs baseline:";
                if (cell.regHash != baseline.regHash)
                    detail += " regs " + hex16(cell.regHash) + "!="
                              + hex16(baseline.regHash);
                if (cell.memHash != baseline.memHash)
                    detail += " mem " + hex16(cell.memHash) + "!="
                              + hex16(baseline.memHash);
                if (cell.commitHash != baseline.commitHash)
                    detail += " commits " + hex16(cell.commitHash)
                              + "!=" + hex16(baseline.commitHash);
                if (cell.instructions != baseline.instructions)
                    detail += " insts "
                              + std::to_string(cell.instructions) + "!="
                              + std::to_string(baseline.instructions);
                add(scheme, "divergence", std::move(detail),
                    params.mitigation);
            }
            if (cell.invariantViolations) {
                add(scheme, "invariant",
                    std::to_string(cell.invariantViolations)
                        + " invariant violation(s)",
                    params.mitigation);
            }

            // Dataflow obligations: only the ones the scheme's
            // contract obliges (DoM declares sandboxing alone, so
            // tainted transmitters executing on L1 hits are by
            // design).
            if (contracts[s].obligesTransmitterSafety
                && cell.transmitViolations) {
                add(scheme, "monitor",
                    std::to_string(cell.transmitViolations)
                        + " transmit violation(s) against a "
                          "transmitter-safety obligation",
                    params.mitigation);
            }
            if (contracts[s].obligesConsumeSafety
                && cell.consumeViolations) {
                add(scheme, "monitor",
                    std::to_string(cell.consumeViolations)
                        + " consume violation(s) against a "
                          "consume-safety obligation",
                    params.mitigation);
            }

            // Contract shadow check, on the generated programs'
            // secret-labelled buffers: a dataflow policy must keep
            // transiently-acquired secrets away from every
            // transmitter operand. Observational-only policies
            // (DoM's sandboxing) are judged by the differential
            // oracle instead — a speculative L1 hit on a secret is
            // by design there.
            const ContractPolicy policy = contracts[s].policy;
            if ((policy == ContractPolicy::TransmitterSafe
                 || policy == ContractPolicy::ConsumeSafe)
                && cell.sandboxViolations) {
                add(scheme, "contract",
                    std::to_string(cell.sandboxViolations)
                        + " sandboxing violation(s) against the "
                        + contractPolicyName(policy)
                        + " contract; first at cycle "
                        + std::to_string(cell.firstSandboxCycle)
                        + " pc " + std::to_string(cell.firstSandboxPc),
                    params.mitigation);
            }
        }
    }
    return report;
}

Json
toJson(const FuzzReport &report)
{
    Json doc = Json::object();
    doc.set("programs", Json::num(std::uint64_t(report.programs)));
    doc.set("cells", Json::num(std::uint64_t(report.cells)));
    doc.set("core", Json::str(report.coreName));
    doc.set("mitigation", Json::str(mitigationName(report.mitigation)));
    doc.set("ok", Json::boolean(report.ok()));
    Json failures = Json::array();
    for (const FuzzFailure &f : report.failures) {
        Json entry = Json::object();
        entry.set("seed", Json::num(f.seed));
        entry.set("profile", Json::str(opMixProfileName(f.profile)));
        entry.set("scheme", Json::str(schemeName(f.scheme)));
        entry.set("mitigation", Json::str(mitigationName(f.mitigation)));
        entry.set("kind", Json::str(f.kind));
        entry.set("detail", Json::str(f.detail));
        entry.set("repro", Json::str(f.repro(report.coreName)));
        failures.push(std::move(entry));
    }
    doc.set("failures", std::move(failures));
    if (report.unfinished > 0)
        doc.set("unfinished", Json::num(std::uint64_t(report.unfinished)));
    return doc;
}

namespace
{

/** The one line that stands for every cut-short cell. */
void
printUnfinished(const FuzzReport &report, std::FILE *out)
{
    if (report.unfinished > 0)
        std::fprintf(out,
                     "%u cell(s) unfinished (cut short by supervision): "
                     "not judged\n",
                     report.unfinished);
}

} // anonymous namespace

void
printFuzzReport(const FuzzReport &report, std::FILE *out)
{
    if (report.mitigation != Mitigation::None) {
        std::fprintf(out,
                     "=== Differential conformance: %u program(s) x "
                     "%zu scheme(s) on %s, mitigation=%s ===\n",
                     report.programs, allSchemeConfigs().size(),
                     report.coreName.c_str(),
                     mitigationName(report.mitigation));
    } else {
        std::fprintf(out,
                     "=== Differential conformance: %u program(s) x "
                     "%zu scheme(s) on %s ===\n",
                     report.programs, allSchemeConfigs().size(),
                     report.coreName.c_str());
    }
    if (report.failures.empty() && report.unfinished == 0) {
        std::fprintf(out,
                     "all %u cells architecturally %s to "
                     "Baseline; no deadlocks, no invariant "
                     "violations\nverdict: PASS\n",
                     report.cells,
                     report.mitigation != Mitigation::None
                         ? "equivalent (modulo transform glue)"
                         : "identical");
        return;
    }
    for (const FuzzFailure &f : report.failures) {
        std::fprintf(out,
                     "FAIL [%s] seed=%llu profile=%s scheme=%s: %s\n"
                     "      repro: %s\n",
                     f.kind.c_str(),
                     static_cast<unsigned long long>(f.seed),
                     opMixProfileName(f.profile), schemeName(f.scheme),
                     f.detail.c_str(),
                     f.repro(report.coreName).c_str());
    }
    printUnfinished(report, out);
    std::fprintf(out, "verdict: FAIL (%zu failure(s))\n",
                 report.failures.size());
}

bool
printContractReport(const FuzzParams &params,
                    const std::vector<RunOutcome> &outcomes,
                    std::FILE *out)
{
    const std::vector<SchemeConfig> schemes = allSchemeConfigs();
    std::fprintf(out,
                 "=== Contract check: shadow engine over %u generated "
                 "program(s) x %zu scheme(s) on %s ===\n\n",
                 params.programs, schemes.size(),
                 params.core.name.c_str());

    // Per-scheme totals across the campaign: what each declared
    // contract permitted vs what the shadow engine observed.
    std::fprintf(out, "%-12s %-16s %12s %12s\n", "scheme", "contract",
                 "sandbox-viol", "ct-viol");
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        SchemeConfig scfg = schemes[s];
        const SecurityContract contract = makeScheme(scfg)->contract();
        std::uint64_t sandbox = 0, ct = 0;
        for (unsigned p = 0; p < params.programs; ++p) {
            const ConformanceCell cell = conformanceCell(
                outcomes[std::size_t(p) * schemes.size() + s]);
            sandbox += cell.sandboxViolations;
            ct += cell.ctViolations;
        }
        std::fprintf(out, "%-12s %-16s %12llu %12llu\n",
                     schemeName(scfg.scheme),
                     contractPolicyName(contract.policy),
                     static_cast<unsigned long long>(sandbox),
                     static_cast<unsigned long long>(ct));
    }
    std::fprintf(out, "\n");

    // The verdict rides the normal fold; only contract failures and
    // cut-short cells (whose totals above are partial) are surfaced
    // here (everything else belongs to the conformance scenario's
    // report over the same cells).
    const FuzzReport report = foldFuzzOutcomes(params, outcomes);
    unsigned contract_failures = 0;
    for (const FuzzFailure &f : report.failures) {
        if (f.kind != "contract")
            continue;
        ++contract_failures;
        std::fprintf(out,
                     "FAIL [%s] seed=%llu profile=%s scheme=%s: "
                     "%s\n      repro: %s\n",
                     f.kind.c_str(),
                     static_cast<unsigned long long>(f.seed),
                     opMixProfileName(f.profile), schemeName(f.scheme),
                     f.detail.c_str(),
                     f.repro(report.coreName).c_str());
    }
    printUnfinished(report, out);
    const bool pass = contract_failures == 0 && report.unfinished == 0;
    if (pass) {
        std::fprintf(out,
                     "every declared dataflow contract held: no "
                     "transiently-acquired secret reached a "
                     "transmitter operand\n");
    }
    std::fprintf(out, "verdict: %s\n", pass ? "PASS" : "FAIL");
    return pass;
}

void
registerConformanceScenarios(ScenarioRegistry &registry)
{
    Scenario s;
    s.name = "conformance";
    s.title = "Differential conformance fuzz (8 seeds x full roster)";
    s.specs = [] { return fuzzSpecs(scenarioParams()); };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        const FuzzReport report =
            foldFuzzOutcomes(scenarioParams(), outcomes);
        printFuzzReport(report, out);
        return report.ok();
    };
    registry.add(std::move(s));

    // Same cells as "conformance" (the engine dedups shared specs),
    // different lens: the contract shadow engine's verdict over the
    // generated programs' secret-labelled buffers.
    Scenario c;
    c.name = "contract_check";
    c.title = "Contract shadow check (secret-labelled fuzz programs "
              "x full roster)";
    c.specs = [] { return fuzzSpecs(scenarioParams()); };
    c.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        return printContractReport(scenarioParams(), outcomes, out);
    };
    registry.add(std::move(c));
}

} // namespace sb
