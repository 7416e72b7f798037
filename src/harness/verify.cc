#include "harness/verify.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/core.hh"
#include "harness/cell_driver.hh"
#include "harness/scenario.hh"
#include "secure/factory.hh"

namespace sb
{

namespace
{

constexpr const char *gadgetPrefix = "gadget:";

/** Strict base-10 parse of a full token. */
bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || errno != 0)
        return false;
    out = v;
    return true;
}

} // anonymous namespace

std::string
gadgetWorkloadName(GadgetKind kind, std::uint8_t secret,
                   std::uint64_t seed)
{
    return std::string(gadgetPrefix) + gadgetName(kind)
           + ":secret=" + std::to_string(unsigned(secret))
           + ":seed=" + std::to_string(seed);
}

bool
isGadgetWorkload(const std::string &workload)
{
    return workload.rfind(gadgetPrefix, 0) == 0;
}

bool
parseGadgetWorkload(const std::string &workload, GadgetKind &kind,
                    std::uint8_t &secret, std::uint64_t &seed)
{
    if (!isGadgetWorkload(workload))
        return false;
    const std::string rest = workload.substr(std::string(gadgetPrefix).size());
    const std::size_t colon1 = rest.find(':');
    if (colon1 == std::string::npos)
        return false;
    const std::size_t colon2 = rest.find(':', colon1 + 1);
    if (colon2 == std::string::npos)
        return false;

    GadgetKind parsed_kind;
    if (!gadgetFromName(rest.substr(0, colon1), parsed_kind))
        return false;
    const std::string secret_tok = rest.substr(colon1 + 1,
                                               colon2 - colon1 - 1);
    const std::string seed_tok = rest.substr(colon2 + 1);
    if (secret_tok.rfind("secret=", 0) != 0
        || seed_tok.rfind("seed=", 0) != 0)
        return false;
    std::uint64_t secret_val = 0;
    std::uint64_t seed_val = 0;
    if (!parseUint(secret_tok.substr(7), secret_val)
        || !parseUint(seed_tok.substr(5), seed_val))
        return false;
    if (secret_val < 1 || secret_val > 255
        || gadgetWorkloadName(parsed_kind,
                              static_cast<std::uint8_t>(secret_val),
                              seed_val)
               != workload)
        return false;

    kind = parsed_kind;
    secret = static_cast<std::uint8_t>(secret_val);
    seed = seed_val;
    return true;
}

RunSpec
gadgetSpec(GadgetKind kind, const CoreConfig &core,
           const SchemeConfig &scheme, std::uint8_t secret,
           std::uint64_t seed)
{
    RunSpec spec;
    spec.core = core;
    spec.scheme = scheme;
    spec.workload = gadgetWorkloadName(kind, secret, seed);
    spec.warmupInsts = 0;
    spec.measureInsts = 0;
    return spec;
}

namespace
{

/** FNV-1a 64 digest of the committed-load observation trace. */
std::uint64_t
hashObservations(const std::vector<LoadObservation> &trace)
{
    std::uint64_t hash = fnv1aBasis;
    auto mix = [&hash](std::uint64_t word) {
        hash = fnv1aWord(hash, word);
    };
    for (const LoadObservation &obs : trace) {
        mix(obs.pc);
        mix(obs.commitCycle);
        mix(obs.completeCycle);
        mix(obs.l1Hit ? 1 : 0);
    }
    return hash;
}

/**
 * One attack run: both receivers plus the differential surface. The
 * run is two-phase: the victim rounds execute until the first barrier
 * load commits, so the cache-residency oracle sees the post-attack
 * cache before the probe pollutes it; then the timing probe runs to
 * completion and its serialised per-slot commit gaps are scored.
 */
class GadgetCell final : public CellDriver
{
  public:
    explicit GadgetCell(const RunSpec &spec)
    {
        GadgetKind kind{};
        std::uint64_t seed = 0;
        if (!parseGadgetWorkload(spec.workload, kind, secret, seed))
            sb_fatal("malformed gadget workload '", spec.workload, "'");
        gadget = buildGadgetProgram(kind, secret, seed);
    }

    const Program &program() const override { return gadget.program; }

    // Commit-time receiver: the commit cycle of each probe.
    void
    onCommit(const DynInst &inst, std::uint32_t pc, Cycle at) override
    {
        if (pc >= gadget.firstProbePc && inst.isLoad()) {
            const unsigned v = 1 + (pc - gadget.firstProbePc) / 4;
            if (v < 256)
                commitCycle[v] = at;
        }
        if (pc == gadget.barrierPc && !roundsDone) {
            roundsDone = true;
            running->requestStop();
        }
    }

    void drive(Core &core, RunOutcome &out) override;

  private:
    GadgetProgram gadget;
    std::uint8_t secret = 0;
    std::vector<Cycle> commitCycle = std::vector<Cycle>(256, 0);
    bool roundsDone = false;
    Core *running = nullptr; ///< The core drive() runs.
};

void
GadgetCell::drive(Core &core, RunOutcome &out)
{
    using gadget_layout::array2Base;
    using gadget_layout::probeStride;

    core.enableObservationTrace();
    running = &core;

    // Phase 1: run the victim rounds, pausing before the probe
    // commits so the residency oracle sees the post-attack state:
    // the first barrier commit stops the run at the end of its tick.
    core.run(100'000'000, 10'000'000);

    int oracle_byte = -1;
    int oracle_hits = 0;
    for (unsigned v = 1; v < 256; ++v) {
        if (core.memorySystem().cached(array2Base + Addr(v) * probeStride)) {
            oracle_byte = static_cast<int>(v);
            ++oracle_hits;
        }
    }
    if (oracle_hits != 1)
        oracle_byte = -1;

    // Phase 2: run the timing probe to completion.
    core.run(100'000'000, 10'000'000);

    int timing_byte = -1;
    double median_gap = 0.0;
    double min_gap = 0.0;
    std::vector<double> gaps;
    for (unsigned v = 2; v < 256; ++v) {
        if (commitCycle[v] > 0 && commitCycle[v - 1] > 0) {
            gaps.push_back(static_cast<double>(commitCycle[v])
                           - static_cast<double>(commitCycle[v - 1]));
        }
    }
    if (gaps.size() > 64) {
        std::sort(gaps.begin(), gaps.end());
        median_gap = gaps[gaps.size() / 2];
        min_gap = gaps.front();
        // A hit sits a full memory latency below the (miss) median.
        if (min_gap < 0.5 * median_gap) {
            for (unsigned v = 2; v < 256; ++v) {
                const double g =
                    static_cast<double>(commitCycle[v])
                    - static_cast<double>(commitCycle[v - 1]);
                if (g == min_gap) {
                    timing_byte = static_cast<int>(v);
                    break;
                }
            }
        }
    }

    out.cycles = core.now();
    out.stats["gadget_leaked"] =
        timing_byte == secret || oracle_byte == secret ? 1 : 0;
    // Bytes are stored +1 so "no signal" (-1) round-trips as 0.
    out.stats["gadget_timing_byte"] =
        static_cast<std::uint64_t>(timing_byte + 1);
    out.stats["gadget_oracle_byte"] =
        static_cast<std::uint64_t>(oracle_byte + 1);
    out.stats["gadget_trace_hash"] =
        hashObservations(core.observationTrace());
    out.stats["gadget_trace_len"] = core.observationTrace().size();
    // Probe gaps are integral cycle deltas; stored as counters.
    out.stats["gadget_median_gap"] =
        static_cast<std::uint64_t>(median_gap);
    out.stats["gadget_min_gap"] = static_cast<std::uint64_t>(min_gap);
    // Contract shadow verdicts: counters plus the pinpointed first
    // violation of each contract (valid flag keeps the zero cycle of
    // a real first-cycle violation distinguishable from "none").
    const ContractShadow &shadow = core.contractShadow();
    out.stats["gadget_sandbox_viol"] = shadow.sandboxViolations();
    out.stats["gadget_ct_viol"] = shadow.ctViolations();
    auto record = [&out](const char *prefix, const ContractViolation &v) {
        const std::string p = prefix;
        out.stats[p + "_valid"] = v.valid() ? 1 : 0;
        out.stats[p + "_cycle"] = v.valid() ? v.cycle : 0;
        out.stats[p + "_seq"] = v.valid() ? v.seq : 0;
        out.stats[p + "_pc"] = v.valid() ? v.pc : 0;
    };
    record("gadget_first_sandbox", shadow.firstSandboxViolation());
    record("gadget_first_ct", shadow.firstCtViolation());
    // Protection-domain verdicts. The flush-policy bit is recorded so
    // the fold can tell an expected-closed cross-domain cell (flush
    // core, unprotected) from an armed-proof one without re-deriving
    // the core configuration from its name.
    out.stats["gadget_cross_viol"] = shadow.crossTenantViolations();
    record("gadget_first_cross", shadow.firstCrossTenantViolation());
    out.stats["gadget_context_switches"] = core.contextSwitchCount();
    out.stats["gadget_flush_on_switch"] =
        core.config().flushPredictorsOnSwitch ? 1 : 0;
}

} // anonymous namespace

std::unique_ptr<CellDriver>
makeGadgetCell(const RunSpec &spec)
{
    return std::make_unique<GadgetCell>(spec);
}

AttackResult
attackResult(const RunOutcome &outcome)
{
    auto first = [&outcome](const char *prefix) {
        const std::string p = prefix;
        ContractViolation v;
        if (outcome.stat(p + "_valid") != 0) {
            v.cycle = outcome.stat(p + "_cycle");
            v.seq = outcome.stat(p + "_seq");
            v.pc = static_cast<std::uint32_t>(outcome.stat(p + "_pc"));
        }
        return v;
    };
    AttackResult res;
    res.timingByte = static_cast<int>(outcome.stat("gadget_timing_byte")) - 1;
    res.oracleByte = static_cast<int>(outcome.stat("gadget_oracle_byte")) - 1;
    res.leaked = outcome.stat("gadget_leaked") != 0;
    res.transmitViolations = outcome.transmitViolations;
    res.consumeViolations = outcome.consumeViolations;
    res.sandboxViolations = outcome.stat("gadget_sandbox_viol");
    res.ctViolations = outcome.stat("gadget_ct_viol");
    res.crossTenantViolations = outcome.stat("gadget_cross_viol");
    res.firstSandboxViolation = first("gadget_first_sandbox");
    res.firstCtViolation = first("gadget_first_ct");
    res.firstCrossTenantViolation = first("gadget_first_cross");
    res.contextSwitches = outcome.stat("gadget_context_switches");
    res.flushOnSwitch = outcome.stat("gadget_flush_on_switch") != 0;
    res.medianGap = static_cast<double>(outcome.stat("gadget_median_gap"));
    res.minGap = static_cast<double>(outcome.stat("gadget_min_gap"));
    res.traceHash = outcome.stat("gadget_trace_hash");
    res.traceLength = outcome.stat("gadget_trace_len");
    res.cycles = outcome.cycles;
    return res;
}

bool
gadgetIsCrossDomain(GadgetKind kind)
{
    return kind == GadgetKind::SpectreV2CrossDomain
           || kind == GadgetKind::SpectreV1Swapgs;
}

bool
VerifyCell::pass() const
{
    if (unfinished)
        return false;
    if (judgedPolicy == ContractPolicy::None) {
        // A cross-domain cell on a flush-on-switch core: the *core
        // policy* is the mitigation under test, so the unprotected
        // verdict flips — the channel must be closed, and closed
        // without secret-dependent divergence.
        if (expectClosed)
            return !leaked && !diverged;
        // A non-declaring scheme (the unsafe baseline) must
        // demonstrably leak on both paired runs — proof the gadget is
        // armed — and the shadow engine must have pinpointed the
        // secret reaching a transmitter, so the differential verdict
        // always comes with a (cycle, seq, pc) repro.
        return armed && firstCtViolation.valid();
    }
    if (leaked || diverged)
        return false;
    // Declared schemes must also keep secrets inside their owning
    // protection domain (vacuous for single-tenant gadgets).
    if (crossTenantViolations != 0)
        return false;
    if (contract.obligesTransmitterSafety && transmitViolations != 0)
        return false;
    if (contract.obligesConsumeSafety && consumeViolations != 0)
        return false;
    if (judgedPolicy == ContractPolicy::ConstantTime)
        return ctViolations == 0;
    // Every declared policy at least sandboxes: transiently-acquired
    // secrets must never have reached a transmitter operand.
    return sandboxViolations == 0;
}

std::vector<RunSpec>
verifyBatterySpecs(const CoreConfig &core,
                   const std::vector<SchemeConfig> &schemes)
{
    std::vector<RunSpec> specs;
    for (const SchemeConfig &scheme : schemes)
        for (GadgetKind kind : allGadgets())
            for (std::uint8_t secret : {verifySecretA, verifySecretB})
                specs.push_back(gadgetSpec(kind, core, scheme, secret));
    return specs;
}

VerifyCell
foldVerifyPair(const RunOutcome &a, const RunOutcome &b,
               const SecurityContract &contract,
               std::optional<ContractPolicy> contract_override)
{
    GadgetKind kind_a, kind_b;
    std::uint8_t secret_a = 0, secret_b = 0;
    std::uint64_t seed_a = 0, seed_b = 0;
    if (!parseGadgetWorkload(a.workload, kind_a, secret_a, seed_a)
        || !parseGadgetWorkload(b.workload, kind_b, secret_b, seed_b)) {
        sb_fatal("non-gadget outcome in battery fold: '", a.workload,
                 "' / '", b.workload, "'");
    }
    sb_assert(kind_a == kind_b && a.scheme == b.scheme
                  && seed_a == seed_b && secret_a != secret_b,
              "battery pair mismatch: ", a.workload, " vs ", b.workload);

    VerifyCell cell;
    cell.gadget = gadgetName(kind_a);
    cell.core = a.coreName;
    cell.scheme = a.scheme;
    cell.contract = contract;
    cell.judgedPolicy = contract.policy;
    if (contract_override && contract.policy != ContractPolicy::None)
        cell.judgedPolicy = *contract_override;
    cell.crossDomain = gadgetIsCrossDomain(kind_a);

    // A run supervision cut short stopped mid-program: its receivers
    // and trace are no evidence either way.
    cell.unfinished = !outcomeIsCacheable(a) || !outcomeIsCacheable(b);
    if (cell.unfinished)
        return cell;

    const AttackResult ra = attackResult(a);
    const AttackResult rb = attackResult(b);
    cell.leaked = ra.leaked || rb.leaked;
    cell.armed = ra.leaked && rb.leaked;
    cell.diverged = ra.traceHash != rb.traceHash
                    || ra.traceLength != rb.traceLength
                    || ra.cycles != rb.cycles;
    cell.transmitViolations =
        std::max(ra.transmitViolations, rb.transmitViolations);
    cell.consumeViolations =
        std::max(ra.consumeViolations, rb.consumeViolations);
    cell.timingByteA = ra.timingByte;
    cell.timingByteB = rb.timingByte;
    cell.cyclesA = ra.cycles;
    cell.cyclesB = rb.cycles;
    cell.sandboxViolations =
        std::max(ra.sandboxViolations, rb.sandboxViolations);
    cell.ctViolations = std::max(ra.ctViolations, rb.ctViolations);
    cell.firstSandboxViolation = ra.firstSandboxViolation.valid()
                                     ? ra.firstSandboxViolation
                                     : rb.firstSandboxViolation;
    cell.firstCtViolation = ra.firstCtViolation.valid()
                                ? ra.firstCtViolation
                                : rb.firstCtViolation;
    cell.crossTenantViolations =
        std::max(ra.crossTenantViolations, rb.crossTenantViolations);
    cell.firstCrossTenantViolation =
        ra.firstCrossTenantViolation.valid()
            ? ra.firstCrossTenantViolation
            : rb.firstCrossTenantViolation;
    cell.contextSwitches = std::max(ra.contextSwitches, rb.contextSwitches);
    cell.expectClosed = cell.crossDomain
                        && cell.judgedPolicy == ContractPolicy::None
                        && ra.flushOnSwitch;
    return cell;
}

VerifyMatrix
foldVerifyOutcomes(const std::vector<RunOutcome> &outcomes,
                   std::optional<ContractPolicy> contract_override)
{
    sb_assert(outcomes.size() % 2 == 0,
              "battery outcomes must come in secret pairs");
    VerifyMatrix matrix;
    for (std::size_t i = 0; i + 1 < outcomes.size(); i += 2) {
        SchemeConfig scfg;
        scfg.scheme = outcomes[i].scheme;
        matrix.cells.push_back(
            foldVerifyPair(outcomes[i], outcomes[i + 1],
                           makeScheme(scfg)->contract(),
                           contract_override));
    }
    return matrix;
}

Json
toJson(const VerifyMatrix &matrix)
{
    Json doc = Json::object();
    doc.set("schema", Json::num(std::uint64_t(3)));
    doc.set("ok", Json::boolean(matrix.ok()));
    doc.set("secret_a", Json::num(std::uint64_t(verifySecretA)));
    doc.set("secret_b", Json::num(std::uint64_t(verifySecretB)));
    Json cells = Json::array();
    for (const VerifyCell &cell : matrix.cells) {
        Json c = Json::object();
        c.set("gadget", Json::str(cell.gadget));
        c.set("scheme", Json::str(schemeName(cell.scheme)));
        c.set("core", Json::str(cell.core));
        c.set("contract",
              Json::str(contractPolicyName(cell.contract.policy)));
        c.set("judged_contract",
              Json::str(contractPolicyName(cell.judgedPolicy)));
        c.set("obliges_transmitter_safety",
              Json::boolean(cell.contract.obligesTransmitterSafety));
        c.set("obliges_consume_safety",
              Json::boolean(cell.contract.obligesConsumeSafety));
        c.set("obliges_leak_freedom",
              Json::boolean(cell.contract.obligesLeakFreedom));
        c.set("leaked", Json::boolean(cell.leaked));
        c.set("armed", Json::boolean(cell.armed));
        c.set("diverged", Json::boolean(cell.diverged));
        c.set("transmit_violations", Json::num(cell.transmitViolations));
        c.set("consume_violations", Json::num(cell.consumeViolations));
        c.set("timing_byte_a",
              Json::num(std::uint64_t(cell.timingByteA + 1)));
        c.set("timing_byte_b",
              Json::num(std::uint64_t(cell.timingByteB + 1)));
        c.set("cycles_a", Json::num(cell.cyclesA));
        c.set("cycles_b", Json::num(cell.cyclesB));
        c.set("sandbox_violations", Json::num(cell.sandboxViolations));
        c.set("ct_violations", Json::num(cell.ctViolations));
        auto record = [](const ContractViolation &v) {
            Json j = Json::object();
            j.set("valid", Json::boolean(v.valid()));
            j.set("cycle", Json::num(v.valid() ? v.cycle : 0));
            j.set("seq", Json::num(v.valid() ? v.seq : 0));
            j.set("pc", Json::num(std::uint64_t(v.valid() ? v.pc : 0)));
            return j;
        };
        c.set("first_sandbox_violation",
              record(cell.firstSandboxViolation));
        c.set("first_ct_violation", record(cell.firstCtViolation));
        c.set("cross_tenant_violations",
              Json::num(cell.crossTenantViolations));
        c.set("first_cross_tenant_violation",
              record(cell.firstCrossTenantViolation));
        c.set("context_switches", Json::num(cell.contextSwitches));
        c.set("cross_domain", Json::boolean(cell.crossDomain));
        c.set("expect_closed", Json::boolean(cell.expectClosed));
        c.set("cross_tenant_leak",
              Json::boolean(cell.crossDomain && cell.leaked));
        if (cell.unfinished)
            c.set("unfinished", Json::boolean(true));
        c.set("pass", Json::boolean(cell.pass()));
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

void
printVerifyMatrix(const VerifyMatrix &matrix, std::FILE *out)
{
    std::fprintf(out, "=== Security: Spectre gadget battery + "
                      "differential leakage check ===\n\n");
    TextTable t;
    t.header({"gadget", "scheme", "core", "contract", "leaked",
              "diverged", "t-viol", "c-viol", "sbx-viol", "ct-viol",
              "x-tenant", "first-viol", "verdict"});
    for (const VerifyCell &cell : matrix.cells) {
        // The pinpointed repro: the sandboxing record when the judged
        // contract has one, else the constant-time record (what the
        // baseline's leak verdict rests on).
        const ContractViolation &first =
            cell.firstSandboxViolation.valid()
                ? cell.firstSandboxViolation
                : cell.firstCtViolation;
        const std::string repro =
            first.valid() ? "c" + std::to_string(first.cycle) + "@pc"
                                + std::to_string(first.pc)
                          : "-";
        std::string contract = contractPolicyName(cell.contract.policy);
        if (cell.judgedPolicy != cell.contract.policy) {
            contract += "->";
            contract += contractPolicyName(cell.judgedPolicy);
        }
        // Cross-domain cells report the tenant-boundary verdict: did
        // the observing tenant recover another tenant's secret?
        const std::string xtenant =
            !cell.crossDomain ? "-" : (cell.leaked ? "LEAK" : "closed");
        t.row({cell.gadget, schemeName(cell.scheme), cell.core,
               contract, cell.leaked ? "yes" : "no",
               cell.diverged ? "yes" : "no",
               std::to_string(cell.transmitViolations),
               std::to_string(cell.consumeViolations),
               std::to_string(cell.sandboxViolations),
               std::to_string(cell.ctViolations), xtenant, repro,
               cell.unfinished ? "CUT SHORT"
               : cell.pass()   ? "pass"
                               : "FAIL"});
    }
    std::fprintf(out, "%s\n", t.render().c_str());
    std::fprintf(out,
                 "Declared contracts must show leaked=no diverged=no "
                 "and zero sandboxing shadow violations, plus clean\n"
                 "STT/NDA obligations for the dataflow policies "
                 "(transmitter-safe/consume-safe; sandboxing is the\n"
                 "purely observational contract, e.g. DoM). The unsafe "
                 "baseline must leak on every gadget (proof the\n"
                 "battery is armed), with the shadow engine "
                 "pinpointing the first out-of-contract transmit.\n");
    std::fprintf(out, "verdict: %s\n",
                 matrix.ok() ? "PASS" : "FAIL");
}

void
registerSecurityScenarios(ScenarioRegistry &registry)
{
    Scenario s;
    s.name = "security";
    s.title = "Security: Spectre gadget battery + differential "
              "leakage check (leak matrix)";
    s.specs = [] {
        std::vector<RunSpec> specs =
            verifyBatterySpecs(CoreConfig::mega(),
                               allSchemeConfigs());
        // The cross-domain gadgets again, unprotected, on the same
        // core with the flush-predictors-on-switch policy: the fold
        // flips those cells to expect-closed, proving the software-
        // visible context-switch hygiene alone severs the channel.
        for (GadgetKind kind : {GadgetKind::SpectreV2CrossDomain,
                                GadgetKind::SpectreV1Swapgs})
            for (std::uint8_t secret : {verifySecretA, verifySecretB})
                specs.push_back(gadgetSpec(kind, CoreConfig::megaFlush(),
                                           SchemeConfig{}, secret));
        return specs;
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        const VerifyMatrix matrix = foldVerifyOutcomes(outcomes);
        printVerifyMatrix(matrix, out);
        return matrix.ok();
    };
    registry.add(std::move(s));
}

// --- Software-mitigation co-study ---------------------------------------

bool
mitigationCloses(Mitigation m, GadgetKind gadget)
{
    switch (m) {
      case Mitigation::None:
        return false;
      case Mitigation::Slh:
      case Mitigation::Fence:
        // Conditional-branch instrumentation: the swapgs variant's
        // transient entry is a trained conditional branch, so both
        // passes sever it exactly like the bounds-check bypasses.
        return gadget == GadgetKind::SpectreV1
               || gadget == GadgetKind::SpectreV1Mask
               || gadget == GadgetKind::SpectreV1Swapgs;
      case Mitigation::Retpoline:
        // Both v2s enter through a BTB-predicted indirect; the
        // lowering starves the BTB whether the poisoning tenant is
        // the victim itself or a neighbour across a context switch.
        return gadget == GadgetKind::SpectreV2Indirect
               || gadget == GadgetKind::SpectreV2CrossDomain;
    }
    return false;
}

bool
MitigationCell::pass() const
{
    if (policy == ContractPolicy::None)
        return target ? closed : armed;
    return schemePass;
}

std::vector<RunSpec>
mitigationBatterySpecs(const CoreConfig &core,
                       const std::vector<SchemeConfig> &schemes,
                       Mitigation m)
{
    std::vector<RunSpec> specs = verifyBatterySpecs(core, schemes);
    const std::size_t half = specs.size();
    for (std::size_t i = 0; i < half; ++i) {
        RunSpec s = specs[i];
        s.mitigation.kind = m;
        specs.push_back(std::move(s));
    }
    return specs;
}

MitigationReport
foldMitigationOutcomes(Mitigation m,
                       const std::vector<RunOutcome> &outcomes)
{
    sb_assert(outcomes.size() % 2 == 0,
              "mitigation battery outcomes must split into matching "
              "unmitigated/mitigated halves");
    const std::size_t half = outcomes.size() / 2;
    const VerifyMatrix base = foldVerifyOutcomes(
        {outcomes.begin(), outcomes.begin() + half});
    const VerifyMatrix mit = foldVerifyOutcomes(
        {outcomes.begin() + half, outcomes.end()});
    sb_assert(base.cells.size() == mit.cells.size(),
              "mitigation fold halves disagree");

    MitigationReport report;
    report.mitigation = m;
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
        const VerifyCell &b = base.cells[i];
        const VerifyCell &v = mit.cells[i];
        sb_assert(b.gadget == v.gadget && b.scheme == v.scheme,
                  "mitigation fold pair mismatch: ", b.gadget, " vs ",
                  v.gadget);
        GadgetKind kind;
        sb_assert(gadgetFromName(v.gadget, kind),
                  "unknown gadget in fold: ", v.gadget);

        MitigationCell cell;
        cell.gadget = v.gadget;
        cell.scheme = v.scheme;
        cell.policy = v.contract.policy;
        cell.target = cell.policy == ContractPolicy::None
                      && mitigationCloses(m, kind);
        // A cut-short mitigated cell never counts as closed.
        cell.closed = !v.unfinished && !v.leaked
                      && !v.firstCtViolation.valid();
        cell.armed = v.armed;
        cell.schemePass = v.pass();
        cell.cyclesBase = b.cyclesA;
        cell.cyclesMitigated = v.cyclesA;
        cell.overhead =
            b.cyclesA == 0 ? 0.0
                           : static_cast<double>(v.cyclesA)
                                 / static_cast<double>(b.cyclesA);
        report.cells.push_back(std::move(cell));
    }
    return report;
}

Json
toJson(const MitigationReport &report)
{
    Json doc = Json::object();
    doc.set("schema", Json::num(std::uint64_t(1)));
    doc.set("mitigation",
            Json::str(mitigationName(report.mitigation)));
    doc.set("ok", Json::boolean(report.ok()));
    Json cells = Json::array();
    for (const MitigationCell &cell : report.cells) {
        Json c = Json::object();
        c.set("gadget", Json::str(cell.gadget));
        c.set("scheme", Json::str(schemeName(cell.scheme)));
        c.set("contract", Json::str(contractPolicyName(cell.policy)));
        c.set("target", Json::boolean(cell.target));
        c.set("closed", Json::boolean(cell.closed));
        c.set("armed", Json::boolean(cell.armed));
        c.set("scheme_pass", Json::boolean(cell.schemePass));
        c.set("cycles_base", Json::num(cell.cyclesBase));
        c.set("cycles_mitigated", Json::num(cell.cyclesMitigated));
        c.set("overhead_pct",
              Json::num(std::uint64_t(cell.overhead * 100.0 + 0.5)));
        c.set("pass", Json::boolean(cell.pass()));
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

void
printMitigationReport(const MitigationReport &report, std::FILE *out)
{
    std::fprintf(out,
                 "=== Software mitigation co-study: %s over the "
                 "gadget battery ===\n\n",
                 mitigationName(report.mitigation));
    TextTable t;
    t.header({"gadget", "scheme", "contract", "target", "closed",
              "armed", "cycles", "overhead", "verdict"});
    for (const MitigationCell &cell : report.cells) {
        char overhead[32];
        std::snprintf(overhead, sizeof(overhead), "%.2fx",
                      cell.overhead);
        t.row({cell.gadget, schemeName(cell.scheme),
               contractPolicyName(cell.policy),
               cell.target ? "yes" : "no",
               cell.closed ? "yes" : "no", cell.armed ? "yes" : "no",
               std::to_string(cell.cyclesMitigated), overhead,
               cell.pass() ? "pass" : "FAIL"});
    }
    std::fprintf(out, "%s\n", t.render().c_str());
    std::fprintf(out,
                 "On the unprotected core the mitigation must close "
                 "exactly its target gadgets (closed = no recovery and\n"
                 "no pinpointed contract violation) and leave the "
                 "others demonstrably armed; under a declared hardware\n"
                 "scheme the combination is redundant and must still "
                 "pass the scheme's own contract. Overhead is the\n"
                 "mitigated/unmitigated cycle ratio of the same "
                 "gadget cell.\n");
    std::fprintf(out, "verdict: %s\n", report.ok() ? "PASS" : "FAIL");
}

namespace
{

/** Kernel-suite slice the grid sweeps (one per character class). */
const std::vector<std::string> &
mitigationKernelSlice()
{
    static const std::vector<std::string> kernels = {
        "502.gcc",    "505.mcf",  "525.x264",
        "531.deepsjeng", "541.leela", "557.xz",
    };
    return kernels;
}

std::vector<RunSpec>
mitigationGridSpecs()
{
    std::vector<RunSpec> specs;
    for (Mitigation m : allMitigations()) {
        // Battery block: closure under every scheme.
        for (RunSpec &s : verifyBatterySpecs(CoreConfig::mega(),
                                             allSchemeConfigs())) {
            s.mitigation.kind = m;
            specs.push_back(std::move(s));
        }
        // Kernel block: what the mitigation costs real workloads.
        for (const SchemeConfig &scheme : allSchemeConfigs()) {
            for (const std::string &name : mitigationKernelSlice()) {
                RunSpec s;
                s.core = CoreConfig::mega();
                s.scheme = scheme;
                s.workload = name;
                s.mitigation.kind = m;
                specs.push_back(std::move(s));
            }
        }
    }
    return specs;
}

bool
mitigationGridReport(const std::vector<RunOutcome> &outcomes,
                     std::FILE *out)
{
    const std::size_t schemes = allSchemeConfigs().size();
    const std::size_t battery = allGadgets().size() * 2 * schemes;
    const std::size_t kernels =
        mitigationKernelSlice().size() * schemes;
    const std::size_t block = battery + kernels;
    sb_assert(outcomes.size() == block * allMitigations().size(),
              "mitigation grid outcome count mismatch");

    // Block 0 is Mitigation::None: the overhead baseline, and the
    // unmitigated half of each closure fold.
    std::fprintf(out, "=== Mitigation grid: (software mitigation x "
                      "hardware scheme) co-study ===\n\n");
    const std::vector<Mitigation> &roster = allMitigations();
    bool ok = true;
    for (std::size_t mi = 1; mi < roster.size(); ++mi) {
        std::vector<RunOutcome> fold;
        fold.insert(fold.end(), outcomes.begin(),
                    outcomes.begin() + battery);
        fold.insert(fold.end(), outcomes.begin() + mi * block,
                    outcomes.begin() + mi * block + battery);
        const MitigationReport report =
            foldMitigationOutcomes(roster[mi], fold);
        printMitigationReport(report, out);
        ok = ok && report.ok();
        std::fprintf(out, "\n");
    }

    // Kernel overhead: per (mitigation, scheme) geomean over the
    // kernel slice, relative to the unmitigated same-scheme cell.
    TextTable t;
    std::vector<std::string> header = {"scheme"};
    for (std::size_t mi = 1; mi < roster.size(); ++mi)
        header.push_back(mitigationName(roster[mi]));
    t.header(header);
    const std::vector<SchemeConfig> &scheme_list = allSchemeConfigs();
    const std::size_t per_scheme = mitigationKernelSlice().size();
    for (std::size_t si = 0; si < scheme_list.size(); ++si) {
        std::vector<std::string> row = {
            schemeName(scheme_list[si].scheme)};
        for (std::size_t mi = 1; mi < roster.size(); ++mi) {
            double log_sum = 0.0;
            unsigned n = 0;
            for (std::size_t ki = 0; ki < per_scheme; ++ki) {
                const std::size_t at = battery + si * per_scheme + ki;
                const RunOutcome &base = outcomes[at];
                const RunOutcome &mit = outcomes[mi * block + at];
                // Windows are counted in *committed* instructions, and
                // a transform pads the stream with glue — so compare
                // cycles per unit of original-program work: the
                // mitigated cell's origin-mapped commit count against
                // the unmitigated cell's full count.
                const std::uint64_t mit_useful =
                    mit.stat("useful_instructions");
                if (base.cycles == 0 || mit.cycles == 0
                    || base.instructions == 0 || mit_useful == 0)
                    continue;
                const double base_cpi =
                    static_cast<double>(base.cycles)
                    / static_cast<double>(base.instructions);
                const double mit_cpi =
                    static_cast<double>(mit.cycles)
                    / static_cast<double>(mit_useful);
                log_sum += std::log(mit_cpi / base_cpi);
                ++n;
            }
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2fx",
                          n ? std::exp(log_sum / n) : 0.0);
            row.push_back(buf);
        }
        t.row(row);
    }
    std::fprintf(out, "Kernel-suite slowdown (geomean over %zu "
                      "kernels, mega core, vs the same scheme "
                      "unmitigated):\n%s\n",
                 per_scheme, t.render().c_str());
    return ok;
}

} // anonymous namespace

void
registerMitigationScenarios(ScenarioRegistry &registry)
{
    Scenario s;
    s.name = "mitigation_grid";
    s.title = "Software-mitigation co-study: (slh|fence|retpoline) x "
              "schemes over the gadget battery + kernel slice";
    s.specs = mitigationGridSpecs;
    s.report = mitigationGridReport;
    registry.add(std::move(s));
}

} // namespace sb
