#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.hh"
#include "harness/reporting.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "trace/spec_suite.hh"

namespace perfbench
{

using sb::CoreConfig;
using sb::RunOutcome;
using sb::RunSpec;
using sb::Scheme;
using sb::SchemeConfig;

namespace
{

// perf-window: RunSpec's default windows (30k warmup + 120k measure)
// divided by this, so that a run times every cell many times. The host
// drifts in speed over minutes; only a best over many samples per cell
// stays steady (see README.md).
constexpr std::uint64_t perfWindowScale = 5;

// verify-cells: fuzz programs (x the 7-scheme roster) and gadget-battery
// pointer-chase seeds (x 84 cells) per pass.
constexpr unsigned verifyFuzzPrograms = 200;
constexpr unsigned verifyGadgetSeeds = 6;

// Every gadget-battery pointer-chase seed in [1, 120] passes the
// battery (scanned when the benchmark was defined).
constexpr std::uint64_t gadgetSeedPool = 120;

/** Independent 64-bit stream @p stream of the workload seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    sb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
    return rng.next();
}

/** @p count distinct values of [1, @p pool], drawn by stream
 *  @p stream of the workload seed. */
std::vector<std::uint64_t>
drawSeeds(std::uint64_t seed, std::uint64_t stream, unsigned count,
          std::uint64_t pool)
{
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 1; v <= pool; ++v)
        values.push_back(v);
    sb::Rng rng(deriveSeed(seed, stream));
    for (unsigned i = 0; i < count; ++i)
        std::swap(values[i], values[i + rng.below(values.size() - i)]);
    values.resize(count);
    return values;
}

/** Seeded Fisher-Yates over the whole pass. */
void
permute(std::vector<RunSpec> &cells, std::uint64_t seed)
{
    sb::Rng rng(deriveSeed(seed, 0));
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[rng.below(i)]);
}

SchemeConfig
schemeConfig(Scheme scheme)
{
    SchemeConfig config;
    config.scheme = scheme;
    return config;
}

std::vector<SchemeConfig>
windowSchemes()
{
    std::vector<SchemeConfig> out{schemeConfig(Scheme::Baseline)};
    for (Scheme scheme : sb::paperSchemes())
        out.push_back(schemeConfig(scheme));
    return out;
}

Workload
perfWindow(std::uint64_t seed)
{
    Workload w;
    w.name = "perf-window";
    w.cells = sb::suiteSpecs({CoreConfig::mega(), CoreConfig::medium()},
                             windowSchemes());
    for (RunSpec &spec : w.cells) {
        spec.warmupInsts /= perfWindowScale;
        spec.measureInsts /= perfWindowScale;
    }
    permute(w.cells, seed);
    return w;
}

Workload
verifyCells(std::uint64_t seed)
{
    Workload w;
    w.name = "verify-cells";
    w.workers = 2;
    w.useCache = true;
    // 32-bit base keeps repro seeds short; programs are baseSeed + i.
    w.fuzz.baseSeed = deriveSeed(seed, 1) >> 32;
    w.fuzz.programs = verifyFuzzPrograms;
    w.cells = sb::fuzzSpecs(w.fuzz);
    w.fuzzCells = w.cells.size();

    const std::vector<RunSpec> battery = sb::verifyBatterySpecs(
        CoreConfig::mega(), sb::allSchemeConfigs());
    for (std::uint64_t chase :
         drawSeeds(seed, 2, verifyGadgetSeeds, gadgetSeedPool)) {
        for (RunSpec spec : battery) {
            sb::GadgetKind kind;
            std::uint8_t secret = 0;
            std::uint64_t unused = 0;
            sb::parseGadgetWorkload(spec.workload, kind, secret, unused);
            spec.workload = sb::gadgetWorkloadName(kind, secret, chase);
            w.cells.push_back(std::move(spec));
        }
    }
    w.batteryCells = w.cells.size() - w.fuzzCells;
    return w;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

std::size_t
schemeIndex(Scheme scheme)
{
    const std::vector<Scheme> roster = sb::allSchemes();
    return static_cast<std::size_t>(
        std::find(roster.begin(), roster.end(), scheme) - roster.begin());
}

} // anonymous namespace

CellKind
cellKind(const RunSpec &spec)
{
    if (sb::isGadgetWorkload(spec.workload))
        return CellKind::Gadget;
    if (sb::isFuzzWorkload(spec.workload))
        return CellKind::Fuzz;
    if (sb::isTenantWorkload(spec.workload))
        return CellKind::Mt;
    return CellKind::Window;
}

const char *
cellKindName(CellKind kind)
{
    switch (kind) {
      case CellKind::Window: return "window";
      case CellKind::Fuzz:   return "fuzz";
      case CellKind::Gadget: return "gadget";
      case CellKind::Mt:     return "mt";
    }
    return "?";
}

std::string
schemeSlug(Scheme scheme)
{
    std::string slug = sb::schemeName(scheme);
    for (char &c : slug)
        c = std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(
                      std::tolower(static_cast<unsigned char>(c)))
                : '-';
    return slug;
}

std::string
widthClass(const CoreConfig &core)
{
    return core.name.rfind("mega", 0) == 0 ? "mega" : core.name;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"perf-window",
                                                   "verify-cells"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    if (name == "perf-window")
        out = perfWindow(seed);
    else if (name == "verify-cells")
        out = verifyCells(seed);
    else
        return false;
    return true;
}

std::size_t
CheckResult::failedCount() const
{
    return static_cast<std::size_t>(
        std::count(failed.begin(), failed.end(), true));
}

void
CheckResult::fail(std::size_t cell, std::string message)
{
    failed[cell] = true;
    if (messages.size() < 8)
        messages.push_back(std::move(message));
}

CheckResult
checkPass(const Workload &w, const std::vector<RunOutcome> &outcomes)
{
    CheckResult r;
    r.failed.assign(w.cells.size(), false);
    if (outcomes.size() != w.cells.size()) {
        r.failed.assign(w.cells.size(), true);
        r.messages.push_back("outcome count does not match the pass");
        return r;
    }

    // Per-cell health.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunSpec &spec = w.cells[i];
        const RunOutcome &o = outcomes[i];
        const std::string where = spec.workload + " / "
                                  + sb::schemeName(spec.scheme.scheme)
                                  + " / " + spec.core.name;
        if (o.workload != spec.workload
            || o.scheme != spec.scheme.scheme) {
            r.fail(i, "outcome does not match its spec: " + where);
            continue;
        }
        if (o.stat("watchdog_tripped") || o.stat("interrupted")
            || o.stat("quarantined") || o.stat("fuzz_watchdog"))
            r.fail(i, "watchdog trip: " + where);
        if (cellKind(spec) == CellKind::Window
            && (o.cycles == 0 || o.instructions < spec.measureInsts))
            r.fail(i, "short measurement window: " + where);
    }

    const auto t0 = std::chrono::steady_clock::now();

    // Fuzz oracle.
    if (w.fuzzCells > 0) {
        const std::vector<RunOutcome> slice(
            outcomes.begin(), outcomes.begin() + w.fuzzCells);
        const sb::FuzzReport report = sb::foldFuzzOutcomes(w.fuzz, slice);
        const std::size_t stride = sb::allSchemes().size();
        for (const sb::FuzzFailure &f : report.failures) {
            const std::size_t cell =
                (f.seed - w.fuzz.baseSeed) * stride + schemeIndex(f.scheme);
            r.fail(std::min(cell, w.fuzzCells - 1),
                   "fuzz " + f.kind + ": " + f.detail + " (repro: "
                       + f.repro(w.fuzz.core.name) + ")");
        }
    }

    // Gadget battery against each scheme's declared contract.
    if (w.batteryCells > 0) {
        const auto begin = outcomes.begin() + w.fuzzCells;
        const std::vector<RunOutcome> slice(begin,
                                            begin + w.batteryCells);
        const sb::VerifyMatrix matrix = sb::foldVerifyOutcomes(slice);
        if (matrix.cells.size() * 2 != slice.size()) {
            for (std::size_t i = 0; i < slice.size(); ++i)
                r.fail(w.fuzzCells + i, "battery fold lost its pairing");
        }
        for (std::size_t k = 0; k < matrix.cells.size(); ++k) {
            const sb::VerifyCell &cell = matrix.cells[k];
            if (cell.pass())
                continue;
            const std::string msg = "gadget " + cell.gadget + " / "
                                    + sb::schemeName(cell.scheme)
                                    + " breaks its declared contract ("
                                    + slice[2 * k].workload + ")";
            r.fail(w.fuzzCells + 2 * k, msg);
            r.fail(w.fuzzCells + 2 * k + 1, msg);
        }
    }

    // Unmitigated window cells: every secure scheme's suite IPC sits
    // below Baseline's on the same core (the paper's Figure 6/7 shape).
    std::vector<RunOutcome> windows;
    std::set<std::pair<std::string, Scheme>> groups;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (cellKind(w.cells[i]) == CellKind::Window
            && !w.cells[i].mitigation.enabled()) {
            windows.push_back(outcomes[i]);
            groups.emplace(outcomes[i].coreName, outcomes[i].scheme);
        }
    }
    for (const auto &[core, scheme] : groups) {
        if (scheme == Scheme::Baseline
            || !groups.count({core, Scheme::Baseline}))
            continue;
        const double base =
            sb::aggregate(sb::filter(windows, core, Scheme::Baseline))
                .meanIpc;
        const double ipc =
            sb::aggregate(sb::filter(windows, core, scheme)).meanIpc;
        if (ipc < base)
            continue;
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            if (outcomes[i].coreName == core
                && outcomes[i].scheme == scheme
                && cellKind(w.cells[i]) == CellKind::Window)
                r.fail(i, std::string("suite IPC of ")
                              + sb::schemeName(scheme) + " on " + core
                              + " is not below Baseline");
    }

    r.foldSeconds = secondsSince(t0);
    return r;
}

std::vector<RunSpec>
coverageCells(const Workload &w)
{
    using Key = std::tuple<CellKind, Scheme, std::string>;
    std::set<Key> have;
    for (const RunSpec &spec : w.cells)
        have.emplace(cellKind(spec), spec.scheme.scheme,
                     widthClass(spec.core));

    std::vector<RunSpec> out;
    for (const SchemeConfig &scheme : sb::allSchemeConfigs()) {
        for (const CoreConfig &core :
             {CoreConfig::mega(), CoreConfig::medium()}) {
            if (have.count({CellKind::Window, scheme.scheme,
                            widthClass(core)}))
                continue;
            RunSpec spec;
            spec.core = core;
            spec.scheme = scheme;
            spec.workload = sb::SpecSuite::benchmarkNames().front();
            out.push_back(std::move(spec));
        }
        RunSpec spec;
        spec.core = CoreConfig::mega();
        spec.scheme = scheme;
        if (!have.count({CellKind::Fuzz, scheme.scheme, "mega"})) {
            RunSpec fuzz = spec;
            fuzz.workload = sb::fuzzWorkloadName(sb::OpMixProfile::Mixed,
                                                 0xC0FFEE, 32);
            fuzz.maxCycles = sb::FuzzParams{}.maxCycles;
            out.push_back(std::move(fuzz));
        }
        // Gadget and server-mix cells run whole programs: no window.
        spec.warmupInsts = 0;
        spec.measureInsts = 0;
        if (!have.count({CellKind::Gadget, scheme.scheme, "mega"})) {
            RunSpec gadget = spec;
            gadget.workload = sb::gadgetWorkloadName(
                sb::GadgetKind::SpectreV1, sb::verifySecretA,
                sb::verifyGadgetSeed);
            out.push_back(std::move(gadget));
        }
        // The hostile server mix under both switch policies (keep and
        // flush predictors), as in the multi_tenant scenario.
        if (!have.count({CellKind::Mt, scheme.scheme, "mega"})) {
            for (const CoreConfig &core :
                 {CoreConfig::mega(), CoreConfig::megaFlush()}) {
                RunSpec mt = spec;
                mt.core = core;
                mt.workload = sb::tenantWorkloadName(sb::ServerMixParams{});
                out.push_back(std::move(mt));
            }
        }
    }
    // The software-mitigation passes, on one kernel of the
    // mitigation_grid slice.
    for (sb::Mitigation m : sb::allMitigations()) {
        if (m == sb::Mitigation::None)
            continue;
        RunSpec spec;
        spec.core = CoreConfig::mega();
        spec.workload = "505.mcf";
        spec.mitigation.kind = m;
        out.push_back(std::move(spec));
    }
    return out;
}

} // namespace perfbench
