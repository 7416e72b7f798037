#include "harness/tenant.hh"

#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/core.hh"
#include "core/security_contract.hh"
#include "harness/cell_driver.hh"
#include "harness/scenario.hh"
#include "secure/factory.hh"

namespace sb
{

namespace
{

constexpr const char *tenantPrefix = "mt:";

/** The scenario's canonical heavy-traffic cell. */
ServerMixParams
scenarioParams()
{
    return ServerMixParams{};
}

} // anonymous namespace

std::string
tenantWorkloadName(const ServerMixParams &p)
{
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "mt:tenants=%u:requests=%u:work=%u:hostile=%u:"
                  "seed=%" PRIu64,
                  p.tenants, p.requests, p.work, p.hostile ? 1u : 0u,
                  p.seed);
    return buf;
}

bool
isTenantWorkload(const std::string &workload)
{
    return workload.rfind(tenantPrefix, 0) == 0;
}

bool
parseTenantWorkload(const std::string &workload, ServerMixParams &out)
{
    unsigned tenants = 0;
    unsigned requests = 0;
    unsigned work = 0;
    unsigned hostile = 0;
    std::uint64_t seed = 0;
    if (std::sscanf(workload.c_str(),
                    "mt:tenants=%u:requests=%u:work=%u:hostile=%u:"
                    "seed=%" SCNu64,
                    &tenants, &requests, &work, &hostile, &seed)
        != 5) {
        return false;
    }
    ServerMixParams parsed;
    parsed.tenants = tenants;
    parsed.requests = requests;
    parsed.work = work;
    parsed.hostile = hostile != 0;
    parsed.seed = seed;
    if (tenantWorkloadName(parsed) != workload
        || !serverMixParamsValid(parsed))
        return false;
    out = parsed;
    return true;
}

namespace
{

/** The server mix with a request-latency histogram off its commits. */
class TenantCell final : public CellDriver
{
  public:
    explicit TenantCell(const RunSpec &spec) : spec(spec)
    {
        if (!parseTenantWorkload(spec.workload, params))
            sb_fatal("malformed tenant workload '", spec.workload, "'");
        mix = buildServerMix(params);
        ends.insert(mix.requestEnds.begin(), mix.requestEnds.end());
    }

    const Program &program() const override { return mix.program; }

    // A request is served when its terminating switch marker commits;
    // service time is the gap back to the previous served request
    // (context-switch overhead bills to the request that incurred it).
    void
    onCommit(const DynInst &, std::uint32_t pc, Cycle at) override
    {
        if (ends.count(pc) != 0) {
            latency.sample(at - lastEnd);
            lastEnd = at;
        }
    }

    void
    drive(Core &core, RunOutcome &out) override
    {
        const RunResult res = core.run(100'000'000'000ULL, spec.maxCycles);
        out.cycles = res.cycles;
        out.instructions = res.instructions;

        const ContractShadow &shadow = core.contractShadow();
        out.stats["mt_tenants"] = params.tenants;
        out.stats["mt_hostile"] = params.hostile ? 1 : 0;
        out.stats["mt_requests"] = latency.count();
        out.stats["mt_total_requests"] = mix.totalRequests;
        out.stats["mt_p50"] = latency.quantile(0.50);
        out.stats["mt_p95"] = latency.quantile(0.95);
        out.stats["mt_p99"] = latency.quantile(0.99);
        out.stats["mt_lat_mean"] =
            static_cast<std::uint64_t>(latency.mean() + 0.5);
        out.stats["mt_context_switches"] = core.contextSwitchCount();
        out.stats["mt_flush_on_switch"] =
            spec.core.flushPredictorsOnSwitch ? 1 : 0;
        out.stats["mt_cross_viol"] = shadow.crossTenantViolations();
        const ContractViolation &first = shadow.firstCrossTenantViolation();
        if (first.valid()) {
            out.stats["mt_first_cross_cycle"] = first.cycle;
            out.stats["mt_first_cross_seq"] = first.seq;
            out.stats["mt_first_cross_pc"] = first.pc;
        }
        out.stats["mt_halted"] = res.halted ? 1 : 0;
        // Out of cycle budget: wedged, never cache. (A tripped run is
        // runOne's supervision marker.)
        if (!res.halted && !res.watchdogTripped)
            out.stats["watchdog_tripped"] = 1;
    }

  private:
    const RunSpec &spec;
    ServerMixParams params;
    ServerMixProgram mix;
    std::unordered_set<std::uint32_t> ends;
    Histogram latency{2048, 16};
    Cycle lastEnd = 0;
};

} // anonymous namespace

std::unique_ptr<CellDriver>
makeTenantCell(const RunSpec &spec)
{
    return std::make_unique<TenantCell>(spec);
}

namespace
{

bool
tenantReport(const std::vector<RunOutcome> &outcomes, std::FILE *out)
{
    const ServerMixParams params = scenarioParams();
    std::fprintf(out,
                 "=== Multi-tenant server mix: %u tenants x %u "
                 "requests (hostile tenant 0), schemes x switch "
                 "policies ===\n\n",
                 params.tenants, params.requests);

    // The hostile tenant's gadget trains entirely inside its own
    // requests, so the predictor-flush switch policy alone cannot
    // close it — only schemes with a dataflow obligation
    // (transmitter-/consume-safe) must stop the transient transmit.
    // Sandboxing-only schemes (Delay-on-Miss) never promised to: the
    // victim keeps its own secret L1-hot, and DoM only delays
    // *missing* speculative loads.
    bool baselineLeaks = false;
    bool dataflowLeaks = false;
    bool anyCut = false;
    TextTable t;
    t.header({"scheme", "core", "switch-policy", "req", "req/Mcyc",
              "p50", "p95", "p99", "switches", "x-tenant"});
    Json cells = Json::array();
    for (const RunOutcome &o : outcomes) {
        const bool flush = o.stat("mt_flush_on_switch") != 0;
        const std::uint64_t viol = o.stat("mt_cross_viol");
        const double tput =
            o.cycles == 0
                ? 0.0
                : static_cast<double>(o.stat("mt_requests")) * 1e6
                      / static_cast<double>(o.cycles);
        // A cell supervision cut short served only part of its
        // requests: it is marked, and withholds the verdict below.
        const bool cut = !outcomeIsCacheable(o);
        anyCut |= cut;
        t.row({schemeName(o.scheme), o.coreName,
               flush ? "flush" : "keep",
               std::to_string(o.stat("mt_requests")),
               TextTable::num(tput, 1),
               std::to_string(o.stat("mt_p50")),
               std::to_string(o.stat("mt_p95")),
               std::to_string(o.stat("mt_p99")),
               std::to_string(o.stat("mt_context_switches")),
               cut         ? "CUT SHORT"
               : viol == 0 ? "closed"
                           : "LEAK(" + std::to_string(viol) + ")"});

        Json c = Json::object();
        c.set("scheme", Json::str(schemeName(o.scheme)));
        c.set("core", Json::str(o.coreName));
        c.set("flush_on_switch", Json::boolean(flush));
        c.set("cycles", Json::num(o.cycles));
        c.set("instructions", Json::num(o.instructions));
        c.set("ipc", Json::num(o.ipc));
        c.set("requests", Json::num(o.stat("mt_requests")));
        c.set("throughput_req_per_mcyc", Json::num(tput));
        c.set("p50", Json::num(o.stat("mt_p50")));
        c.set("p95", Json::num(o.stat("mt_p95")));
        c.set("p99", Json::num(o.stat("mt_p99")));
        c.set("lat_mean", Json::num(o.stat("mt_lat_mean")));
        c.set("context_switches",
              Json::num(o.stat("mt_context_switches")));
        c.set("cross_tenant_violations", Json::num(viol));
        if (cut)
            c.set("unfinished", Json::boolean(true));
        cells.push(std::move(c));

        SchemeConfig sc;
        sc.scheme = o.scheme;
        const SecurityContract contract = makeScheme(sc)->contract();
        if (contract.policy == ContractPolicy::None)
            baselineLeaks |= viol != 0;
        else if (contract.obligesTransmitterSafety
                 || contract.obligesConsumeSafety)
            dataflowLeaks |= viol != 0;
    }
    std::fputs(t.render().c_str(), out);
    if (anyCut)
        std::fputs("\nhostile tenant: no verdict (cells cut short)\n", out);
    else
        std::fprintf(out,
                     "\nhostile tenant: %s on Baseline, %s under "
                     "dataflow (transmitter-/consume-safe) schemes\n",
                     baselineLeaks ? "cross-tenant transmit observed"
                                   : "no cross-tenant transmit (!)",
                     dataflowLeaks ? "NOT closed (!)" : "closed");

    // Distinct from the engine's generic SBSIM_multi_tenant.json
    // (--json) dump: this flat summary is written on every run, the
    // gate scripts parse it without needing --json.
    Json doc = Json::object();
    doc.set("schema", Json::num(std::uint64_t(1)));
    doc.set("workload", Json::str(tenantWorkloadName(params)));
    doc.set("cells", std::move(cells));
    writeJsonFile("SBSIM_multi_tenant_summary.json", doc, out);
    // A cut-short row withheld the verdict: it fails like a leak.
    return !anyCut && baselineLeaks && !dataflowLeaks;
}

} // anonymous namespace

void
registerTenantScenarios(ScenarioRegistry &registry)
{
    Scenario s;
    s.name = "multi_tenant";
    s.title = "Consolidated server mix: per-scheme throughput, "
              "p50/p95/p99 tail latency, cross-tenant leakage";
    s.specs = [] {
        std::vector<RunSpec> specs;
        const std::string workload =
            tenantWorkloadName(scenarioParams());
        for (const CoreConfig &core :
             {CoreConfig::mega(), CoreConfig::megaFlush()}) {
            for (const SchemeConfig &scheme : allSchemeConfigs()) {
                RunSpec spec;
                spec.core = core;
                spec.scheme = scheme;
                spec.workload = workload;
                spec.warmupInsts = 0;
                spec.measureInsts = 0;
                specs.push_back(std::move(spec));
            }
        }
        return specs;
    };
    s.report = tenantReport;
    registry.add(std::move(s));
}

} // namespace sb
