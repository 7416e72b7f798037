/**
 * @file
 * Quickstart: build a core, pick a secure speculation scheme, run a
 * workload, and read the results.
 *
 * Usage: quickstart [benchmark] [scheme] [config]
 *   benchmark: a SPEC2017 stand-in name (default 505.mcf)
 *   scheme:    baseline | stt-rename | stt-issue | nda (default all)
 *   config:    small | medium | large | mega (default mega)
 *
 * Set SB_DUMP_STATS=1 to additionally dump every core and cache
 * counter per scheme.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.hh"
#include "common/roster.hh"
#include "common/table.hh"
#include "core/core.hh"
#include "secure/factory.hh"
#include "trace/spec_suite.hh"

namespace
{

std::vector<sb::Scheme>
schemesByName(const std::string &name)
{
    if (name == "baseline")
        return {sb::Scheme::Baseline};
    if (name == "stt-rename")
        return {sb::Scheme::SttRename};
    if (name == "stt-issue")
        return {sb::Scheme::SttIssue};
    if (name == "nda")
        return {sb::Scheme::Nda};
    if (name == "all") {
        return {sb::Scheme::Baseline, sb::Scheme::SttRename,
                sb::Scheme::SttIssue, sb::Scheme::Nda};
    }
    sb_fatal("unknown scheme: ", name);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "505.mcf";
    const std::string scheme_name = argc > 2 ? argv[2] : "all";
    const std::string config_name = argc > 3 ? argv[3] : "mega";

    const sb::Workload workload = sb::SpecSuite::make(bench);
    sb::CoreConfig cfg;
    if (!sb::fromName(sb::CoreConfig::boomPresets(), &sb::CoreConfig::name,
                      config_name, cfg))
        sb_fatal("unknown config: ", config_name);

    std::printf("ShadowBinding quickstart: %s on the %s BOOM config\n\n",
                workload.name.c_str(), cfg.name.c_str());

    sb::TextTable table;
    table.header({"scheme", "IPC", "cycles", "insts", "mispredicts",
                  "order-violations", "blocks", "kills", "defers",
                  "forwards", "stt-viol", "nda-viol"});

    double base_ipc = 0.0;
    for (sb::Scheme s : schemesByName(scheme_name)) {
        sb::SchemeConfig scfg;
        scfg.scheme = s;
        sb::Core core(cfg, scfg, sb::makeScheme(scfg), workload.program);
        // The viol columns are the contract shadow's counts.
        core.setContractShadowEnabled(true);
        const sb::RunResult r = core.run(200000, 10'000'000);

        if (s == sb::Scheme::Baseline)
            base_ipc = r.ipc();
        std::string label = sb::schemeName(s);
        if (base_ipc > 0.0 && s != sb::Scheme::Baseline) {
            label += " (" + sb::TextTable::pct(r.ipc() / base_ipc)
                     + " of base)";
        }
        table.row({label, sb::TextTable::num(r.ipc()),
                   std::to_string(r.cycles),
                   std::to_string(r.instructions),
                   std::to_string(
                       core.stats().value("branch_mispredicts")),
                   std::to_string(
                       core.stats().value("mem_order_violations")),
                   std::to_string(
                       core.stats().value("scheme_select_blocks")),
                   std::to_string(
                       core.stats().value("scheme_issue_kills")),
                   std::to_string(
                       core.stats().value("deferred_broadcasts")),
                   std::to_string(core.stats().value("load_forwards")),
                   std::to_string(
                       core.contractShadow().transmitViolations()),
                   std::to_string(
                       core.contractShadow().consumeViolations())});
        if (std::getenv("SB_DUMP_STATS")) {
            std::printf("--- %s counters ---\n%s%s%s",
                        sb::schemeName(s),
                        core.stats().render().c_str(),
                        core.memorySystem().l1Cache().stats().render()
                            .c_str(),
                        core.memorySystem().l2Cache().stats().render()
                            .c_str());
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("stt-viol / nda-viol are the contract shadow's STT "
                "transmit / NDA consume counts:\nSTT schemes must show "
                "0 stt-viol; NDA must show 0 of both.\n");
    return 0;
}

