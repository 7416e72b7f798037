/**
 * @file
 * Workload studio: build a custom kernel from the generator library,
 * inspect its static code, and measure how each secure speculation
 * scheme responds to its character — a playground for exploring the
 * microarchitectural levers (slow branches, dependent loads, tainted
 * store data) described in trace/kernels.hh.
 *
 * Usage: workload_studio [kernel]
 *   kernel: stream | chase | chain | branchy | storefwd | hashmix
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/table.hh"
#include "core/core.hh"
#include "secure/factory.hh"
#include "trace/kernels.hh"

namespace
{

sb::Program
buildKernel(const std::string &kind)
{
    if (kind == "stream") {
        sb::StreamParams p;
        p.footprintBytes = 8u << 20;
        return sb::makeStreamKernel(p);
    }
    if (kind == "chase") {
        sb::PointerChaseParams p;
        p.footprintBytes = 4u << 20;
        p.chains = 3;
        p.branchChainLength = 6;
        return sb::makePointerChaseKernel(p);
    }
    if (kind == "chain") {
        sb::ComputeChainParams p;
        p.chainLength = 8;
        p.independentWork = 6;
        return sb::makeComputeChainKernel(p);
    }
    if (kind == "branchy") {
        sb::BranchyParams p;
        p.hardBranches = 3;
        p.slowBranchChain = 6;
        return sb::makeBranchyKernel(p);
    }
    if (kind == "storefwd") {
        sb::StoreForwardParams p;
        return sb::makeStoreForwardKernel(p);
    }
    if (kind == "hashmix") {
        sb::HashMixParams p;
        p.dependentLoadFraction = 0.5;
        return sb::makeHashMixKernel(p);
    }
    sb_fatal("unknown kernel: ", kind);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace sb;

    const std::string kind = argc > 1 ? argv[1] : "storefwd";
    const Program program = buildKernel(kind);

    std::printf("Kernel '%s': %zu static micro-ops\n\n", kind.c_str(),
                program.size());
    std::printf("First loop body (disassembly up to 40 ops):\n");
    std::string dis = program.disassemble();
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (lines < 40 && pos < dis.size()) {
        const auto nl = dis.find('\n', pos);
        std::printf("  %s\n", dis.substr(pos, nl - pos).c_str());
        pos = nl + 1;
        ++lines;
    }

    std::printf("\nScheme response on the Mega configuration:\n");
    TextTable t;
    t.header({"scheme", "IPC", "relative", "blocks", "kills",
              "defers", "violations"});
    double base = 0.0;
    for (Scheme s : {Scheme::Baseline, Scheme::SttRename,
                     Scheme::SttIssue, Scheme::Nda}) {
        SchemeConfig scfg;
        scfg.scheme = s;
        Core core(CoreConfig::mega(), scfg, makeScheme(scfg), program);
        const auto r = core.run(120000, 10'000'000);
        if (s == Scheme::Baseline)
            base = r.ipc();
        t.row({schemeName(s), TextTable::num(r.ipc(), 3),
               TextTable::pct(base > 0 ? r.ipc() / base : 1.0),
               std::to_string(
                   core.stats().value("scheme_select_blocks")),
               std::to_string(core.stats().value("scheme_issue_kills")),
               std::to_string(
                   core.stats().value("deferred_broadcasts")),
               std::to_string(
                   core.stats().value("mem_order_violations"))});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
