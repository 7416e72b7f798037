/**
 * @file
 * Pipeline/taint trace visualiser (the stand-in for the paper's
 * TraceDoctor methodology, Sec. 7): runs a workload under a chosen
 * scheme and prints a cycle-by-cycle event log for a window of
 * execution, annotated with sequence numbers, YRoTs, and the
 * visibility point.
 *
 * Usage: taint_trace [benchmark] [scheme] [skip_cycles] [show_cycles]
 *   skip_cycles, show_cycles: decimal cycle counts (default 50000, 120)
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/number.hh"
#include "core/core.hh"
#include "secure/factory.hh"
#include "trace/spec_suite.hh"

int
main(int argc, char **argv)
{
    using namespace sb;

    // argv[i] as a cycle count, or the fallback when it is absent.
    auto cycleArg = [&](int i, Cycle fallback) {
        std::uint64_t cycles = fallback;
        if (argc > i && !parseUnsigned(argv[i], cycles))
            sb_fatal("want a decimal cycle count, got '", argv[i], "'");
        return cycles;
    };
    const std::string bench = argc > 1 ? argv[1] : "548.exchange2";
    const std::string scheme_name = argc > 2 ? argv[2] : "stt-rename";
    const Cycle skip = cycleArg(3, 50000);
    const Cycle show = cycleArg(4, 120);

    SchemeConfig scfg;
    if (scheme_name == "baseline")
        scfg.scheme = Scheme::Baseline;
    else if (scheme_name == "stt-rename")
        scfg.scheme = Scheme::SttRename;
    else if (scheme_name == "stt-issue")
        scfg.scheme = Scheme::SttIssue;
    else if (scheme_name == "nda")
        scfg.scheme = Scheme::Nda;
    else
        sb_fatal("unknown scheme: ", scheme_name);

    const Workload w = SpecSuite::make(bench);
    Core core(CoreConfig::mega(), scfg, makeScheme(scfg), w.program);

    std::printf("Tracing %s under %s (cycles %llu..%llu)\n\n",
                bench.c_str(), schemeName(scfg.scheme),
                static_cast<unsigned long long>(skip),
                static_cast<unsigned long long>(skip + show));

    // Run up to the window without tracing.
    while (core.now() < skip && !core.halted())
        core.tick();

    core.setTraceHook([&](const char *event, const DynInst &inst,
                          Cycle at) {
        std::printf("%8llu  %-10s seq=%-8llu pc=%-4u %-24s",
                    static_cast<unsigned long long>(at), event,
                    static_cast<unsigned long long>(inst.seq), inst.pc,
                    inst.uop.disassemble().c_str());
        if (inst.yrot != invalidSeqNum)
            std::printf(" yrot=%llu",
                        static_cast<unsigned long long>(inst.yrot));
        if (inst.yrotMask != invalidSeqNum)
            std::printf(" mask=%llu",
                        static_cast<unsigned long long>(inst.yrotMask));
        std::printf(" vp=%llu\n",
                    static_cast<unsigned long long>(
                        core.visibilityPoint()));
    });

    const Cycle end = core.now() + show;
    while (core.now() < end && !core.halted())
        core.tick();
    return 0;
}
