/**
 * @file
 * Simulator-throughput benchmark (host-side performance, not modelled
 * performance). Runs every spec_suite workload under each of the four
 * paper schemes on one thread, measures wall-clock time, and reports
 * simulated MIPS (committed instructions / second) per scheme.
 *
 * Emits BENCH_simspeed.json so the perf trajectory of the cycle
 * engine is machine-readable from this PR onward. The per-scheme
 * total cycle and committed-instruction counts are printed (and
 * included in the JSON) as the stats-parity signature: any engine
 * optimization must reproduce them bit-identically.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/core.hh"
#include "secure/factory.hh"
#include "trace/spec_suite.hh"

namespace
{

struct SchemeResult
{
    std::string name;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double wallSeconds = 0.0;

    double mips() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(instructions) / wallSeconds / 1e6;
    }
};

SchemeResult
runScheme(sb::Scheme scheme, const std::vector<sb::Workload> &workloads,
          std::uint64_t insts_per_workload)
{
    using Clock = std::chrono::steady_clock;

    sb::SchemeConfig scheme_cfg;
    scheme_cfg.scheme = scheme;
    const sb::CoreConfig core_cfg = sb::CoreConfig::mega();

    SchemeResult res;
    res.name = sb::schemeName(scheme);

    const auto t0 = Clock::now();
    for (const sb::Workload &workload : workloads) {
        sb::Core core(core_cfg, scheme_cfg, sb::makeScheme(scheme_cfg),
                      workload.program);
        const sb::RunResult r =
            core.run(insts_per_workload, 40'000'000);
        res.instructions += r.instructions;
        res.cycles += r.cycles;
    }
    res.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return res;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Small mode for quick smoke runs: simspeed --quick
    std::uint64_t insts = 150000;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick") {
            insts = 20000;
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }

    std::printf("=== Simulator throughput (simulated MIPS, "
                "single-threaded) ===\n\n");
    std::printf("%-12s %14s %14s %10s %10s\n", "scheme", "insts",
                "cycles", "wall[s]", "MIPS");

    // Built before any timing, so every scheme times the same work:
    // only simulation, never a stand-in's first build.
    const std::vector<sb::Workload> workloads = sb::SpecSuite::all();
    std::vector<SchemeResult> results;
    for (sb::Scheme s :
         {sb::Scheme::Baseline, sb::Scheme::SttRename,
          sb::Scheme::SttIssue, sb::Scheme::Nda}) {
        SchemeResult r = runScheme(s, workloads, insts);
        std::printf("%-12s %14llu %14llu %10.3f %10.3f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.instructions),
                    static_cast<unsigned long long>(r.cycles),
                    r.wallSeconds, r.mips());
        results.push_back(std::move(r));
    }

    FILE *f = std::fopen("BENCH_simspeed.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot open BENCH_simspeed.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"simspeed\",\n");
    std::fprintf(f, "  \"core\": \"mega\",\n");
    std::fprintf(f, "  \"insts_per_workload\": %llu,\n",
                 static_cast<unsigned long long>(insts));
    std::fprintf(f, "  \"schemes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"instructions\": %llu, "
                     "\"cycles\": %llu, \"wall_seconds\": %.6f, "
                     "\"mips\": %.3f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.instructions),
                     static_cast<unsigned long long>(r.cycles),
                     r.wallSeconds, r.mips(),
                     i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_simspeed.json\n");
    return 0;
}
