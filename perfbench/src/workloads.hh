/**
 * @file
 * The benchmark's workloads: each is one fixed list of RunSpec
 * cells (a "pass") generated from the workload seed, plus how the
 * harness runs it (workers, result cache) and how its outputs are
 * judged.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/conformance.hh"
#include "harness/experiment.hh"

namespace perfbench
{

/** The cell kinds ExperimentRunner::runOne dispatches on. */
enum class CellKind { Window, Fuzz, Gadget, Mt };

CellKind cellKind(const sb::RunSpec &spec);
const char *cellKindName(CellKind kind);

/** Lower-case, metric-safe scheme handle ("stt-rename"). */
std::string schemeSlug(sb::Scheme scheme);

/** Width class of a core preset: "mega" (incl. mega-flush), "medium". */
std::string widthClass(const sb::CoreConfig &core);

/** One named workload. */
struct Workload
{
    std::string name;
    /** Client threads; in --trace 0 each drives its own single-worker
     *  engine, and the traced run's reference batch uses this many
     *  engine workers. */
    unsigned workers = 1;
    /** Give every pass a fresh result-cache directory. */
    bool useCache = false;
    /** One pass, in dispatch order. */
    std::vector<sb::RunSpec> cells;
    /** verify-cells: the fuzz campaign occupying cells[0, fuzzCells),
     *  followed by gadget-battery cells up to fuzzCells + batteryCells. */
    sb::FuzzParams fuzz;
    std::size_t fuzzCells = 0;
    std::size_t batteryCells = 0;
};

const std::vector<std::string> &workloadNames();

/** Build @p name's pass from @p seed; false on an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** The verdict over one pass. */
struct CheckResult
{
    /** Per cell: failed any check. */
    std::vector<bool> failed;
    /** The first few failures, one line each. */
    std::vector<std::string> messages;
    /** Host time spent in the folds (fold*Outcomes, aggregate). */
    double foldSeconds = 0;

    std::size_t failedCount() const;
    void fail(std::size_t cell, std::string message);
};

/**
 * Judge one pass's outcomes (in Workload::cells order): watchdog trips,
 * fuzz-oracle failures (foldFuzzOutcomes), gadget verdicts against each
 * scheme's declared contract (foldVerifyOutcomes), and window-cell
 * sanity (a full measurement window; every secure scheme below Baseline
 * IPC on each width, the paper's qualitative result).
 */
CheckResult checkPass(const Workload &workload,
                      const std::vector<sb::RunOutcome> &outcomes);

/**
 * Cells the traced run adds so every per-layer metric has samples on
 * every workload: one cell per (kind, scheme) the pass lacks (two for
 * server mixes: keep and flush switch policy), one window cell per
 * (scheme, width) it lacks, and one window cell per software
 * mitigation.
 */
std::vector<sb::RunSpec> coverageCells(const Workload &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
