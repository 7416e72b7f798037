/**
 * @file
 * Scenario registry: each of the paper's figures, tables, and
 * ablations is registered as a named {specs(), report()} definition,
 * so one driver (tools/sbsim.cpp) can run any slice of the evaluation
 * through a shared ExperimentEngine — with in-batch dedup and the
 * content-addressed result cache amortizing every (config, scheme,
 * workload) cell across scenarios, so per-cell numbers are
 * bit-identical however a cell is reached.
 */

#ifndef SB_HARNESS_SCENARIO_HH
#define SB_HARNESS_SCENARIO_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace sb
{

/** One registered figure/table/ablation reproduction. */
struct Scenario
{
    std::string name;  ///< CLI handle, e.g. "fig6".
    std::string title; ///< One-line description for `sbsim list`.

    /**
     * The simulation cells this scenario needs. May be empty for
     * model-only scenarios (synthesis timing, area/power).
     */
    std::function<std::vector<RunSpec>()> specs;

    /**
     * Render the report to @p out; @p outcomes matches the order of
     * specs() element-for-element. Returns the report's verdict:
     * false when any check it prints failed (sbsim then exits 1);
     * figures and tables, which judge nothing, return true.
     */
    std::function<bool(const std::vector<RunOutcome> &outcomes,
                       std::FILE *out)>
        report;
};

class ScenarioRegistry
{
  public:
    /** The process-wide registry, pre-loaded with the paper set. */
    static ScenarioRegistry &instance();

    /** Register @p scenario (fatal on a duplicate name). */
    void add(Scenario scenario);

    /** Find by name; null when unknown. */
    const Scenario *find(const std::string &name) const;

    /** All names, in registration order. */
    std::vector<std::string> names() const;

  private:
    std::vector<Scenario> scenarios;
};

/**
 * Registers the figure/table/ablation scenarios into @p registry.
 * ScenarioRegistry::instance() calls this once; it is only public so
 * tests can build isolated registries.
 */
void registerPaperScenarios(ScenarioRegistry &registry);

} // namespace sb

#endif // SB_HARNESS_SCENARIO_HH
