#include "harness/scenario.hh"

#include "common/logging.hh"
#include "harness/conformance.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"

namespace sb
{

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry = [] {
        ScenarioRegistry r;
        registerPaperScenarios(r);
        registerSecurityScenarios(r);
        registerMitigationScenarios(r);
        registerConformanceScenarios(r);
        registerTenantScenarios(r);
        return r;
    }();
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    sb_assert(!scenario.name.empty(), "scenario without a name");
    sb_assert(scenario.specs && scenario.report,
              "scenario '", scenario.name, "' missing specs/report");
    if (find(scenario.name))
        sb_fatal("duplicate scenario '", scenario.name, "'");
    scenarios.push_back(std::move(scenario));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const Scenario &s : scenarios) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(scenarios.size());
    for (const Scenario &s : scenarios)
        out.push_back(s.name);
    return out;
}

} // namespace sb
