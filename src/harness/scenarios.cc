/**
 * @file
 * The paper's evaluation grid as registered scenarios, run through
 * `sbsim run <name>`: each definition pairs a specs() builder with a
 * report() renderer, and the shared ExperimentEngine dedups and
 * caches the overlapping grid cells across scenarios.
 */

#include "harness/scenario.hh"

#include <cstdio>
#include <map>

#include "common/table.hh"
#include "harness/reporting.hh"
#include "synth/area_model.hh"
#include "synth/power_model.hh"
#include "synth/timing_model.hh"
#include "trace/spec_suite.hh"

namespace sb
{

namespace
{

/** Baseline + the three evaluated schemes, in presentation order. */
std::vector<SchemeConfig>
fourSchemes()
{
    std::vector<SchemeConfig> schemes;
    for (Scheme s : {Scheme::Baseline, Scheme::SttRename,
                     Scheme::SttIssue, Scheme::Nda}) {
        SchemeConfig c;
        c.scheme = s;
        schemes.push_back(c);
    }
    return schemes;
}

// --- Table 1: configurations and baseline IPC --------------------------

Scenario
table1Scenario()
{
    Scenario s;
    s.name = "table1";
    s.title = "Table 1: BOOM configurations and baseline SPEC2017 IPC";
    s.specs = [] {
        SchemeConfig baseline;
        return suiteSpecs(CoreConfig::boomPresets(), {baseline});
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Table 1: BOOM configurations and "
                          "baseline SPEC2017 IPC ===\n\n");

        TextTable t;
        t.header({"", "Small", "Medium", "Large", "Mega", "Intel (ref)"});
        t.row({"Core Width", "1", "2", "3", "4", "6"});
        t.row({"Memory Ports", "1", "1", "1", "2", "3+2"});
        t.row({"ROB Entries", "32", "64", "96", "128", "512"});

        std::vector<std::string> ipc_row{"SPEC2017 IPC (measured)"};
        std::vector<std::string> paper_row{"SPEC2017 IPC (paper)"};
        for (const auto &cfg : CoreConfig::boomPresets()) {
            const auto agg =
                aggregate(filter(outcomes, cfg.name, Scheme::Baseline));
            ipc_row.push_back(TextTable::num(agg.meanIpc, 3));
        }
        ipc_row.push_back("2.03");
        for (const char *v : {"0.46", "0.60", "0.943", "1.27", "2.03"})
            paper_row.push_back(v);
        t.row(ipc_row);
        t.row(paper_row);

        std::fprintf(out, "%s\n", t.render().c_str());
    };
    return s;
}

// --- Figure 1: normalized performance vs absolute IPC ------------------

Scenario
fig1Scenario()
{
    Scenario s;
    s.name = "fig1";
    s.title = "Figure 1: normalized performance (IPC x timing) vs "
              "absolute IPC";
    s.specs = [] {
        return suiteSpecs(CoreConfig::boomPresets(), fourSchemes(),
                          100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Figure 1: normalized performance "
                          "(IPC x timing) vs absolute IPC ===\n\n");

        const auto configs = CoreConfig::boomPresets();
        TextTable t;
        t.header({"config", "base IPC", "STT-Rename", "STT-Issue",
                  "NDA"});

        std::map<Scheme, std::vector<double>> xs, ys;
        for (const auto &cfg : configs) {
            const auto base =
                aggregate(filter(outcomes, cfg.name, Scheme::Baseline));
            std::vector<std::string> row{
                cfg.name, TextTable::num(base.meanIpc, 3)};
            for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                              Scheme::Nda}) {
                const auto agg =
                    aggregate(filter(outcomes, cfg.name, sc));
                const double perf =
                    (agg.meanIpc / base.meanIpc)
                    * TimingModel::relativeFrequency(cfg, sc);
                xs[sc].push_back(base.meanIpc);
                ys[sc].push_back(perf);
                row.push_back(TextTable::num(perf, 3));
            }
            t.row(row);
        }
        t.row({"paper (Mega)", "1.27", "0.65", "0.73", "0.78"});
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Linear trends (performance vs absolute IPC) and "
                     "the Redwood Cove point (IPC %.2f):\n",
                     IntelReference::specIpc);
        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            const LinearFit fit = fitLine(xs[sc], ys[sc]);
            std::fprintf(out,
                         "  %-11s perf = %.3f %+.3f * IPC   -> linear "
                         "at Intel: %.3f, half-slope: %.3f\n",
                         schemeName(sc), fit.intercept, fit.slope,
                         fit.at(IntelReference::specIpc),
                         fit.atHalfSlope(IntelReference::specIpc,
                                         xs[sc].back(), ys[sc].back()));
        }

        std::fprintf(out, "\nFigure 1 scatter (x = absolute IPC, # at "
                          "relative performance):\n");
        for (std::size_t i = 0; i < configs.size(); ++i) {
            std::fprintf(out, "  IPC %.2f  STT-R |%-40s|\n",
                         xs[Scheme::SttRename][i],
                         bar(ys[Scheme::SttRename][i]).c_str());
            std::fprintf(out, "           STT-I |%-40s|\n",
                         bar(ys[Scheme::SttIssue][i]).c_str());
            std::fprintf(out, "           NDA   |%-40s|\n",
                         bar(ys[Scheme::Nda][i]).c_str());
        }
    };
    return s;
}

// --- Figure 6: per-benchmark IPC on Mega -------------------------------

Scenario
fig6Scenario()
{
    Scenario s;
    s.name = "fig6";
    s.title = "Figure 6: normalized IPC per benchmark on Mega BOOM";
    s.specs = [] {
        return suiteSpecs({CoreConfig::mega()}, fourSchemes());
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Figure 6: normalized IPC per benchmark, "
                          "Mega BOOM ===\n\n");

        const auto base =
            aggregate(filter(outcomes, "mega", Scheme::Baseline));
        const auto rename =
            aggregate(filter(outcomes, "mega", Scheme::SttRename));
        const auto issue =
            aggregate(filter(outcomes, "mega", Scheme::SttIssue));
        const auto nda =
            aggregate(filter(outcomes, "mega", Scheme::Nda));

        TextTable t;
        t.header({"benchmark", "base IPC", "STT-Rename", "STT-Issue",
                  "NDA"});
        for (const auto &name : SpecSuite::benchmarkNames()) {
            const double b = base.perBench.at(name);
            t.row({name, TextTable::num(b, 3),
                   TextTable::pct(rename.perBench.at(name) / b),
                   TextTable::pct(issue.perBench.at(name) / b),
                   TextTable::pct(nda.perBench.at(name) / b)});
        }
        t.row({"suite mean (SPEC method)",
               TextTable::num(base.meanIpc, 3),
               TextTable::pct(rename.meanIpc / base.meanIpc),
               TextTable::pct(issue.meanIpc / base.meanIpc),
               TextTable::pct(nda.meanIpc / base.meanIpc)});
        t.row({"paper suite mean", "1.27", "81.9%", "84.5%", "73.6%"});
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Figure 6 bars (normalized IPC, # = 2.5%%):\n");
        for (const auto &name : SpecSuite::benchmarkNames()) {
            const double b = base.perBench.at(name);
            std::fprintf(out, "  %-16s STT-R |%-40s|\n", name.c_str(),
                         bar(rename.perBench.at(name) / b).c_str());
            std::fprintf(out, "  %-16s STT-I |%-40s|\n", "",
                         bar(issue.perBench.at(name) / b).c_str());
            std::fprintf(out, "  %-16s NDA   |%-40s|\n", "",
                         bar(nda.perBench.at(name) / b).c_str());
        }
    };
    return s;
}

// --- Figure 7: per-benchmark IPC per configuration ---------------------

Scenario
fig7Scenario()
{
    Scenario s;
    s.name = "fig7";
    s.title = "Figure 7: normalized IPC per configuration";
    s.specs = [] {
        return suiteSpecs(CoreConfig::boomPresets(), fourSchemes(),
                          100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Figure 7: normalized IPC per "
                          "configuration ===\n");

        const auto configs = CoreConfig::boomPresets();
        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            std::fprintf(out, "\n--- Figure 7: %s ---\n",
                         schemeName(sc));
            TextTable t;
            t.header({"benchmark", "small", "medium", "large", "mega"});
            for (const auto &name : SpecSuite::benchmarkNames()) {
                std::vector<std::string> row{name};
                for (const auto &cfg : configs) {
                    const auto base = aggregate(
                        filter(outcomes, cfg.name, Scheme::Baseline));
                    const auto agg =
                        aggregate(filter(outcomes, cfg.name, sc));
                    row.push_back(
                        TextTable::pct(agg.perBench.at(name)
                                       / base.perBench.at(name)));
                }
                t.row(row);
            }
            std::vector<std::string> mean_row{"suite mean"};
            for (const auto &cfg : configs) {
                const auto base = aggregate(
                    filter(outcomes, cfg.name, Scheme::Baseline));
                const auto agg =
                    aggregate(filter(outcomes, cfg.name, sc));
                mean_row.push_back(
                    TextTable::pct(agg.meanIpc / base.meanIpc));
            }
            t.row(mean_row);
            std::fprintf(out, "%s", t.render().c_str());
        }

        std::fprintf(out,
                     "\nPaper suite-mean IPC losses for comparison "
                     "(Table 5): Medium 7.3/6.4/10.7%%, Large "
                     "11.3/10.0/18.6%%, Mega 17.6/15.8/22.4%% for "
                     "STT-Rename/STT-Issue/NDA.\n");
    };
    return s;
}

// --- Figure 8: relative IPC vs absolute IPC ----------------------------

Scenario
fig8Scenario()
{
    Scenario s;
    s.name = "fig8";
    s.title = "Figure 8: relative IPC vs absolute baseline IPC";
    s.specs = [] {
        return suiteSpecs(CoreConfig::boomPresets(), fourSchemes(),
                          100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Figure 8: relative IPC vs absolute "
                          "baseline IPC ===\n\n");

        TextTable t;
        t.header({"config", "abs IPC", "STT-Rename", "STT-Issue",
                  "NDA"});
        std::map<Scheme, std::vector<double>> xs, ys;
        for (const auto &cfg : CoreConfig::boomPresets()) {
            const auto base =
                aggregate(filter(outcomes, cfg.name, Scheme::Baseline));
            std::vector<std::string> row{
                cfg.name, TextTable::num(base.meanIpc, 3)};
            for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                              Scheme::Nda}) {
                const auto agg =
                    aggregate(filter(outcomes, cfg.name, sc));
                const double rel = agg.meanIpc / base.meanIpc;
                xs[sc].push_back(base.meanIpc);
                ys[sc].push_back(rel);
                row.push_back(TextTable::pct(rel));
            }
            t.row(row);
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Linear trends and the Redwood Cove estimate "
                     "(IPC %.2f):\n",
                     IntelReference::specIpc);
        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            const LinearFit fit = fitLine(xs[sc], ys[sc]);
            const double at_intel = fit.at(IntelReference::specIpc);
            std::fprintf(out,
                         "  %-11s rel-IPC = %.3f %+.3f * IPC -> %.3f "
                         "at Intel (%.1f%% loss; paper predicts > "
                         "20%%)\n",
                         schemeName(sc), fit.intercept, fit.slope,
                         at_intel, (1.0 - at_intel) * 100.0);
        }

        std::fprintf(out,
                     "\nShape check: relative IPC must fall as "
                     "absolute IPC rises (negative slopes above).\n");
    };
    return s;
}

// --- Figure 9: synthesis frequency (model-only) ------------------------

Scenario
fig9Scenario()
{
    Scenario s;
    s.name = "fig9";
    s.title = "Figure 9: achieved synthesis frequency per "
              "configuration (model-only)";
    s.specs = [] { return std::vector<RunSpec>{}; };
    s.report = [](const std::vector<RunOutcome> &, std::FILE *out) {
        std::fprintf(out, "=== Figure 9: achieved frequency (MHz) per "
                          "configuration ===\n\n");

        const auto configs = CoreConfig::boomPresets();
        const Scheme schemes[] = {Scheme::Baseline, Scheme::SttRename,
                                  Scheme::SttIssue, Scheme::Nda};

        TextTable t;
        t.header({"scheme", "Small", "Medium", "Large", "Mega"});
        for (Scheme sc : schemes) {
            std::vector<std::string> row{schemeName(sc)};
            for (const auto &cfg : configs) {
                row.push_back(TextTable::num(
                    TimingModel::frequencyMhz(cfg, sc), 1));
            }
            t.row(row);
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        TextTable r;
        r.header({"scheme (relative)", "Small", "Medium", "Large",
                  "Mega", "paper Mega"});
        const char *paper[] = {"100%", "~79%", "~87%", "~100%"};
        int i = 0;
        for (Scheme sc : schemes) {
            std::vector<std::string> row{schemeName(sc)};
            for (const auto &cfg : configs) {
                row.push_back(TextTable::pct(
                    TimingModel::relativeFrequency(cfg, sc)));
            }
            row.push_back(paper[i++]);
            r.row(row);
        }
        std::fprintf(out, "%s\n", r.render().c_str());

        std::fprintf(out, "Critical-path breakdown (Mega, gate-depth "
                          "units):\n");
        for (Scheme sc : schemes) {
            const auto b = TimingModel::analyze(CoreConfig::mega(), sc);
            std::fprintf(out,
                         "  %-11s rename=%6.1f issue=%6.1f "
                         "bypass=%6.1f -> critical=%6.1f (%.1f MHz)\n",
                         schemeName(sc), b.renameStage, b.issueStage,
                         b.bypassNetwork, b.criticalPath,
                         b.frequencyMhz);
        }
    };
    return s;
}

// --- Figure 10: relative timing vs absolute IPC ------------------------

Scenario
fig10Scenario()
{
    Scenario s;
    s.name = "fig10";
    s.title = "Figure 10: relative synthesis timing vs absolute IPC";
    s.specs = [] {
        SchemeConfig baseline;
        return suiteSpecs(CoreConfig::boomPresets(), {baseline},
                          100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Figure 10: relative timing vs absolute "
                          "IPC ===\n\n");

        TextTable t;
        t.header({"config", "abs IPC", "STT-Rename", "STT-Issue",
                  "NDA"});
        std::map<Scheme, std::vector<double>> xs, ys;
        for (const auto &cfg : CoreConfig::boomPresets()) {
            const auto base =
                aggregate(filter(outcomes, cfg.name, Scheme::Baseline));
            std::vector<std::string> row{
                cfg.name, TextTable::num(base.meanIpc, 3)};
            for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                              Scheme::Nda}) {
                const double rel =
                    TimingModel::relativeFrequency(cfg, sc);
                xs[sc].push_back(base.meanIpc);
                ys[sc].push_back(rel);
                row.push_back(TextTable::pct(rel));
            }
            t.row(row);
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            const LinearFit fit = fitLine(xs[sc], ys[sc]);
            std::fprintf(out, "  %-11s rel-timing = %.3f %+.3f * IPC\n",
                         schemeName(sc), fit.intercept, fit.slope);
        }
        std::fprintf(out,
                     "\nShape check: NDA ~flat at 1.0; STT-Rename "
                     "slope most negative (paper Sec. 8.3).\n");
    };
    return s;
}

// --- Table 3: normalized performance per configuration -----------------

Scenario
table3Scenario()
{
    Scenario s;
    s.name = "table3";
    s.title = "Table 3: normalized performance (IPC x timing) per "
              "configuration";
    s.specs = [] {
        return suiteSpecs(CoreConfig::boomPresets(), fourSchemes(),
                          100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Table 3: normalized performance per "
                          "configuration ===\n\n");

        const auto configs = CoreConfig::boomPresets();
        TextTable t;
        t.header({"scheme", "Small", "Medium", "Large", "Mega",
                  "Intel (half-slope)", "paper row"});
        const char *paper[] = {"0.98 0.93 0.84 0.65 | 0.53",
                               "0.98 0.86 0.81 0.73 | 0.62",
                               "1.01 0.88 0.80 0.78 | 0.66"};
        int pi = 0;
        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            std::vector<double> xs, ys;
            std::vector<std::string> row{schemeName(sc)};
            for (const auto &cfg : configs) {
                const auto base = aggregate(
                    filter(outcomes, cfg.name, Scheme::Baseline));
                const auto agg =
                    aggregate(filter(outcomes, cfg.name, sc));
                const double perf =
                    (agg.meanIpc / base.meanIpc)
                    * TimingModel::relativeFrequency(cfg, sc);
                xs.push_back(base.meanIpc);
                ys.push_back(perf);
                row.push_back(TextTable::num(perf, 2));
            }
            const LinearFit fit = fitLine(xs, ys);
            row.push_back(TextTable::num(
                fit.atHalfSlope(IntelReference::specIpc, xs.back(),
                                ys.back()),
                2));
            row.push_back(paper[pi++]);
            t.row(row);
        }
        std::fprintf(out, "%s\n", t.render().c_str());
        std::fprintf(out,
                     "Performance = (suite-mean IPC relative to "
                     "baseline) x (relative synthesis frequency).\n");
    };
    return s;
}

// --- Table 4: area and power (model-only) ------------------------------

Scenario
table4Scenario()
{
    Scenario s;
    s.name = "table4";
    s.title = "Table 4: area and power relative to baseline "
              "(model-only)";
    s.specs = [] { return std::vector<RunSpec>{}; };
    s.report = [](const std::vector<RunOutcome> &, std::FILE *out) {
        std::fprintf(out, "=== Table 4: area and power, normalised to "
                          "baseline (Mega) ===\n\n");

        const CoreConfig mega = CoreConfig::mega();

        TextTable t;
        t.header({"scheme", "LUTs", "FFs", "Power",
                  "paper (LUT/FF/P)"});
        const char *paper[] = {"1.060 / 1.094 / 1.008",
                               "1.059 / 1.039 / 1.026",
                               "0.980 / 1.027 / 0.936"};
        int i = 0;
        for (Scheme sc : {Scheme::SttRename, Scheme::SttIssue,
                          Scheme::Nda}) {
            const AreaEstimate rel = AreaModel::relative(mega, sc);
            t.row({schemeName(sc), TextTable::num(rel.luts, 3),
                   TextTable::num(rel.ffs, 3),
                   TextTable::num(PowerModel::relative(mega, sc), 3),
                   paper[i++]});
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out, "Absolute structure estimates (arbitrary "
                          "units):\n");
        for (Scheme sc : {Scheme::Baseline, Scheme::SttRename,
                          Scheme::SttIssue, Scheme::Nda}) {
            const AreaEstimate a = AreaModel::estimate(mega, sc);
            std::fprintf(out, "  %-11s LUTs=%8.0f FFs=%8.0f\n",
                         schemeName(sc), a.luts, a.ffs);
        }

        std::fprintf(out, "\nExtension: NDA-Strict area/power (not in "
                          "the paper):\n");
        const AreaEstimate strict =
            AreaModel::relative(mega, Scheme::NdaStrict);
        std::fprintf(out,
                     "  NDA-Strict  LUTs=%.3f FFs=%.3f Power=%.3f\n",
                     strict.luts, strict.ffs,
                     PowerModel::relative(mega, Scheme::NdaStrict));
    };
    return s;
}

// --- Table 5: BOOM vs gem5-style configurations ------------------------

std::vector<CoreConfig>
table5Configs()
{
    return {CoreConfig::medium(), CoreConfig::large(),
            CoreConfig::mega(), CoreConfig::gem5Stt(),
            CoreConfig::gem5Nda()};
}

Scenario
table5Scenario()
{
    Scenario s;
    s.name = "table5";
    s.title = "Table 5: BOOM vs gem5-style configurations";
    s.specs = [] {
        return suiteSpecs(table5Configs(), fourSchemes(), 100000);
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Table 5: BOOM vs gem5-style "
                          "configurations ===\n\n");

        const auto lossPct = [](double base, double scheme) {
            return (1.0 - scheme / base) * 100.0;
        };

        TextTable t;
        t.header({"configuration", "base IPC", "STT-Rename loss",
                  "STT-Issue loss", "NDA loss"});
        for (const auto &cfg : table5Configs()) {
            const auto base =
                aggregate(filter(outcomes, cfg.name, Scheme::Baseline));
            const auto rename = aggregate(
                filter(outcomes, cfg.name, Scheme::SttRename));
            const auto issue = aggregate(
                filter(outcomes, cfg.name, Scheme::SttIssue));
            const auto nda =
                aggregate(filter(outcomes, cfg.name, Scheme::Nda));
            t.row({cfg.name, TextTable::num(base.meanIpc, 2),
                   TextTable::num(lossPct(base.meanIpc, rename.meanIpc),
                                  1)
                       + "%",
                   TextTable::num(lossPct(base.meanIpc, issue.meanIpc),
                                  1)
                       + "%",
                   TextTable::num(lossPct(base.meanIpc, nda.meanIpc), 1)
                       + "%"});
        }
        t.row({"paper BOOM Medium", "0.54", "7.3%", "6.4%", "10.7%"});
        t.row({"paper BOOM Large", "0.83", "11.3%", "10.0%", "18.6%"});
        t.row({"paper BOOM Mega", "1.09", "17.6%", "15.8%", "22.4%"});
        t.row({"paper gem5 (STT cfg)", "1.12", "17.2%", "N/A", "-"});
        t.row({"paper gem5 (NDA cfg)", "0.79", "-", "N/A", "13.0%"});
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Shape check (Sec. 9.5): the gem5-STT "
                     "configuration's single-cycle L1 and large window "
                     "yield a higher\nbaseline IPC; the gem5-NDA "
                     "configuration lands between Medium and Large "
                     "with a milder NDA loss.\n");
    };
    return s;
}

// --- Ablation Sec. 5.1: NDA +/- speculative L1-hit scheduling ----------

const std::vector<std::string> &
l1hitBenches()
{
    static const std::vector<std::string> benches = {
        "503.bwaves", "538.imagick", "505.mcf", "502.gcc",
        "548.exchange2", "520.omnetpp",
    };
    return benches;
}

Scenario
ablationL1hitScenario()
{
    Scenario s;
    s.name = "ablation_l1hit";
    s.title = "Ablation (Sec. 5.1): NDA +/- speculative L1-hit "
              "scheduling";
    s.specs = [] {
        SchemeConfig base;
        SchemeConfig nda;
        nda.scheme = Scheme::Nda;
        SchemeConfig nda_spec = nda;
        nda_spec.ndaKeepSpeculativeScheduling = true;

        std::vector<RunSpec> specs;
        for (const auto &cfg : {base, nda, nda_spec}) {
            for (const auto &b : l1hitBenches()) {
                RunSpec spec;
                spec.core = CoreConfig::mega();
                spec.scheme = cfg;
                spec.workload = b;
                spec.measureInsts = 120000;
                specs.push_back(std::move(spec));
            }
        }
        return specs;
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Ablation (Sec. 5.1): NDA +/- "
                          "speculative L1-hit scheduling ===\n\n");

        const auto &benches = l1hitBenches();
        const std::size_t n = benches.size();

        TextTable t;
        t.header({"benchmark", "base IPC", "NDA (no spec sched)",
                  "NDA (keep spec sched)"});
        for (std::size_t i = 0; i < n; ++i) {
            const double b = outcomes[i].ipc;
            t.row({benches[i], TextTable::num(b, 3),
                   TextTable::pct(outcomes[n + i].ipc / b),
                   TextTable::pct(outcomes[2 * n + i].ipc / b)});
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Timing side (Mega): removing the logic lets NDA "
                     "reach %.1f MHz vs the baseline's %.1f MHz.\n",
                     TimingModel::frequencyMhz(CoreConfig::mega(),
                                               Scheme::Nda),
                     TimingModel::frequencyMhz(CoreConfig::mega(),
                                               Scheme::Baseline));
        std::fprintf(out,
                     "Conclusion (paper Sec. 5.1): the IPC benefit of "
                     "keeping the logic is marginal for NDA, while "
                     "removing it simplifies timing.\n");
    };
    return s;
}

// --- Ablation Sec. 9.2: store taints on 548.exchange2 ------------------

struct StoreVariant
{
    const char *label;
    SchemeConfig cfg;
};

std::vector<StoreVariant>
storeVariants()
{
    std::vector<StoreVariant> variants;
    SchemeConfig c;
    variants.push_back({"Baseline", c});
    c.scheme = Scheme::SttRename;
    variants.push_back({"STT-Rename (single taint)", c});
    c.twoTaintStores = true;
    variants.push_back({"STT-Rename (two-taint stores)", c});
    SchemeConfig i;
    i.scheme = Scheme::SttIssue;
    variants.push_back({"STT-Issue", i});
    SchemeConfig n;
    n.scheme = Scheme::Nda;
    variants.push_back({"NDA", n});
    return variants;
}

Scenario
ablationStoresScenario()
{
    Scenario s;
    s.name = "ablation_stores";
    s.title = "Ablation (Sec. 9.2): store taints and forwarding "
              "errors on 548.exchange2";
    s.specs = [] {
        std::vector<RunSpec> specs;
        for (const auto &v : storeVariants()) {
            RunSpec spec;
            spec.core = CoreConfig::mega();
            spec.scheme = v.cfg;
            spec.workload = "548.exchange2";
            spec.measureInsts = 150000;
            specs.push_back(std::move(spec));
        }
        return specs;
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Ablation (Sec. 9.2): store taints and "
                          "forwarding errors on 548.exchange2 ===\n\n");

        const auto variants = storeVariants();
        const double base_ipc = outcomes.front().ipc;
        TextTable t;
        t.header({"variant", "IPC", "relative", "forwarding errors",
                  "scheme blocks"});
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const auto &o = outcomes[i];
            t.row({variants[i].label, TextTable::num(o.ipc, 3),
                   TextTable::pct(o.ipc / base_ipc),
                   std::to_string(o.stat("mem_order_violations")),
                   std::to_string(o.stat("scheme_select_blocks"))});
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out,
                     "Paper observation: STT-Rename suffered ~1350x "
                     "the forwarding errors of NDA on exchange2 (abs "
                     "IPC 1.44 vs 1.77);\nthe two-taint optimization "
                     "and STT-Issue both eliminate the error storm.\n");
    };
    return s;
}

// --- scheme_compare: the full secure-scheme roster on Mega -------------

Scenario
schemeCompareScenario()
{
    Scenario s;
    s.name = "scheme_compare";
    s.title = "Scheme compare: the full secure-scheme roster "
              "(STT-Rename/STT-Issue/NDA/NDA-Strict/DoM/DelayAll) on "
              "Mega BOOM";
    s.specs = [] {
        return suiteSpecs({CoreConfig::mega()}, allSchemeConfigs());
    };
    s.report = [](const std::vector<RunOutcome> &outcomes,
                  std::FILE *out) {
        std::fprintf(out, "=== Scheme compare: full roster over the "
                          "kernel suite, Mega BOOM ===\n\n");

        const CoreConfig mega = CoreConfig::mega();
        std::map<Scheme, SuiteAggregate> aggs;
        for (Scheme sc : allSchemes())
            aggs[sc] = aggregate(filter(outcomes, "mega", sc));
        const SuiteAggregate &base = aggs.at(Scheme::Baseline);

        TextTable t;
        t.header({"scheme", "suite IPC", "rel IPC", "rel freq",
                  "perf (IPC x freq)"});
        t.row({"Baseline", TextTable::num(base.meanIpc, 3), "100.0%",
               "100.0%", TextTable::num(1.0, 3)});
        for (Scheme sc : allSchemes()) {
            if (sc == Scheme::Baseline)
                continue;
            const SuiteAggregate &agg = aggs.at(sc);
            const double rel = agg.meanIpc / base.meanIpc;
            const double freq = TimingModel::relativeFrequency(mega, sc);
            t.row({schemeName(sc), TextTable::num(agg.meanIpc, 3),
                   TextTable::pct(rel), TextTable::pct(freq),
                   TextTable::num(rel * freq, 3)});
        }
        std::fprintf(out, "%s\n", t.render().c_str());

        std::fprintf(out, "Per-benchmark IPC relative to the unsafe "
                          "baseline:\n");
        TextTable p;
        p.header({"benchmark", "STT-Rename", "STT-Issue", "NDA",
                  "NDA-Strict", "DoM", "DelayAll"});
        const Scheme cols[] = {Scheme::SttRename, Scheme::SttIssue,
                               Scheme::Nda,       Scheme::NdaStrict,
                               Scheme::DelayOnMiss, Scheme::DelayAll};
        for (const auto &name : SpecSuite::benchmarkNames()) {
            std::vector<std::string> row{name};
            const double b = base.perBench.at(name);
            for (Scheme sc : cols) {
                row.push_back(
                    TextTable::pct(aggs.at(sc).perBench.at(name) / b));
            }
            p.row(row);
        }
        std::fprintf(out, "%s\n", p.render().c_str());

        std::fprintf(out,
                     "Expected ordering: DelayAll is the conservative "
                     "endpoint (every speculative load waits), DoM "
                     "sits between the\nselective schemes and DelayAll "
                     "on miss-heavy workloads but near baseline on "
                     "L1-resident ones.\n");
    };
    return s;
}

} // anonymous namespace

void
registerPaperScenarios(ScenarioRegistry &registry)
{
    registry.add(table1Scenario());
    registry.add(fig1Scenario());
    registry.add(fig6Scenario());
    registry.add(fig7Scenario());
    registry.add(fig8Scenario());
    registry.add(fig9Scenario());
    registry.add(fig10Scenario());
    registry.add(table3Scenario());
    registry.add(table4Scenario());
    registry.add(table5Scenario());
    registry.add(ablationL1hitScenario());
    registry.add(ablationStoresScenario());
    registry.add(schemeCompareScenario());
}

} // namespace sb
