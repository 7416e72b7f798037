#include "harness/reporting.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/roster.hh"

namespace sb
{

SuiteAggregate
aggregate(const std::vector<RunOutcome> &outcomes)
{
    SuiteAggregate agg;
    if (outcomes.empty())
        return agg;
    agg.coreName = outcomes.front().coreName;
    agg.scheme = outcomes.front().scheme;

    double sum_cycles = 0.0;
    double sum_insts = 0.0;
    for (const auto &o : outcomes) {
        sb_assert(o.coreName == agg.coreName && o.scheme == agg.scheme,
                  "aggregate over mixed outcomes");
        sum_cycles += static_cast<double>(o.cycles);
        sum_insts += static_cast<double>(o.instructions);
        agg.perBench[o.workload] = o.ipc;
    }
    // Paper Sec. 8.1: arithmetic mean of cycles and of instructions,
    // separately; the suite IPC is their ratio.
    agg.meanIpc = sum_cycles == 0.0 ? 0.0 : sum_insts / sum_cycles;
    return agg;
}

std::vector<RunOutcome>
filter(const std::vector<RunOutcome> &all, const std::string &core_name,
       Scheme scheme)
{
    std::vector<RunOutcome> out;
    for (const auto &o : all) {
        if (o.coreName == core_name && o.scheme == scheme)
            out.push_back(o);
    }
    return out;
}

Json
toJson(const RunOutcome &outcome)
{
    Json stats = Json::object();
    for (const auto &kv : outcome.stats)
        stats.set(kv.first, Json::num(kv.second));

    Json j = Json::object();
    j.set("workload", Json::str(outcome.workload));
    j.set("core", Json::str(outcome.coreName));
    j.set("scheme", Json::str(schemeName(outcome.scheme)));
    j.set("cycles", Json::num(outcome.cycles));
    j.set("instructions", Json::num(outcome.instructions));
    j.set("ipc", Json::num(outcome.ipc));
    j.set("transmit_violations", Json::num(outcome.transmitViolations));
    j.set("consume_violations", Json::num(outcome.consumeViolations));
    j.set("stats", std::move(stats));
    return j;
}

Json
toJson(const SuiteAggregate &aggregate)
{
    Json per_bench = Json::object();
    for (const auto &kv : aggregate.perBench)
        per_bench.set(kv.first, Json::num(kv.second));

    Json j = Json::object();
    j.set("core", Json::str(aggregate.coreName));
    j.set("scheme", Json::str(schemeName(aggregate.scheme)));
    j.set("mean_ipc", Json::num(aggregate.meanIpc));
    j.set("per_bench", std::move(per_bench));
    return j;
}

bool
outcomeFromJson(const Json &json, RunOutcome &out)
{
    if (!json.isObject())
        return false;
    const auto hasKind = [&json](const char *key, Json::Kind kind) {
        return json.has(key) && json.at(key).kind() == kind;
    };
    for (const char *key : {"workload", "core", "scheme"}) {
        if (!hasKind(key, Json::Kind::String))
            return false;
    }
    for (const char *key : {"cycles", "instructions",
                            "transmit_violations",
                            "consume_violations"}) {
        if (!hasKind(key, Json::Kind::Uint))
            return false;
    }
    if (!hasKind("stats", Json::Kind::Object))
        return false;
    for (const auto &kv : json.at("stats").fields()) {
        if (kv.second.kind() != Json::Kind::Uint)
            return false;
    }
    RunOutcome o;
    o.workload = json.at("workload").asString();
    o.coreName = json.at("core").asString();
    // An unknown scheme name makes a stale cache line a miss.
    if (!fromName(allSchemes(), schemeName, json.at("scheme").asString(),
                  o.scheme))
        return false;
    o.cycles = json.at("cycles").asUint();
    o.instructions = json.at("instructions").asUint();
    o.ipc = o.cycles == 0
                ? 0.0
                : static_cast<double>(o.instructions)
                      / static_cast<double>(o.cycles);
    o.transmitViolations = json.at("transmit_violations").asUint();
    o.consumeViolations = json.at("consume_violations").asUint();
    for (const auto &kv : json.at("stats").fields())
        o.stats[kv.first] = kv.second.asUint();
    out = std::move(o);
    return true;
}

LinearFit
fitLine(const std::vector<double> &xs, const std::vector<double> &ys)
{
    sb_assert(xs.size() == ys.size() && xs.size() >= 2,
              "fitLine needs >= 2 points");
    const double n = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    const double denom = n * sxx - sx * sx;
    sb_assert(std::abs(denom) > 1e-12, "degenerate fit");
    LinearFit fit;
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;
    return fit;
}

std::string
bar(double normalized, unsigned width)
{
    const double clamped = std::clamp(normalized, 0.0, 1.25);
    const unsigned filled =
        static_cast<unsigned>(std::lround(clamped * width));
    std::string s;
    for (unsigned i = 0; i < filled; ++i)
        s += '#';
    return s;
}

} // namespace sb
