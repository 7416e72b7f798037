#include "metrics.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"

namespace perfbench
{

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    entries.push_back({name, buf, unit});
}

void
MetricSet::count(const std::string &name, std::uint64_t value,
                 const std::string &unit)
{
    entries.push_back({name, std::to_string(value), unit});
}

void
MetricSet::print(std::FILE *out) const
{
    for (const Entry &e : entries)
        std::fprintf(out, "  %-40s %22s %s\n", e.name.c_str(),
                     e.value.c_str(), e.unit.c_str());
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (i)
            out += ", ";
        out += "\"" + sb::jsonEscape(e.name) + "\": {\"value\": " + e.value
               + ", \"unit\": \"" + sb::jsonEscape(e.unit) + "\"}";
    }
    return out + "}";
}

} // namespace perfbench
