/**
 * @file
 * Order statistics and the named-metric set the driver prints.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

/** Linear-interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** Named metrics with units, in insertion order. */
class MetricSet
{
  public:
    /** A measured value (printed with all its digits). */
    void add(const std::string &name, double value, const std::string &unit);
    /** A deterministic count (printed as an exact integer). */
    void count(const std::string &name, std::uint64_t value,
               const std::string &unit = "count");

    /** "name value unit" lines. */
    void print(std::FILE *out) const;
    /** {"name": {"value": v, "unit": u}, ...} */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        std::string value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
