/**
 * @file
 * Lightweight statistics package: named scalar counters, histograms,
 * and derived formulas, registered in a StatGroup that can render
 * itself for reports.
 *
 * Deliberately minimal compared to gem5's stats package, but follows
 * the same model: stats are owned by the component that increments
 * them and harvested by name at the end of simulation.
 */

#ifndef SB_COMMON_STATS_HH
#define SB_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sb
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Fixed-bucket histogram for latency / occupancy distributions. */
class Histogram
{
  public:
    /** @param num_buckets bucket count; @param bucket_width per-bucket span */
    explicit Histogram(unsigned num_buckets = 16, unsigned bucket_width = 1);

    /** Record one sample; values past the top land in the overflow bucket. */
    void sample(std::uint64_t value);

    std::uint64_t count() const { return samples; }
    std::uint64_t total() const { return sum; }
    double mean() const;
    std::uint64_t bucketCount(unsigned idx) const;
    unsigned numBuckets() const { return buckets.size(); }

    /**
     * Value at quantile @p q in [0, 1] (q=0.5 is the median): the
     * upper edge of the bucket holding the ceil(q * count)-th sample,
     * i.e. an upper bound at bucket_width resolution. Returns 0 with
     * no samples; the overflow bucket reports the largest sample seen
     * (the histogram has no upper edge there).
     */
    std::uint64_t quantile(double q) const;

    /** Drop all samples (bucket geometry is kept). */
    void reset();

  private:
    std::vector<std::uint64_t> buckets;
    unsigned width;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t maxSeen = 0;
};

/**
 * A flat registry of counters owned by one component.
 * Components expose `StatGroup &stats()` so harnesses can harvest
 * every counter by dotted name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : groupName(std::move(name)) {}

    /**
     * Register (or fetch) a counter under this group.
     *
     * The returned reference stays valid for the life of the group
     * (node-based map), so components resolve their counters once at
     * construction into a struct of `Counter &` handles instead of
     * paying a string-keyed lookup on every increment.
     */
    Counter &counter(const std::string &name);

    /** Value of a counter, 0 if never registered. */
    std::uint64_t value(const std::string &name) const;

    const std::string &name() const { return groupName; }
    const std::map<std::string, Counter> &counters() const { return ctrs; }

    /** Zero every stat in the group. */
    void reset();

    /** Render "group.name value" lines. */
    std::string render() const;

  private:
    std::string groupName;
    std::map<std::string, Counter> ctrs;
};

} // namespace sb

#endif // SB_COMMON_STATS_HH
