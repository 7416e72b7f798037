#include "common/stats.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace sb
{

Histogram::Histogram(unsigned num_buckets, unsigned bucket_width)
    : buckets(num_buckets, 0), width(bucket_width)
{
    sb_assert(num_buckets > 0 && bucket_width > 0,
              "histogram must have geometry");
}

void
Histogram::sample(std::uint64_t value)
{
    unsigned idx = value / width;
    if (idx >= buckets.size())
        idx = buckets.size() - 1;
    ++buckets[idx];
    ++samples;
    sum += value;
    maxSeen = std::max(maxSeen, value);
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (samples == 0)
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the quantile sample, 1-based: ceil(q * samples), with
    // q=0 mapping to the first sample.
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(samples) + 0.9999999999);
    if (rank == 0)
        rank = 1;
    if (rank > samples)
        rank = samples;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            if (i + 1 == buckets.size())
                return maxSeen; // Overflow bucket: unbounded above.
            return static_cast<std::uint64_t>(i) * width + (width - 1);
        }
    }
    return maxSeen;
}

double
Histogram::mean() const
{
    return samples == 0 ? 0.0
                        : static_cast<double>(sum)
                              / static_cast<double>(samples);
}

std::uint64_t
Histogram::bucketCount(unsigned idx) const
{
    sb_assert(idx < buckets.size(), "histogram bucket out of range");
    return buckets[idx];
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    samples = 0;
    sum = 0;
    maxSeen = 0;
}

Counter &
StatGroup::counter(const std::string &name)
{
    return ctrs[name];
}

std::uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = ctrs.find(name);
    return it == ctrs.end() ? 0 : it->second.value();
}

void
StatGroup::reset()
{
    for (auto &kv : ctrs)
        kv.second.reset();
}

std::string
StatGroup::render() const
{
    std::ostringstream oss;
    for (const auto &kv : ctrs)
        oss << groupName << '.' << kv.first << ' ' << kv.second.value()
            << '\n';
    return oss.str();
}

} // namespace sb
