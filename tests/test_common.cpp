/**
 * @file
 * Unit tests for src/common: RNG, statistics, configurations, table
 * rendering, the word table's sizing, and how names and numbers are
 * read (the unsigned parser, the roster lookup, the workload-name
 * grammar).
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/config.hh"
#include "common/number.hh"
#include "common/roster.hh"
#include "common/types.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/word_table.hh"
#include "common/workload_name.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "trace/gadgets.hh"

namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    sb::Rng a(42);
    sb::Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sb::Rng a(1);
    sb::Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInBounds)
{
    sb::Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    sb::Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    sb::Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, UniformInUnitInterval)
{
    sb::Rng rng(13);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    sb::Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    sb::Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Stats, CounterBasics)
{
    sb::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    sb::Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(35);
    h.sample(1000); // Overflow -> last bucket.
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 35 + 1000) / 5.0);
}

TEST(Stats, HistogramQuantiles)
{
    // Unit-width buckets make quantiles exact: samples 1..100 pin the
    // tail-latency extraction the multi-tenant report relies on.
    sb::Histogram h(128, 1);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.quantile(0.50), 50u);
    EXPECT_EQ(h.quantile(0.95), 95u);
    EXPECT_EQ(h.quantile(0.99), 99u);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 100u);

    // Wider buckets report the bucket's upper edge (an upper bound).
    sb::Histogram w(16, 10);
    for (std::uint64_t v = 1; v <= 100; ++v)
        w.sample(v);
    EXPECT_EQ(w.quantile(0.50), 59u);

    // The overflow bucket has no upper edge: it reports the largest
    // sample seen instead.
    sb::Histogram o(4, 10);
    o.sample(5);
    o.sample(500);
    EXPECT_EQ(o.quantile(1.0), 500u);

    sb::Histogram empty(4, 10);
    EXPECT_EQ(empty.quantile(0.5), 0u);
}

TEST(Stats, GroupRegistersAndRenders)
{
    sb::StatGroup g("core");
    ++g.counter("commits");
    g.counter("commits") += 2;
    EXPECT_EQ(g.value("commits"), 3u);
    EXPECT_EQ(g.value("missing"), 0u);
    const std::string out = g.render();
    EXPECT_NE(out.find("core.commits 3"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.value("commits"), 0u);
}

TEST(Config, PresetWidthsMatchTable1)
{
    const auto presets = sb::CoreConfig::boomPresets();
    ASSERT_EQ(presets.size(), 4u);
    EXPECT_EQ(presets[0].coreWidth, 1u);
    EXPECT_EQ(presets[1].coreWidth, 2u);
    EXPECT_EQ(presets[2].coreWidth, 3u);
    EXPECT_EQ(presets[3].coreWidth, 4u);
    EXPECT_EQ(presets[0].robEntries, 32u);
    EXPECT_EQ(presets[1].robEntries, 64u);
    EXPECT_EQ(presets[2].robEntries, 96u);
    EXPECT_EQ(presets[3].robEntries, 128u);
    EXPECT_EQ(presets[3].memPorts, 2u);
}

TEST(Config, PresetsAreInternallyConsistent)
{
    for (const auto &cfg : sb::CoreConfig::boomPresets()) {
        EXPECT_GT(cfg.numPhysRegs, sb::numArchRegs) << cfg.name;
        EXPECT_GE(cfg.fetchWidth, cfg.coreWidth) << cfg.name;
        EXPECT_GE(cfg.robEntries,
                  cfg.ldqEntries) << cfg.name;
        EXPECT_GE(cfg.iqEntries, 2 * cfg.coreWidth) << cfg.name;
    }
}

TEST(Config, Gem5ConfigsDifferAsDescribed)
{
    const auto stt = sb::CoreConfig::gem5Stt();
    const auto nda = sb::CoreConfig::gem5Nda();
    // Sec. 9.5: the original STT evaluation used a single-cycle L1.
    EXPECT_EQ(stt.l1d.latency, 1u);
    EXPECT_GT(nda.l1d.latency, stt.l1d.latency);
    EXPECT_GT(stt.robEntries, nda.robEntries);
}

TEST(Config, SchemeNamesMatchPaperLabels)
{
    EXPECT_STREQ(sb::schemeName(sb::Scheme::SttRename), "STT-Rename");
    EXPECT_STREQ(sb::schemeName(sb::Scheme::SttIssue), "STT-Issue");
    EXPECT_STREQ(sb::schemeName(sb::Scheme::Nda), "NDA");
    EXPECT_EQ(sb::paperSchemes().size(), 3u);
}

TEST(Number, ParseUnsignedAcceptsOneSpelling)
{
    constexpr std::uint64_t u64max =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 99;
    ASSERT_TRUE(sb::parseUnsigned("0", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(sb::parseUnsigned("7", v));
    EXPECT_EQ(v, 7u);
    ASSERT_TRUE(sb::parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, u64max);
    ASSERT_TRUE(sb::parseUnsigned("256", v, 256));
    EXPECT_EQ(v, 256u);
    ASSERT_TRUE(sb::parseUnsigned("0xC0FFEE", v, u64max,
                                  sb::Radix::DecimalOrHex));
    EXPECT_EQ(v, 0xC0FFEEu);
    ASSERT_TRUE(sb::parseUnsigned("12648430", v, u64max,
                                  sb::Radix::DecimalOrHex));
    EXPECT_EQ(v, 0xC0FFEEu);
    ASSERT_TRUE(sb::parseUnsigned("0xffffffffffffffff", v, u64max,
                                  sb::Radix::DecimalOrHex));
    EXPECT_EQ(v, u64max);
}

TEST(Number, ParseUnsignedRejectsEveryOtherSpelling)
{
    constexpr std::uint64_t u64max =
        std::numeric_limits<std::uint64_t>::max();
    for (const sb::Radix radix :
         {sb::Radix::Decimal, sb::Radix::DecimalOrHex}) {
        for (const char *bad :
             {"", "-1", "+0", " 2", "2 ", "010", "00", "0x", "1e3",
              "18446744073709551616", "99999999999999999999",
              "0x10000000000000000", "0xg"}) {
            std::uint64_t v = 42;
            EXPECT_FALSE(sb::parseUnsigned(bad, v, u64max, radix))
                << "'" << bad << "'";
            EXPECT_EQ(v, 42u) << "'" << bad << "'";
        }
    }
    std::uint64_t v = 42;
    // Hex only where the caller opts in.
    EXPECT_FALSE(sb::parseUnsigned("0xC0FFEE", v));
    // Nothing above the caller's bound, in either spelling.
    EXPECT_FALSE(sb::parseUnsigned("257", v, 256));
    EXPECT_FALSE(sb::parseUnsigned("0x101", v, 256,
                                   sb::Radix::DecimalOrHex));
    EXPECT_FALSE(sb::parseUnsigned("1", v, 0));
    EXPECT_EQ(v, 42u);
}

/** Every name of @p roster reads back as its item; an unknown name
 *  leaves the output as it was. */
template <class Roster, class NameOf>
void
expectRoundTrips(const Roster &roster, NameOf nameOf)
{
    ASSERT_FALSE(roster.empty());
    for (const auto &item : roster) {
        auto back = roster.back();
        if (&item == &roster.back())
            back = roster.front();
        const std::string name = std::invoke(nameOf, item);
        ASSERT_TRUE(sb::fromName(roster, nameOf, name, back)) << name;
        EXPECT_EQ(std::invoke(nameOf, back), name);
        EXPECT_NE(sb::vocabulary(roster, nameOf).find(name),
                  std::string::npos);
    }
    auto out = roster.front();
    for (const char *unknown : {"", "nope", "all"})
        EXPECT_FALSE(sb::fromName(roster, nameOf, unknown, out)) << unknown;
    EXPECT_EQ(std::invoke(nameOf, out), std::invoke(nameOf, roster.front()));
}

TEST(Roster, FromNameRoundTripsEveryRoster)
{
    expectRoundTrips(sb::allSchemes(), sb::schemeName);
    expectRoundTrips(sb::allMitigations(), sb::mitigationName);
    expectRoundTrips(sb::allOpMixProfiles(), sb::opMixProfileName);
    expectRoundTrips(sb::allGadgets(), sb::gadgetName);
    expectRoundTrips(sb::CoreConfig::boomPresets(), &sb::CoreConfig::name);
    // Names are exact: no case folding, no prefix match.
    sb::Scheme scheme = sb::Scheme::Nda;
    EXPECT_FALSE(sb::fromName(sb::allSchemes(), sb::schemeName,
                              "stt-rename", scheme));
    EXPECT_FALSE(sb::fromName(sb::allSchemes(), sb::schemeName, "STT",
                              scheme));
    EXPECT_EQ(scheme, sb::Scheme::Nda);
    EXPECT_EQ(sb::vocabulary(sb::CoreConfig::boomPresets(),
                             &sb::CoreConfig::name),
              "small|medium|large|mega");
}

TEST(WorkloadName, ParsesExactlyWhatItWrites)
{
    const sb::WorkloadGrammar<2> grammar{
        "demo", true, {{{"a", 1, 9}, {"b"}}}};
    const std::string name = grammar.write("head", {3, 12});
    EXPECT_EQ(name, "demo:head:a=3:b=12");
    EXPECT_TRUE(grammar.matches(name));
    EXPECT_FALSE(grammar.matches("demolition:head:a=3:b=12"));
    std::string_view head;
    sb::WorkloadGrammar<2>::Values values{};
    ASSERT_TRUE(grammar.parse(name, head, values));
    EXPECT_EQ(head, "head");
    EXPECT_EQ(values[0], 3u);
    EXPECT_EQ(values[1], 12u);
    for (const char *bad :
         {"demo:head:a=3", "demo:head:b=12:a=3", "demo:head:a=0:b=12",
          "demo:head:a=10:b=12", "demo:head:a=3:b=12:", "demo:a=3:b=12",
          "demo:head:a=3:b=12:c=1", "demo:head:a=03:b=12",
          "demo:head:a=3::b=12", "demo:head:a=3:b=", "demo:head:A=3:b=12",
          "demo", "demo:"}) {
        EXPECT_FALSE(grammar.parse(bad, head, values)) << bad;
    }
    EXPECT_EQ(values[0], 3u);

    const sb::WorkloadGrammar<1> headless{"x", false, {{{"n"}}}};
    EXPECT_EQ(headless.write({}, {0}), "x:n=0");
    sb::WorkloadGrammar<1>::Values n{};
    EXPECT_TRUE(headless.parse("x:n=0", head, n));
    EXPECT_TRUE(head.empty());
    EXPECT_FALSE(headless.parse("x:head:n=0", head, n));
}

TEST(Table, RendersAlignedCells)
{
    sb::TextTable t;
    t.header({"a", "bb"});
    t.row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a"), std::string::npos);
    EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(sb::TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(sb::TextTable::pct(0.5, 1), "50.0%");
}

TEST(WordTable, GrowthLeavesItAThirdToTwoThirdsFull)
{
    // An insert past the 70% bound doubles the table, so right after
    // every growth it is 35-70% full (a 4x step would leave 17.5%).
    sb::WordTable table;
    std::size_t capacity = 0;
    unsigned growths = 0;
    for (sb::Addr i = 0; i < 100'000; ++i) {
        table.put(8 * (i * 7919), i);
        const std::size_t now = table.slots().size();
        if (now != capacity) {
            if (capacity != 0) {
                ++growths;
                const double load = static_cast<double>(table.size())
                                    / static_cast<double>(now);
                EXPECT_GE(load, 0.35) << "after growing to " << now;
                EXPECT_LE(load, 0.70) << "after growing to " << now;
            }
            capacity = now;
        }
        ASSERT_LT(table.size() * 10, capacity * 7);
    }
    EXPECT_GE(growths, 10u);
}

TEST(WordTable, ReserveThenPutsNeverGrow)
{
    for (const std::size_t n : {1u, 44u, 45u, 89u, 90u, 5000u, 100'000u}) {
        sb::WordTable table;
        table.reserve(n);
        const std::size_t capacity = table.slots().size();
        for (std::size_t i = 0; i < n; ++i)
            table.put(8 * i, i);
        EXPECT_EQ(table.slots().size(), capacity) << n << " entries";
        EXPECT_EQ(table.size(), n);
    }
    // A reserve on a filled table counts what it already holds.
    sb::WordTable table;
    for (sb::Addr i = 0; i < 1000; ++i)
        table.put(8 * i, i);
    table.reserve(table.size() + 3000);
    const std::size_t capacity = table.slots().size();
    for (sb::Addr i = 1000; i < 4000; ++i)
        table.put(8 * i, i);
    EXPECT_EQ(table.slots().size(), capacity);
}

TEST(WordTable, EveryEntrySurvivesGrowth)
{
    sb::WordTable table;
    for (sb::Addr i = 0; i < 5000; ++i)
        EXPECT_TRUE(table.put(8 * i, i));
    for (sb::Addr i = 0; i < 5000; i += 2)
        EXPECT_FALSE(table.put(8 * i, i + 1)); // Overwrites.
    ASSERT_EQ(table.size(), 5000u);
    for (sb::Addr i = 0; i < 5000; ++i) {
        const sb::WordTable::Slot *s = table.find(8 * i);
        ASSERT_NE(s, nullptr) << i;
        EXPECT_EQ(s->value, i % 2 == 0 ? i + 1 : i);
    }
    EXPECT_EQ(table.find(8 * 5000), nullptr);
}

} // anonymous namespace
