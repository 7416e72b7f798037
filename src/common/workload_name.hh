/**
 * @file
 * The one grammar of generated workload names,
 * `<prefix>:[<head>:]key=value:...`, e.g.
 * `gadget:spectre-v1:secret=167:seed=42` or `mt:tenants=4:...:seed=7`.
 *
 * A cell kind declares its prefix, whether a head (a roster name such
 * as the gadget) follows it, and its fields in written order, each
 * with the range it accepts. parse() reads back only what write()
 * spells: the fields in order, each value as parseUnsigned() spells
 * it, nothing after the last. So a name that parses is the name its
 * values write, and RunSpec::specKey() sees one name per cell.
 */

#ifndef SB_COMMON_WORKLOAD_NAME_HH
#define SB_COMMON_WORKLOAD_NAME_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/number.hh"

namespace sb
{

/** One `key=value` field and the values it accepts. */
struct NameField
{
    const char *key;
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

/** The name grammar of one cell kind, with @p N fields. */
template <std::size_t N>
struct WorkloadGrammar
{
    static_assert(N > 0, "a workload name has at least one field");

    using Values = std::array<std::uint64_t, N>;

    std::string_view prefix; ///< Without its colon: "gadget".
    bool hasHead;
    std::array<NameField, N> fields;

    /** Does @p name carry this kind's `<prefix>:`? */
    bool
    matches(std::string_view name) const
    {
        return name.size() > prefix.size()
               && name.substr(0, prefix.size()) == prefix
               && name[prefix.size()] == ':';
    }

    /** The name of @p head (ignored without one) and @p values. */
    std::string
    write(std::string_view head, const Values &values) const
    {
        std::string name(prefix);
        if (hasHead) {
            name += ':';
            name += head;
        }
        for (std::size_t i = 0; i < N; ++i) {
            name += ':';
            name += fields[i].key;
            name += '=';
            name += std::to_string(values[i]);
        }
        return name;
    }

    /**
     * Read a name as write() spells it, with every value in its
     * field's range. Returns false, leaving @p head and @p values
     * untouched, on anything else. @p head views @p name.
     */
    bool
    parse(std::string_view name, std::string_view &head,
          Values &values) const
    {
        if (!matches(name))
            return false;
        std::string_view rest = name.substr(prefix.size() + 1);
        std::string_view parsedHead;
        if (hasHead) {
            const std::size_t colon = rest.find(':');
            if (colon == std::string_view::npos)
                return false;
            parsedHead = rest.substr(0, colon);
            rest.remove_prefix(colon + 1);
        }
        Values parsed{};
        for (std::size_t i = 0; i < N; ++i) {
            const std::string_view key = fields[i].key;
            if (rest.substr(0, key.size()) != key
                || rest.substr(key.size(), 1) != "=")
                return false;
            rest.remove_prefix(key.size() + 1);
            const std::size_t end =
                i + 1 < N ? rest.find(':') : rest.size();
            if (end == std::string_view::npos
                || !parseUnsigned(rest.substr(0, end), parsed[i],
                                  fields[i].max)
                || parsed[i] < fields[i].min)
                return false;
            rest.remove_prefix(i + 1 < N ? end + 1 : end);
        }
        head = parsedHead;
        values = parsed;
        return true;
    }
};

} // namespace sb

#endif // SB_COMMON_WORKLOAD_NAME_HH
