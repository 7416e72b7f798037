/**
 * @file
 * Name-to-value lookup over a roster: a list of items and how each is
 * named, e.g. allSchemes() and schemeName(), or the core presets and
 * their `name` member. One scan serves cache lines, workload names,
 * sbsim options and the examples' arguments; one builder spells a
 * roster's names for a diagnostic.
 */

#ifndef SB_COMMON_ROSTER_HH
#define SB_COMMON_ROSTER_HH

#include <functional>
#include <string>
#include <string_view>

namespace sb
{

/**
 * Find the item of @p roster whose name (@p nameOf: a function or a
 * pointer to a name member) is @p name. Returns false, leaving @p out
 * untouched, on a name no item has.
 */
template <class Roster, class NameOf, class T>
bool
fromName(const Roster &roster, NameOf nameOf, std::string_view name,
         T &out)
{
    for (const auto &item : roster) {
        if (name == std::invoke(nameOf, item)) {
            out = item;
            return true;
        }
    }
    return false;
}

/** "a|b|c": every name in @p roster, in roster order. */
template <class Roster, class NameOf>
std::string
vocabulary(const Roster &roster, NameOf nameOf)
{
    std::string vocab;
    for (const auto &item : roster) {
        if (!vocab.empty())
            vocab += '|';
        vocab += std::invoke(nameOf, item);
    }
    return vocab;
}

} // namespace sb

#endif // SB_COMMON_ROSTER_HH
