/**
 * @file
 * The one spelling of an unsigned number the simulator reads, in
 * workload names, sbsim's options, SB_JOBS and SB_FAULT: decimal
 * digits only, with no sign, no space, no leading zero ("0" aside) and
 * nothing after them. A caller may opt in to `0x` hex as well (sbsim's
 * --seed). strtoull reads "-1" as 2^64 - 1, skips spaces, takes "+0"
 * and, in base 0, reads "010" as 8; this parser rejects all four.
 */

#ifndef SB_COMMON_NUMBER_HH
#define SB_COMMON_NUMBER_HH

#include <cstdint>
#include <limits>
#include <string_view>

namespace sb
{

/** The spellings parseUnsigned() accepts. */
enum class Radix
{
    Decimal,      ///< Decimal digits only.
    DecimalOrHex, ///< Decimal, or `0x` and hex digits.
};

/**
 * Read all of @p text as an unsigned number no greater than @p max.
 * Returns false, leaving @p out untouched, on any other text.
 */
bool parseUnsigned(std::string_view text, std::uint64_t &out,
                   std::uint64_t max =
                       std::numeric_limits<std::uint64_t>::max(),
                   Radix radix = Radix::Decimal);

} // namespace sb

#endif // SB_COMMON_NUMBER_HH
