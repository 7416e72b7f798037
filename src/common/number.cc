#include "common/number.hh"

#include <charconv>

namespace sb
{

bool
parseUnsigned(std::string_view text, std::uint64_t &out,
              std::uint64_t max, Radix radix)
{
    // from_chars takes no sign and no space, and reports overflow; the
    // prefix and the leading zero are this spelling's own rules.
    int base = 10;
    if (radix == Radix::DecimalOrHex && text.substr(0, 2) == "0x") {
        base = 16;
        text.remove_prefix(2);
    } else if (text.size() > 1 && text[0] == '0') {
        return false;
    }
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value, base);
    if (error != std::errc() || stop != end || value > max)
        return false;
    out = value;
    return true;
}

} // namespace sb
