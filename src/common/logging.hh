/**
 * @file
 * gem5-style logging primitives: panic(), fatal(), warn().
 *
 * panic() is for simulator bugs (conditions that must never happen
 * regardless of user input) and aborts. fatal() is for user errors
 * (bad configuration, invalid arguments) and exits cleanly with an
 * error code. warn() never stops the simulation.
 */

#ifndef SB_COMMON_LOGGING_HH
#define SB_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace sb
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

namespace detail
{

/** Concatenate a parameter pack into a string via an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace sb

/** Abort: an internal invariant was violated (simulator bug). */
#define sb_panic(...) \
    ::sb::panicImpl(__FILE__, __LINE__, ::sb::detail::concat(__VA_ARGS__))

/** Exit(1): the user supplied an impossible configuration. */
#define sb_fatal(...) \
    ::sb::fatalImpl(__FILE__, __LINE__, ::sb::detail::concat(__VA_ARGS__))

/** Non-fatal warning to stderr. */
#define sb_warn(...) \
    ::sb::warnImpl(::sb::detail::concat(__VA_ARGS__))

/** Checked invariant: panics with the condition text when violated. */
#define sb_assert(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::sb::panicImpl(__FILE__, __LINE__,                           \
                ::sb::detail::concat("assertion failed: " #cond " ",      \
                                     ##__VA_ARGS__));                     \
        }                                                                 \
    } while (0)

#endif // SB_COMMON_LOGGING_HH
