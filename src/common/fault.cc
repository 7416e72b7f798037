#include "common/fault.hh"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace sb
{

namespace
{

struct Directive
{
    std::string kind;      ///< "crash", "hang", "torn-write", "poison".
    unsigned long n = 0;   ///< Trigger ordinal (counted kinds).
    std::string substr;    ///< Workload substring (poison).
    unsigned long count = 0; ///< Points of this kind reached so far.
};

struct FaultState
{
    bool armed = false;
    std::vector<Directive> directives;
};

std::mutex g_mutex;
FaultState g_state;
bool g_parsed = false;

void
parseLocked()
{
    g_parsed = true;
    g_state = FaultState{};
    const char *env = std::getenv("SB_FAULT");
    if (!env || !*env)
        return;
    // kind:value[,kind:value...]; malformed entries are ignored (the
    // injector must never turn a typo into a production fault).
    const std::string spec(env);
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0
            || colon + 1 >= item.size())
            continue;
        Directive d;
        d.kind = item.substr(0, colon);
        const std::string value = item.substr(colon + 1);
        if (d.kind == "poison") {
            d.substr = value;
        } else {
            char *end = nullptr;
            d.n = std::strtoul(value.c_str(), &end, 10);
            if (!end || *end != '\0' || d.n == 0)
                continue;
        }
        g_state.directives.push_back(std::move(d));
        g_state.armed = true;
    }
}

} // anonymous namespace

bool
faultPoint(const char *kind)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_parsed)
        parseLocked();
    if (!g_state.armed)
        return false;
    for (Directive &d : g_state.directives) {
        if (d.kind != kind || d.substr.size())
            continue;
        return ++d.count == d.n;
    }
    return false;
}

bool
faultPoisoned(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_parsed)
        parseLocked();
    if (!g_state.armed)
        return false;
    for (const Directive &d : g_state.directives) {
        if (d.kind == "poison" && !d.substr.empty()
            && workload.find(d.substr) != std::string::npos)
            return true;
    }
    return false;
}

bool
faultsArmed()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_parsed)
        parseLocked();
    return g_state.armed;
}

void
faultReset()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_parsed = false;
}

} // namespace sb
