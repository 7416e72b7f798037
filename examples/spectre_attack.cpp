/**
 * @file
 * Spectre gadget-battery demonstration (the BOOM-attacks stand-in,
 * paper Sec. 7): leaks a multi-byte secret through the cache covert
 * channel on the unprotected baseline — via each gadget in the
 * battery — then shows STT-Rename, STT-Issue, and NDA blocking all of
 * them.
 *
 * Usage: spectre_attack [config] [secret-string] [gadget]
 *   gadget: spectre-v1 (default), spectre-v1-mask,
 *           spectre-v2-indirect, spectre-v4-ssb, or "all"
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/roster.hh"
#include "harness/verify.hh"

namespace
{

void
runBattery(sb::GadgetKind gadget, const sb::CoreConfig &cfg,
           const std::string &secret)
{
    using namespace sb;

    std::printf("--- %s ---\n", gadgetName(gadget));
    for (Scheme s : allSchemes()) {
        SchemeConfig scfg;
        scfg.scheme = s;
        std::string timing_out, oracle_out;
        std::uint64_t violations = 0;
        bool any_leak = false;
        for (std::size_t i = 0; i < secret.size(); ++i) {
            const auto byte = static_cast<std::uint8_t>(secret[i]);
            const AttackResult res =
                attackResult(ExperimentRunner::runOne(
                    gadgetSpec(gadget, cfg, scfg, byte, 1000 + i)));
            timing_out += res.timingByte > 0
                              ? static_cast<char>(res.timingByte)
                              : '?';
            oracle_out += res.oracleByte > 0
                              ? static_cast<char>(res.oracleByte)
                              : '?';
            violations += res.transmitViolations;
            any_leak |= res.leaked;
        }
        std::printf("%-11s timing probe: \"%s\"   residency oracle: "
                    "\"%s\"   -> %s (shadow transmit-violations: "
                    "%llu)\n",
                    schemeName(s), timing_out.c_str(),
                    oracle_out.c_str(),
                    any_leak ? "SECRET LEAKED" : "leak blocked",
                    static_cast<unsigned long long>(violations));
    }
    std::printf("\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace sb;

    const std::string config_name = argc > 1 ? argv[1] : "mega";
    const std::string secret = argc > 2 ? argv[2] : "SB!25";
    const std::string gadget_name = argc > 3 ? argv[3] : "spectre-v1";
    CoreConfig cfg;
    if (!fromName(CoreConfig::boomPresets(), &CoreConfig::name,
                  config_name, cfg))
        sb_fatal("unknown config: ", config_name);

    std::vector<GadgetKind> gadgets;
    if (gadget_name == "all") {
        gadgets = allGadgets();
    } else {
        GadgetKind kind;
        if (!fromName(allGadgets(), gadgetName, gadget_name, kind))
            sb_fatal("unknown gadget: ", gadget_name, " (try ",
                     vocabulary(allGadgets(), gadgetName), "|all)");
        gadgets.push_back(kind);
    }

    std::printf("Spectre battery on the %s BOOM configuration; secret "
                "= \"%s\"\n\n", cfg.name.c_str(), secret.c_str());
    for (GadgetKind gadget : gadgets)
        runBattery(gadget, cfg, secret);

    std::printf("Each gadget arms a different transient entry — a "
                "trained bounds check (v1), the same behind an\n"
                "ineffective index mask (v1-mask), a mistrained "
                "indirect-branch target (v2), or a bypassed\n"
                "sanitising store (v4/SSB) — into one shared "
                "transmitter: the secret byte is encoded into the\n"
                "set-state of a probe array and recovered from "
                "serialised commit-to-commit load gaps.\n");
    return 0;
}
