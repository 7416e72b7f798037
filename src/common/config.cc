#include "common/config.hh"

#include <sstream>

#include "common/logging.hh"

namespace sb
{

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:    return "Baseline";
      case Scheme::SttRename:   return "STT-Rename";
      case Scheme::SttIssue:    return "STT-Issue";
      case Scheme::Nda:         return "NDA";
      case Scheme::NdaStrict:   return "NDA-Strict";
      case Scheme::DelayOnMiss: return "DoM";
      case Scheme::DelayAll:    return "DelayAll";
    }
    sb_panic("unknown scheme");
}

std::vector<Scheme>
paperSchemes()
{
    return {Scheme::SttRename, Scheme::SttIssue, Scheme::Nda};
}

std::vector<Scheme>
allSchemes()
{
    return {Scheme::Baseline,  Scheme::SttRename,   Scheme::SttIssue,
            Scheme::Nda,       Scheme::NdaStrict,   Scheme::DelayOnMiss,
            Scheme::DelayAll};
}

std::vector<SchemeConfig>
allSchemeConfigs()
{
    std::vector<SchemeConfig> configs;
    for (Scheme s : allSchemes()) {
        SchemeConfig c;
        c.scheme = s;
        configs.push_back(c);
    }
    return configs;
}

std::string
CacheConfig::canonical() const
{
    std::ostringstream oss;
    oss << "size=" << sizeBytes << ";assoc=" << assoc
        << ";line=" << lineBytes << ";lat=" << latency
        << ";mshrs=" << mshrs << ";pf=" << (stridePrefetcher ? 1 : 0)
        << ";pfdeg=" << prefetchDegree;
    return oss.str();
}

std::string
CoreConfig::canonical() const
{
    std::ostringstream oss;
    oss << "name=" << name << ";fw=" << fetchWidth
        << ";fbuf=" << fetchBufferEntries << ";cw=" << coreWidth
        << ";iw=" << issueWidth << ";memp=" << memPorts
        << ";fpp=" << fpPorts << ";rob=" << robEntries
        << ";iq=" << iqEntries << ";ldq=" << ldqEntries
        << ";stq=" << stqEntries << ";pregs=" << numPhysRegs
        << ";br=" << maxBranches << ";alu=" << aluLatency
        << ";mul=" << mulLatency << ";div=" << divLatency
        << ";fp=" << fpLatency << ";fpdiv=" << fpDivLatency
        << ";brlat=" << branchResolveLatency
        << ";l1d{" << l1d.canonical() << "};l2{" << l2.canonical()
        << "};mem=" << memLatency
        // A constant: speculative L1-hit scheduling is the scheme's
        // call (SecureScheme::allowsSpeculativeScheduling). Writing it
        // keeps every existing spec key, and the cached cells those
        // keys address, valid.
        << ";specsched=1"
        << ";festages=" << frontendStages;
    // The tenant knobs only reach the key when they differ from the
    // single-tenant defaults, so keys from before they existed hold.
    if (flushPredictorsOnSwitch)
        oss << ";swflush=1";
    if (contextSwitchPenalty != 48)
        oss << ";swpen=" << contextSwitchPenalty;
    return oss.str();
}

std::string
SchemeConfig::canonical() const
{
    std::ostringstream oss;
    oss << "scheme=" << schemeName(scheme)
        << ";2taint=" << (twoTaintStores ? 1 : 0)
        << ";ndaspec=" << (ndaKeepSpeculativeScheduling ? 1 : 0);
    return oss.str();
}

CoreConfig
CoreConfig::small()
{
    CoreConfig c;
    c.name = "small";
    c.fetchWidth = 4;
    c.coreWidth = 1;
    c.issueWidth = 1;
    c.memPorts = 1;
    c.fpPorts = 1;
    c.robEntries = 32;
    c.iqEntries = 10;
    c.ldqEntries = 8;
    c.stqEntries = 8;
    c.numPhysRegs = 52;
    c.maxBranches = 8;
    c.l1d.mshrs = 2;
    return c;
}

CoreConfig
CoreConfig::medium()
{
    CoreConfig c;
    c.name = "medium";
    c.fetchWidth = 4;
    c.coreWidth = 2;
    c.issueWidth = 2;
    c.memPorts = 1;
    c.fpPorts = 1;
    c.robEntries = 64;
    c.iqEntries = 20;
    c.ldqEntries = 16;
    c.stqEntries = 16;
    c.numPhysRegs = 80;
    c.maxBranches = 12;
    c.l1d.mshrs = 4;
    return c;
}

CoreConfig
CoreConfig::large()
{
    CoreConfig c;
    c.name = "large";
    c.fetchWidth = 8;
    c.coreWidth = 3;
    c.issueWidth = 3;
    c.memPorts = 1;
    c.fpPorts = 2;
    c.robEntries = 96;
    c.iqEntries = 30;
    c.ldqEntries = 24;
    c.stqEntries = 24;
    c.numPhysRegs = 100;
    c.maxBranches = 16;
    c.l1d.mshrs = 6;
    return c;
}

CoreConfig
CoreConfig::mega()
{
    CoreConfig c;
    c.name = "mega";
    c.fetchWidth = 8;
    c.coreWidth = 4;
    c.issueWidth = 4;
    c.memPorts = 2;
    c.robEntries = 128;
    c.iqEntries = 40;
    c.ldqEntries = 32;
    c.stqEntries = 32;
    c.numPhysRegs = 128;
    c.maxBranches = 20;
    c.l1d.mshrs = 8;
    return c;
}

CoreConfig
CoreConfig::megaFlush()
{
    CoreConfig c = mega();
    c.name = "mega-flush";
    c.flushPredictorsOnSwitch = true;
    return c;
}

CoreConfig
CoreConfig::gem5Stt()
{
    // The original STT evaluation: 8-wide window-rich core with a
    // single-cycle L1 (Sec. 9.5 calls out the optimistic L1 latency).
    CoreConfig c = mega();
    c.name = "gem5-stt";
    c.coreWidth = 4;
    c.issueWidth = 6;
    c.memPorts = 2;
    c.robEntries = 224;
    c.iqEntries = 64;
    c.ldqEntries = 72;
    c.stqEntries = 56;
    c.numPhysRegs = 256;
    c.maxBranches = 32;
    c.l1d.latency = 1;
    c.memLatency = 70;
    return c;
}

CoreConfig
CoreConfig::gem5Nda()
{
    // The original NDA evaluation: Haswell-like 4-wide core with a
    // smaller window and a longer memory latency.
    CoreConfig c = mega();
    c.name = "gem5-nda";
    c.coreWidth = 4;
    c.issueWidth = 4;
    c.memPorts = 1;
    c.robEntries = 192;
    c.iqEntries = 60;
    c.ldqEntries = 32;
    c.stqEntries = 32;
    c.numPhysRegs = 168;
    c.maxBranches = 24;
    c.l1d.latency = 4;
    c.memLatency = 100;
    return c;
}

std::vector<CoreConfig>
CoreConfig::boomPresets()
{
    return {small(), medium(), large(), mega()};
}

} // namespace sb
