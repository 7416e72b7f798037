#include "harness/attack.hh"

#include <algorithm>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "secure/factory.hh"

namespace sb
{

namespace
{

/** FNV-1a 64 digest of the committed-load observation trace. */
std::uint64_t
hashObservations(const std::vector<LoadObservation> &trace)
{
    std::uint64_t hash = fnv1aBasis;
    auto mix = [&hash](std::uint64_t word) {
        hash = fnv1aWord(hash, word);
    };
    for (const LoadObservation &obs : trace) {
        mix(obs.pc);
        mix(obs.commitCycle);
        mix(obs.completeCycle);
        mix(obs.l1Hit ? 1 : 0);
    }
    return hash;
}

} // anonymous namespace

AttackResult
runGadgetAttack(const GadgetProgram &gadget,
                const CoreConfig &core_config,
                const SchemeConfig &scheme_config,
                std::unique_ptr<SecureScheme> scheme,
                std::uint8_t secret_byte,
                const TransformedProgram *mitigated)
{
    using gadget_layout::array2Base;
    using gadget_layout::probeStride;

    Core core(core_config, scheme_config, std::move(scheme),
              mitigated ? mitigated->program : gadget.program);
    core.enableObservationTrace();
    // The battery always judges contracts, whatever the build default
    // (the engine is a pure observer, so timing is unaffected).
    core.setContractShadowEnabled(true);

    // Commit-time receiver: record the commit cycle of each probe.
    // Under a mitigation committed PCs are mapped back to the PC of
    // the original instruction they stand for — mitigation thunks
    // are appended past firstProbePc and must not read as probes.
    std::vector<Cycle> commit_cycle(256, 0);
    bool rounds_done = false;
    const std::uint32_t first_probe_pc = gadget.firstProbePc;
    core.setCommitHook([&](const DynInst &inst, Cycle at) {
        std::int64_t opc = inst.pc;
        if (mitigated) {
            opc = mitigated->origin(inst.pc);
            if (opc < 0)
                return; // Inserted glue: invisible to the receiver.
        }
        if (opc >= first_probe_pc && inst.isLoad()) {
            const unsigned v =
                1 + static_cast<unsigned>(opc - first_probe_pc) / 4;
            if (v < 256)
                commit_cycle[v] = at;
        }
        if (static_cast<std::uint32_t>(opc) == gadget.barrierPc)
            rounds_done = true;
    });

    // Phase 1: run the victim rounds, pausing before the probe
    // commits so the residency oracle sees the post-attack state.
    // Single-commit granularity: the serialised barrier means whole
    // hops can pass inside one coarser run() chunk, letting probes
    // slip past the pause.
    while (!rounds_done && !core.halted() && core.now() < 10'000'000)
        core.run(1, 10'000'000);

    AttackResult res;
    int oracle_hits = 0;
    for (unsigned v = 1; v < 256; ++v) {
        if (core.memorySystem().cached(array2Base + Addr(v) * probeStride)) {
            res.oracleByte = static_cast<int>(v);
            ++oracle_hits;
        }
    }
    if (oracle_hits != 1)
        res.oracleByte = -1;

    // Phase 2: run the timing probe to completion.
    core.run(100'000'000, 10'000'000);

    std::vector<double> gaps;
    for (unsigned v = 2; v < 256; ++v) {
        if (commit_cycle[v] > 0 && commit_cycle[v - 1] > 0) {
            gaps.push_back(static_cast<double>(commit_cycle[v])
                           - static_cast<double>(commit_cycle[v - 1]));
        }
    }
    if (gaps.size() > 64) {
        std::vector<double> sorted = gaps;
        std::sort(sorted.begin(), sorted.end());
        const double median = sorted[sorted.size() / 2];
        double min_gap = sorted.front();
        res.medianGap = median;
        res.minGap = min_gap;
        // A hit sits a full memory latency below the (miss) median.
        if (min_gap < 0.5 * median) {
            for (unsigned v = 2; v < 256; ++v) {
                const double g =
                    static_cast<double>(commit_cycle[v])
                    - static_cast<double>(commit_cycle[v - 1]);
                if (g == min_gap) {
                    res.timingByte = static_cast<int>(v);
                    break;
                }
            }
        }
    }

    const ContractShadow &shadow = core.contractShadow();
    res.transmitViolations = shadow.transmitViolations();
    res.consumeViolations = shadow.consumeViolations();
    res.sandboxViolations = shadow.sandboxViolations();
    res.ctViolations = shadow.ctViolations();
    res.firstSandboxViolation = shadow.firstSandboxViolation();
    res.firstCtViolation = shadow.firstCtViolation();
    res.crossTenantViolations = shadow.crossTenantViolations();
    res.firstCrossTenantViolation = shadow.firstCrossTenantViolation();
    res.contextSwitches = core.contextSwitchCount();
    res.leaked = res.timingByte == secret_byte
                 || res.oracleByte == secret_byte;
    res.traceHash = hashObservations(core.observationTrace());
    res.traceLength = core.observationTrace().size();
    res.cycles = core.now();
    return res;
}

AttackResult
runGadget(GadgetKind kind, const CoreConfig &core_config,
          const SchemeConfig &scheme_config, std::uint8_t secret_byte,
          std::uint64_t seed)
{
    const GadgetProgram gadget =
        buildGadgetProgram(kind, secret_byte, seed);
    return runGadgetAttack(gadget, core_config, scheme_config,
                           makeScheme(scheme_config), secret_byte);
}

AttackResult
runSpectreV1(const CoreConfig &core_config,
             const SchemeConfig &scheme_config, std::uint8_t secret_byte,
             std::uint64_t seed)
{
    return runGadget(GadgetKind::SpectreV1, core_config, scheme_config,
                     secret_byte, seed);
}

} // namespace sb
