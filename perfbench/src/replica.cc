#include "replica.hh"

#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "harness/conformance.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"
#include "isa/generator.hh"
#include "isa/transform.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"
#include "trace/server_mix.hh"
#include "trace/spec_suite.hh"
#include "workloads.hh"

namespace perfbench
{

using sb::Core;
using sb::RunSpec;

namespace
{

thread_local Tracer *threadTracer = nullptr;

/** Add @p group's counters into @p into (slab_high_water: maximum). */
void
accumulate(std::map<std::string, std::uint64_t> &into,
           const sb::StatGroup &group)
{
    for (const auto &[name, counter] : group.counters()) {
        std::uint64_t &slot = into[name];
        if (name == "slab_high_water")
            slot = std::max(slot, counter.value());
        else
            slot += counter.value();
    }
}

std::unique_ptr<Core>
constructCore(const RunSpec &spec, const sb::Program &program)
{
    Span span("core.construct");
    return std::make_unique<Core>(spec.core, spec.scheme,
                                  sb::makeScheme(spec.scheme), program);
}

/** ExperimentRunner::runOne's windowed path. */
ReplicaResult
replayWindow(const RunSpec &spec)
{
    std::optional<sb::Workload> workload;
    {
        Span span("trace.build");
        workload.emplace(sb::SpecSuite::make(spec.workload));
    }
    std::optional<sb::TransformedProgram> transformed;
    {
        // The identity transform every unmitigated cell pays is kept
        // apart, so isa.transform times the real passes.
        Span span(spec.mitigation.enabled() ? "isa.transform"
                                            : "isa.transform.none");
        transformed.emplace(
            sb::applyMitigation(spec.mitigation.kind, workload->program));
    }
    const std::unique_ptr<Core> core =
        constructCore(spec, transformed->program);
    std::uint64_t useful = 0;
    if (spec.mitigation.enabled()) {
        core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
            if (transformed->origin(inst.pc) >= 0)
                ++useful;
        });
    }

    ReplicaResult res;
    {
        Span span("core.warmup");
        core->run(spec.warmupInsts, spec.maxCycles);
    }
    accumulate(res.counters, core->stats());
    core->stats().reset();
    const sb::Cycle cycles0 = core->now();
    const std::uint64_t insts0 = core->committedInstructions();
    {
        Span span("core.measure");
        core->run(spec.measureInsts, spec.maxCycles);
    }
    res.cycles = core->now() - cycles0;
    res.instructions = core->committedInstructions() - insts0;
    {
        Span span("harness.harvest");
        std::map<std::string, std::uint64_t> stats;
        for (const auto &kv : core->stats().counters())
            stats[kv.first] = kv.second.value();
    }
    accumulate(res.counters, core->stats());
    res.cellCycles = core->now();
    res.cellInstructions = core->committedInstructions();
    return res;
}

/** runFuzzCell + runConformanceCell. */
ReplicaResult
replayFuzz(const RunSpec &spec)
{
    sb::GeneratorParams gen;
    if (!sb::parseFuzzWorkload(spec.workload, gen.profile, gen.seed,
                               gen.outerIterations))
        sb_fatal("malformed fuzz workload '", spec.workload, "'");
    std::optional<sb::Program> program;
    {
        Span span("isa.generate");
        program.emplace(sb::generateProgram(gen));
    }
    std::optional<sb::TransformedProgram> mitigated;
    if (spec.mitigation.enabled()) {
        Span span("isa.transform");
        mitigated.emplace(
            sb::applyMitigation(spec.mitigation.kind, *program));
    }
    const std::unique_ptr<Core> core =
        constructCore(spec, mitigated ? mitigated->program : *program);
    core->setInvariantsEnabled(true);
    core->setContractShadowEnabled(true);
    core->setSoftWatchdog(100000);

    std::uint64_t commit_hash = sb::fnv1aBasis;
    std::uint64_t useful = 0;
    core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
        std::int64_t opc = inst.pc;
        if (mitigated) {
            opc = mitigated->origin(inst.pc);
            if (opc < 0)
                return;
        }
        commit_hash =
            sb::fnv1aWord(commit_hash, static_cast<std::uint64_t>(opc));
        ++useful;
    });

    sb::RunResult run;
    {
        Span span("core.run");
        run = core->run(std::numeric_limits<std::uint64_t>::max() / 2,
                        spec.maxCycles);
    }
    // The oracle's architectural fingerprint.
    std::uint64_t reg_hash = sb::fnv1aBasis;
    for (sb::ArchReg reg = 0; reg < sb::numArchRegs; ++reg)
        reg_hash = sb::fnv1aWord(reg_hash, core->readArchReg(reg));
    const std::uint64_t mem_hash = core->memoryImage().fingerprint();

    ReplicaResult res;
    res.cycles = run.cycles;
    res.instructions = mitigated ? useful : run.instructions;
    res.cellCycles = core->now();
    res.cellInstructions = core->committedInstructions();
    static_cast<void>(reg_hash ^ mem_hash ^ commit_hash);
    accumulate(res.counters, core->stats());
    return res;
}

/** runGadgetCell + runGadgetAttack. The per-commit receiver hook is
 *  kept; decoding the receivers afterwards is left out (it reads state
 *  without changing it). */
ReplicaResult
replayGadget(const RunSpec &spec)
{
    sb::GadgetKind kind;
    std::uint8_t secret = 0;
    std::uint64_t seed = 0;
    if (!sb::parseGadgetWorkload(spec.workload, kind, secret, seed))
        sb_fatal("malformed gadget workload '", spec.workload, "'");
    std::optional<sb::GadgetProgram> gadget;
    {
        Span span("trace.build");
        gadget.emplace(sb::buildGadgetProgram(kind, secret, seed));
    }
    std::optional<sb::TransformedProgram> mitigated;
    if (spec.mitigation.enabled()) {
        Span span("isa.transform");
        mitigated.emplace(
            sb::applyMitigation(spec.mitigation.kind, gadget->program));
    }
    const std::unique_ptr<Core> core = constructCore(
        spec, mitigated ? mitigated->program : gadget->program);
    core->enableObservationTrace();
    core->setContractShadowEnabled(true);

    std::vector<sb::Cycle> commit_cycle(256, 0);
    bool rounds_done = false;
    const std::uint32_t first_probe_pc = gadget->firstProbePc;
    const std::uint32_t barrier_pc = gadget->barrierPc;
    core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle at) {
        std::int64_t opc = inst.pc;
        if (mitigated) {
            opc = mitigated->origin(inst.pc);
            if (opc < 0)
                return;
        }
        if (opc >= first_probe_pc && inst.isLoad()) {
            const unsigned v =
                1 + static_cast<unsigned>(opc - first_probe_pc) / 4;
            if (v < 256)
                commit_cycle[v] = at;
        }
        if (static_cast<std::uint32_t>(opc) == barrier_pc)
            rounds_done = true;
    });

    {
        Span span("core.run");
        while (!rounds_done && !core->halted()
               && core->now() < 10'000'000)
            core->run(1, 10'000'000);
        core->run(100'000'000, 10'000'000);
    }

    ReplicaResult res;
    res.cycles = core->now();
    res.cellCycles = core->now();
    res.cellInstructions = core->committedInstructions();
    accumulate(res.counters, core->stats());
    return res;
}

/** runServerMixCell. */
ReplicaResult
replayServerMix(const RunSpec &spec)
{
    sb::ServerMixParams params;
    if (!sb::parseTenantWorkload(spec.workload, params))
        sb_fatal("malformed tenant workload '", spec.workload, "'");
    std::optional<sb::ServerMixProgram> mix;
    {
        Span span("trace.build");
        mix.emplace(sb::buildServerMix(params));
    }
    const std::unique_ptr<Core> core = constructCore(spec, mix->program);
    core->setContractShadowEnabled(true);

    const std::unordered_set<std::uint32_t> ends(mix->requestEnds.begin(),
                                                 mix->requestEnds.end());
    sb::Histogram latency(2048, 16);
    sb::Cycle last_end = 0;
    core->setCommitHook([&](const sb::DynInst &inst, sb::Cycle at) {
        if (ends.count(inst.pc) != 0) {
            latency.sample(at - last_end);
            last_end = at;
        }
    });

    sb::RunResult run;
    {
        Span span("core.run");
        run = core->run(100'000'000'000ULL, spec.maxCycles);
    }
    ReplicaResult res;
    res.cycles = run.cycles;
    res.instructions = run.instructions;
    res.cellCycles = core->now();
    res.cellInstructions = core->committedInstructions();
    accumulate(res.counters, core->stats());
    return res;
}

} // anonymous namespace

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch)
        .count();
}

int
Tracer::open(const char *name)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = stack.empty() ? -1 : stack.back();
    rec.cell = cell;
    rec.start = now();
    spans.push_back(rec);
    stack.push_back(static_cast<int>(spans.size()) - 1);
    return stack.back();
}

void
Tracer::close(int id)
{
    spans[static_cast<std::size_t>(id)].end = now();
    stack.pop_back();
}

void
setThreadTracer(Tracer *tracer)
{
    threadTracer = tracer;
}

Span::Span(const char *name)
    : id(threadTracer ? threadTracer->open(name) : -1)
{
}

Span::~Span()
{
    if (id >= 0 && threadTracer)
        threadTracer->close(id);
}

ReplicaResult
replayCell(const RunSpec &spec)
{
    switch (cellKind(spec)) {
      case CellKind::Window: {
        Span span("harness.cell.window");
        return replayWindow(spec);
      }
      case CellKind::Fuzz: {
        Span span("harness.cell.fuzz");
        return replayFuzz(spec);
      }
      case CellKind::Gadget: {
        Span span("harness.cell.gadget");
        return replayGadget(spec);
      }
      case CellKind::Mt: {
        Span span("harness.cell.mt");
        return replayServerMix(spec);
      }
    }
    sb_fatal("unknown cell kind");
}

} // namespace perfbench
