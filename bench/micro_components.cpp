/**
 * @file
 * google-benchmark microbenchmarks of the simulator's substrate
 * components: cache probes, TAGE predictions, rename throughput,
 * issue-queue wakeup/select, the timing wheel, gadget program builds,
 * built-image reads, core construction, full-core simulation rate,
 * and the synthesis models. These guard the simulator's own
 * performance (the methodology needs large instruction windows, paper
 * Sec. 7).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "branch/tage.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "core/inst_slab.hh"
#include "core/issue_queue.hh"
#include "core/rename_map.hh"
#include "core/timing_wheel.hh"
#include "isa/generator.hh"
#include "memory/memory_system.hh"
#include "secure/factory.hh"
#include "synth/timing_model.hh"
#include "trace/gadgets.hh"
#include "trace/spec_suite.hh"

namespace
{

void
BM_CacheProbe(benchmark::State &state)
{
    sb::Cache cache("bench", sb::CacheConfig{});
    sb::Rng rng(7);
    sb::Cycle now = 0;
    for (auto _ : state) {
        const sb::Addr addr = rng.below(1 << 20);
        ++now;
        auto hit = cache.probe(addr, now);
        if (!hit)
            cache.insert(addr, now, now + 20);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_CacheProbe);

void
BM_MemorySystemAccess(benchmark::State &state)
{
    sb::MemorySystem mem(sb::CoreConfig::mega());
    sb::Rng rng(7);
    sb::Cycle now = 0;
    for (auto _ : state) {
        now += 2;
        auto res = mem.access(rng.below(1 << 22), rng.below(64), now,
                              false);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_MemorySystemAccess);

void
BM_TagePredict(benchmark::State &state)
{
    sb::TagePredictor tage(10);
    sb::Rng rng(7);
    std::uint64_t hist = 0;
    for (auto _ : state) {
        const std::uint64_t pc = rng.below(512);
        const bool taken = tage.predict(pc, hist);
        hist = (hist << 1) | taken;
        tage.update(pc, hist, (pc & 3) != 0);
        benchmark::DoNotOptimize(taken);
    }
}
BENCHMARK(BM_TagePredict);

void
BM_RenameAllocate(benchmark::State &state)
{
    sb::RenameMap map(sb::numArchRegs, 128);
    sb::Rng rng(7);
    for (auto _ : state) {
        const sb::ArchReg reg = rng.below(sb::numArchRegs);
        sb::PhysReg stale;
        const sb::PhysReg fresh = map.allocate(reg, stale);
        map.release(stale);
        benchmark::DoNotOptimize(fresh);
    }
}
BENCHMARK(BM_RenameAllocate);

/**
 * One steady-state issue-queue cycle on a full Mega-sized queue:
 * broadcast the next register in allocation order, walk the candidate
 * list the way select does, remove up to issue-width of the oldest
 * candidates and dispatch a replacement for each. A replacement waits
 * on two of the next 64 registers to broadcast, which makes about one
 * entry ready per broadcast, as in the core, where nearly every issued
 * op broadcasts one register. The queue stays full, so insert, wakeup,
 * the select walk and remove are all timed.
 */
void
BM_IssueQueueWakeup(benchmark::State &state)
{
    const sb::CoreConfig cfg = sb::CoreConfig::mega();
    const unsigned pregs = cfg.numPhysRegs;
    sb::InstSlab slab(2 * cfg.iqEntries);
    sb::IssueQueue iq(cfg.iqEntries, pregs);
    iq.attachSlab(&slab);
    sb::Rng rng(7);
    sb::SeqNum seq = 0;
    unsigned next_broadcast = 0;
    auto upcoming = [&] {
        return static_cast<sb::PhysReg>(
            (next_broadcast + rng.below(64)) % pregs);
    };
    auto dispatch = [&] {
        const sb::InstHandle h = slab.alloc();
        sb::DynInst &inst = slab.get(h);
        inst = sb::DynInst{};
        inst.seq = ++seq;
        inst.uop.op = sb::Op::Add;
        inst.uop.dst = 1;
        inst.uop.src1 = 2;
        inst.uop.src2 = 3;
        inst.psrc1 = upcoming();
        inst.psrc2 = upcoming();
        iq.insert(h, inst, false, false);
    };
    while (!iq.full())
        dispatch();
    std::vector<sb::InstHandle> issued;
    for (auto _ : state) {
        iq.wakeup(static_cast<sb::PhysReg>(next_broadcast));
        next_broadcast = (next_broadcast + 1) % pregs;
        issued.clear();
        unsigned walked = 0;
        for (std::int32_t idx = iq.firstReady(); idx >= 0;
             idx = iq.nextReady(idx)) {
            if (issued.size() < cfg.issueWidth)
                issued.push_back(iq.entryAt(idx).handle);
            ++walked;
        }
        for (sb::InstHandle h : issued) {
            iq.remove(slab.get(h));
            slab.free(h);
            dispatch();
        }
        benchmark::DoNotOptimize(walked);
    }
}
BENCHMARK(BM_IssueQueueWakeup);

/**
 * The core's timing wheel at Mega's event rate: each iteration is one
 * cycle that schedules issue-width completions and as many wakeup
 * broadcasts, at latencies cycling from one cycle out to a memory
 * round trip (the span the core sizes its wheel for), and drains the
 * cycle's bucket. The pool is sized as the core sizes it.
 */
void
BM_TimingWheelSteadyState(benchmark::State &state)
{
    struct Event
    {
        sb::InstHandle inst;
        sb::PhysReg preg;
        std::uint32_t epoch;
    };
    const sb::CoreConfig cfg = sb::CoreConfig::mega();
    const unsigned round_trip = 2 * cfg.l1d.latency + 2 * cfg.l2.latency
                                + cfg.memLatency;
    const std::vector<unsigned> delays = {
        1, 1, 2, 1, cfg.mulLatency, 1, cfg.l1d.latency + 1, 1,
        cfg.l2.latency + cfg.l1d.latency, 1, round_trip, cfg.fpLatency};
    sb::TimingWheel<Event> wheel(round_trip + cfg.divLatency + 8,
                                 cfg.robEntries + cfg.numPhysRegs);
    std::size_t next = 0;
    std::uint64_t fired = 0;
    sb::Cycle now = 0;
    for (auto _ : state) {
        ++now;
        for (unsigned i = 0; i < 2 * cfg.issueWidth; ++i) {
            const unsigned delay = delays[next];
            next = next + 1 == delays.size() ? 0 : next + 1;
            wheel.push(now + delay, now,
                       Event{static_cast<sb::InstHandle>(now), 0, i});
        }
        wheel.drainDue(now, [&](const Event &ev) { fired += ev.epoch; });
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 2 * cfg.issueWidth);
}
BENCHMARK(BM_TimingWheelSteadyState);

/**
 * Per-cell set-up: build the scheme and a Mega core, then destroy both
 * (a fuzz or gadget cell pays this once). Arg 0 runs on a generated
 * fuzz program (90 ops), arg 1 on the spectre-v1 gadget (1,057 ops):
 * the gap is what the core allocates per static op.
 */
void
BM_CoreConstruct(benchmark::State &state)
{
    sb::GeneratorParams params;
    params.seed = 7;
    const sb::Program prog =
        state.range(0) == 0
            ? sb::generateProgram(params)
            : sb::buildGadgetProgram(sb::GadgetKind::SpectreV1, 42, 1)
                  .program;
    const sb::CoreConfig cfg = sb::CoreConfig::mega();
    for (auto _ : state) {
        sb::SchemeConfig scfg;
        scfg.scheme = sb::Scheme::SttRename;
        sb::Core core(cfg, scfg, sb::makeScheme(scfg), prog);
        benchmark::DoNotOptimize(&core);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CoreConstruct)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/** A gadget cell's program build: code plus its 4,150-word image. */
void
BM_GadgetBuild(benchmark::State &state)
{
    for (auto _ : state) {
        const sb::GadgetProgram g =
            sb::buildGadgetProgram(sb::GadgetKind::SpectreV1, 42, 1);
        benchmark::DoNotOptimize(g.program.memory.size());
    }
}
BENCHMARK(BM_GadgetBuild)->Unit(benchmark::kMicrosecond);

/** @p count addresses along 505.mcf's first pointer chain (each a
 *  stored word), each moved by @p offset bytes. */
std::vector<sb::Addr>
mcfChainAddrs(const sb::MemoryImage &mem, std::size_t count,
              sb::Addr offset)
{
    std::vector<sb::Addr> addrs;
    sb::Addr node = 1u << 20; // The chain's head.
    for (std::size_t i = 0; i < count; ++i) {
        addrs.push_back(node + offset);
        node = mem.read(node);
    }
    return addrs;
}

/**
 * A load's functional read of a stored word of a built image (the
 * memoized 505.mcf, 270,848 words): arg 4,096 reads stay within a
 * cache-resident slice of the image, arg 65,536 spread over half of
 * the chain's 131,072 nodes.
 */
void
BM_ImageReadHit(benchmark::State &state)
{
    const sb::Workload w = sb::SpecSuite::make("505.mcf");
    const std::vector<sb::Addr> addrs =
        mcfChainAddrs(w.program.memory, state.range(0), 0);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.program.memory.read(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
}
BENCHMARK(BM_ImageReadHit)->Arg(1 << 12)->Arg(1 << 16);

/** The same reads of words the image does not hold: half in the pages
 *  of its nodes (the words after a node's two), half 1 GiB above. */
void
BM_ImageReadMiss(benchmark::State &state)
{
    const sb::Workload w = sb::SpecSuite::make("505.mcf");
    std::vector<sb::Addr> addrs =
        mcfChainAddrs(w.program.memory, state.range(0), 16);
    for (std::size_t k = 1; k < addrs.size(); k += 2)
        addrs[k] += sb::Addr(1) << 30;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.program.memory.read(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
}
BENCHMARK(BM_ImageReadMiss)->Arg(1 << 12)->Arg(1 << 16);

/** Full-core simulation throughput (instructions per second). */
void
BM_CoreSimulation(benchmark::State &state)
{
    const sb::Workload w = sb::SpecSuite::make("538.imagick");
    const sb::Scheme scheme = static_cast<sb::Scheme>(state.range(0));
    for (auto _ : state) {
        sb::SchemeConfig scfg;
        scfg.scheme = scheme;
        sb::Core core(sb::CoreConfig::mega(), scfg,
                      sb::makeScheme(scfg), w.program);
        auto r = core.run(20000, 1'000'000);
        benchmark::DoNotOptimize(r.instructions);
        state.SetItemsProcessed(state.items_processed()
                                + r.instructions);
    }
}
BENCHMARK(BM_CoreSimulation)
    ->Arg(static_cast<int>(sb::Scheme::Baseline))
    ->Arg(static_cast<int>(sb::Scheme::SttRename))
    ->Arg(static_cast<int>(sb::Scheme::SttIssue))
    ->Arg(static_cast<int>(sb::Scheme::Nda))
    ->Unit(benchmark::kMillisecond);

void
BM_TimingModel(benchmark::State &state)
{
    const sb::CoreConfig cfg = sb::CoreConfig::mega();
    for (auto _ : state) {
        auto b = sb::TimingModel::analyze(cfg, sb::Scheme::SttRename);
        benchmark::DoNotOptimize(b.frequencyMhz);
    }
}
BENCHMARK(BM_TimingModel);

} // anonymous namespace

BENCHMARK_MAIN();
