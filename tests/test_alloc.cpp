/**
 * @file
 * Heap-allocation census: a replaced global operator new counts every
 * allocation the process makes, and its bytes, and each test counts
 * across one piece of work. The timing wheel and the contract shadow
 * allocate nothing after construction, a whole fuzz cell (program
 * generation, core construction, the run and the harvest) stays under
 * a fixed budget, and what constructing a Core allocates does not
 * grow with the program's code. The replaced operator delete keeps
 * the live heap bytes too, and their high-water mark, so a stand-in's
 * build is held to what its image costs while built and once built.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <vector>

#include "core/contract_shadow.hh"
#include "core/core.hh"
#include "core/decode_cache.hh"
#include "core/timing_wheel.hh"
#include "harness/conformance.hh"
#include "harness/experiment.hh"
#include "isa/generator.hh"
#include "secure/factory.hh"
#include "trace/gadgets.hh"
#include "trace/spec_suite.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> allocatedBytes{0};
std::atomic<std::uint64_t> liveBytes{0};     ///< Usable bytes held.
std::atomic<std::uint64_t> peakLiveBytes{0}; ///< liveBytes' high water.

void
release(void *p)
{
    if (p)
        liveBytes.fetch_sub(malloc_usable_size(p),
                            std::memory_order_relaxed);
    std::free(p);
}

} // anonymous namespace

// The array and nothrow forms of operator new call this one, so every
// allocation the tests make through new is counted here.
void *
operator new(std::size_t bytes)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    allocatedBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1)) {
        const std::uint64_t usable = malloc_usable_size(p);
        const std::uint64_t live =
            liveBytes.fetch_add(usable, std::memory_order_relaxed) + usable;
        std::uint64_t peak = peakLiveBytes.load(std::memory_order_relaxed);
        while (live > peak
               && !peakLiveBytes.compare_exchange_weak(
                   peak, live, std::memory_order_relaxed))
        {
        }
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

namespace
{

std::uint64_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

std::uint64_t
allocatedByteCount()
{
    return allocatedBytes.load(std::memory_order_relaxed);
}

std::uint64_t
liveByteCount()
{
    return liveBytes.load(std::memory_order_relaxed);
}

constexpr double mib = 1024.0 * 1024.0;

TEST(AllocCensus, BuiltStandInCostsWhatItsImageHolds)
{
    // omnetpp's image is the suite's largest: 541,696 words on 4,232
    // pages (a 16 MB four-chain pointer chase). Built, it keeps 8
    // bytes a word plus a page record; while it builds, the log of
    // writes (12 bytes a write) is held next to it. The bounds sit
    // well below what a hash table of 16-byte slots costs for the
    // same words: 16 MiB resident, 17 MiB at its high water.
    const std::uint64_t before = liveByteCount();
    peakLiveBytes.store(before, std::memory_order_relaxed);
    const sb::Workload w = sb::SpecSuite::make("520.omnetpp");
    const double peak =
        (peakLiveBytes.load(std::memory_order_relaxed) - before) / mib;
    const double resident = (liveByteCount() - before) / mib;
    std::printf("520.omnetpp build: %zu words, peak %.2f MiB, "
                "resident %.2f MiB\n",
                w.program.memory.size(), peak, resident);
    ASSERT_GT(peak, 1.0) << "520.omnetpp was built earlier in the process";
    EXPECT_EQ(w.program.memory.size(), 541'696u);
    EXPECT_LT(peak, 12.0);
    EXPECT_LT(resident, 6.0);
}

TEST(AllocCensus, TimingWheelSteadyStateAllocatesNothing)
{
    sb::TimingWheel<std::uint64_t> wheel(64, 128);
    std::uint64_t fired = 0;
    const std::uint64_t before = allocationCount();
    // One push per cycle at delays 1..40: at most 40 events in flight,
    // spread over every bucket of the wheel.
    for (sb::Cycle now = 1; now <= 1'000'000; ++now) {
        wheel.push(now + 1 + now % 40, now, now);
        wheel.drainDue(now, [&](std::uint64_t) { ++fired; });
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(fired + wheel.size(), 1'000'000u);
}

TEST(AllocCensus, ContractShadowLabelCycleAllocatesNothing)
{
    const sb::Addr secret = 0x4000;
    sb::ContractShadow shadow(64, 8, 8);
    shadow.setActive(true);
    shadow.markSecretRegion(secret, 256);

    sb::DynInst store;
    store.uop.op = sb::Op::Store;
    store.uop.src1 = 2;
    store.uop.src2 = 3;
    store.psrc1 = 12;
    store.effAddrValid = true;
    sb::DynInst load;
    load.uop.op = sb::Op::Load;
    load.uop.dst = 1;
    load.uop.src1 = 2;
    load.pdst = 20;
    load.psrc1 = 20; // Address from the last load: a transmitter.
    load.effAddrValid = true;

    const std::uint64_t before = allocationCount();
    sb::SeqNum seq = 1;
    for (std::uint32_t ticket = 0; ticket < 100'000; ++ticket) {
        // A store, a load that forwards from it, a load from memory,
        // and the store's commit: the last load's (often secret)
        // value to a secret word, or clean data that scrubs a secret
        // word or lands on a public one.
        const bool clean = ticket % 4 == 1 || ticket % 4 == 2;
        store.seq = seq++;
        store.sqTicket = ticket;
        store.psrc2 = clean ? 13 : 20;
        store.effAddr = ticket % 4 == 1 ? secret + 4096 + 8 * (ticket % 64)
                                        : secret + 8 * (ticket % 32);
        shadow.onConsume(store, ticket, 0, false, true, false);
        shadow.onStoreData(store);

        load.seq = seq++;
        load.lqTicket = 2 * ticket;
        load.effAddr = store.effAddr;
        shadow.onConsume(load, ticket, 0, true, false, true);
        shadow.onLoadValue(load, store.seq, store.sqTicket);
        shadow.onLoadData(load, ticket & 8);

        load.seq = seq++;
        load.lqTicket = 2 * ticket + 1;
        load.effAddr = secret + 8 * (ticket % 32);
        shadow.onConsume(load, ticket, 0, true, false, true);
        shadow.onLoadValue(load, sb::invalidSeqNum, 0);
        shadow.onLoadData(load, false);
        shadow.onStoreCommit(store);
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_GT(shadow.ctViolations(), 0u);
}

TEST(AllocCensus, FuzzCellStaysUnderBudget)
{
    sb::FuzzParams params;
    params.programs = 2;
    const std::vector<sb::RunSpec> cells = sb::fuzzSpecs(params);
    ASSERT_FALSE(cells.empty());
    // The first cell also pays one-time, process-wide set-up.
    sb::ExperimentRunner::runOne(cells.front());
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const std::uint64_t before = allocationCount();
        sb::ExperimentRunner::runOne(cells[i]);
        const std::uint64_t count = allocationCount() - before;
        EXPECT_LT(count, 400u) << "cell " << i << ": " << cells[i].workload;
        std::printf("cell %zu (%s): %llu allocations\n", i,
                    cells[i].workload.c_str(),
                    static_cast<unsigned long long>(count));
    }
}

/** Bytes allocated while constructing a Mega STT-Rename Core on
 *  @p prog (the scheme is built first and not counted). */
std::uint64_t
coreConstructionBytes(const sb::Program &prog)
{
    sb::SchemeConfig scfg;
    scfg.scheme = sb::Scheme::SttRename;
    std::unique_ptr<sb::SecureScheme> scheme = sb::makeScheme(scfg);
    const std::uint64_t before = allocatedByteCount();
    sb::Core core(sb::CoreConfig::mega(), scfg, std::move(scheme), prog);
    return allocatedByteCount() - before;
}

TEST(AllocCensus, CoreConstructionDoesNotScaleWithCode)
{
    // The decode cache is the one per-static-op table a Core
    // allocates; at two bytes an entry it is noise next to the
    // core's fixed structures.
    static_assert(sizeof(sb::DecodedOp) <= 4);

    sb::GeneratorParams params;
    params.seed = 5;
    const sb::Program fuzz = sb::generateProgram(params);
    const sb::GadgetProgram gadget =
        sb::buildGadgetProgram(sb::GadgetKind::SpectreV1, 42, 1);
    ASSERT_GT(gadget.program.code.size(), 10 * fuzz.code.size());

    // The first construction also pays one-time, process-wide set-up.
    coreConstructionBytes(fuzz);
    const std::uint64_t small = coreConstructionBytes(fuzz);
    const std::uint64_t large = coreConstructionBytes(gadget.program);
    std::printf("Core construction: %zu ops %llu bytes, %zu ops %llu "
                "bytes\n",
                fuzz.code.size(), static_cast<unsigned long long>(small),
                gadget.program.code.size(),
                static_cast<unsigned long long>(large));
    EXPECT_LE(large, small + 8 * 1024);
}

} // anonymous namespace
