#include "trace/kernels.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sb
{

namespace
{

/** Base address of the data region for all kernels. */
constexpr Addr dataBase = 1ULL << 20;

/** Magic constant no computed value ever equals (slow branches). */
constexpr std::int64_t magicValue = 0x5bd1e995deadbeefLL;

/** Round down to a power of two. */
std::uint64_t
floorPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p * 2 <= x)
        p *= 2;
    return p;
}

/**
 * Emit a slow branch: beq val, magic -> next instruction. Both
 * outcomes land on the same PC, so it never mispredicts and costs
 * the unprotected baseline (almost) nothing — but it is a C-shadow
 * that resolves only when @p val is available.
 */
void
emitSlowBranch(ProgramBuilder &b, ArchReg val, ArchReg magic)
{
    const auto next = b.futureLabel();
    b.beq(val, magic, next);
    b.bind(next);
}

} // anonymous namespace

Program
makeStreamKernel(const StreamParams &p)
{
    sb_assert(p.loadsPerIter >= 1 && p.loadsPerIter <= 4,
              "stream: 1..4 loads per iter");
    ProgramBuilder b;

    const std::uint64_t footprint = floorPow2(p.footprintBytes);
    const ArchReg ptr = 1, end = 2, stride = 3, base = 4, magic = 30;
    const ArchReg acc0 = 16; // acc0..acc0+3 accumulators

    b.movi(base, dataBase);
    b.movi(ptr, dataBase);
    b.movi(end, dataBase + footprint);
    b.movi(stride, 64);
    b.movi(magic, magicValue);
    for (unsigned i = 0; i < 4; ++i)
        b.movi(acc0 + i, i + 1);

    const auto loop = b.here();
    // Independent loads across the line.
    for (unsigned i = 0; i < p.loadsPerIter; ++i)
        b.load(8 + i, ptr, 8 * i);
    // Independent compute per load (high ILP).
    for (unsigned i = 0; i < p.loadsPerIter; ++i) {
        for (unsigned c = 0; c < p.computePerLoad; ++c) {
            const ArchReg acc = acc0 + ((i + c) % 4);
            if (p.useFp) {
                if (c % 2 == 0)
                    b.fadd(acc, acc, 8 + i);
                else
                    b.fmul(acc, acc, 8 + i);
            } else {
                if (c % 2 == 0)
                    b.add(acc, acc, 8 + i);
                else
                    b.xor_(acc, acc, 8 + i);
            }
        }
    }
    if (p.storePerIter)
        b.store(ptr, acc0, 56);
    b.add(ptr, ptr, stride);
    b.blt(ptr, end, loop);          // Predictable: taken until wrap.
    b.movi(ptr, dataBase);
    b.jmp(loop);

    return b.build("stream");
}

Program
makePointerChaseKernel(const PointerChaseParams &p)
{
    sb_assert(p.chains >= 1 && p.chains <= 4, "chase: 1..4 chains");
    ProgramBuilder b;
    Rng rng(p.seed);

    // Build one cyclic random permutation per chain, nodes 64 B apart.
    // Node layout: [next (+0)] [payload (+8)]. Chain c's region
    // shrinks by 32x per step (floor 16 KiB), so fast, cache-resident
    // chains run beside DRAM-bound ones.
    std::vector<Addr> heads(p.chains);
    std::vector<unsigned> hops(p.chains, 1);
    std::vector<std::uint64_t> chainBytes(p.chains);
    std::uint64_t nodes = 0;
    for (unsigned c = 0; c < p.chains; ++c) {
        chainBytes[c] = floorPow2(std::max<std::uint64_t>(
            p.footprintBytes >> (5 * c), 16u << 10));
        nodes += chainBytes[c] / 64;
    }
    // Two words per node, and nothing else: the image is allocated
    // once, at its final size (mcf's is 8 MB).
    b.memory().reserve(2 * nodes);
    Addr regionBase = dataBase;
    for (unsigned c = 0; c < p.chains; ++c) {
        const std::uint64_t bytes = chainBytes[c];
        const std::uint64_t slots = bytes / 64;
        if (c > 0)
            hops[c] = std::min(4u, 1u << c);

        std::vector<std::uint32_t> order(slots);
        for (std::uint64_t i = 0; i < slots; ++i)
            order[i] = i;
        // Sattolo-style shuffle: one cycle visiting every slot.
        for (std::uint64_t i = slots - 1; i > 0; --i) {
            const std::uint64_t j = rng.below(i);
            std::swap(order[i], order[j]);
        }
        for (std::uint64_t i = 0; i < slots; ++i) {
            const Addr node = regionBase + Addr(order[i]) * 64;
            const Addr next =
                regionBase + Addr(order[(i + 1) % slots]) * 64;
            b.memory().write(node, next);
            b.memory().write(node + 8, rng.next());
        }
        heads[c] = regionBase;
        regionBase += bytes;
    }

    const ArchReg cnt = 20, lim = 21, one = 22, mask = 23, zero = 24;
    const ArchReg acc = 25, magic = 30;
    for (unsigned c = 0; c < p.chains; ++c)
        b.movi(1 + c, heads[c]);
    b.movi(cnt, 0);
    b.movi(lim, 1 << 20);
    b.movi(one, 1);
    b.movi(mask, 7);    // Noisy branch: (payload & 7) == 0, ~12.5 % taken.
    b.movi(zero, 0);
    b.movi(acc, 0);
    b.movi(magic, magicValue);

    const auto loop = b.here();
    // Dependent next-pointer loads: the serialised, memory-bound
    // core. Fast chains take several dependent hops per iteration.
    for (unsigned c = 0; c < p.chains; ++c) {
        for (unsigned h = 0; h < hops[c]; ++h)
            b.load(1 + c, 1 + c, 0);
    }
    // Payload loads (depend on the fresh pointers).
    for (unsigned c = 0; c < p.chains; ++c)
        b.load(8 + c, 1 + c, 8);
    // Work per hop.
    for (unsigned c = 0; c < p.chains; ++c) {
        for (unsigned w = 0; w < p.workPerHop; ++w) {
            if (w % 2 == 0)
                b.add(acc, acc, 8 + c);
            else
                b.xor_(acc, acc, 8 + c);
        }
    }
    // Slow branches on loaded payloads: long-lived C-shadows that
    // stall the visibility point for a full memory latency. An
    // optional dependent chain stretches each branch's resolution
    // past the payload, extending the taint-live window.
    for (unsigned c = 0; c < p.chains; ++c) {
        if (rng.uniform() < p.slowBranchFraction) {
            ArchReg val = 8 + c;
            if (p.branchChainLength > 0) {
                b.add(13, val, one);
                for (unsigned k = 1; k < p.branchChainLength; ++k) {
                    if (k % 2 == 0)
                        b.add(13, 13, one);
                    else
                        b.mul(13, 13, one);
                }
                val = 13;
            }
            emitSlowBranch(b, val, magic);
        }
    }
    // Noisy branches: real, data-dependent mispredicts.
    for (unsigned c = 0; c < p.chains; ++c) {
        if (rng.uniform() < p.noisyBranchFraction) {
            b.and_(12, 8 + c, mask);
            const auto skip = b.futureLabel();
            b.bne(12, zero, skip);
            b.addi(acc, acc, 1);
            b.bind(skip);
        }
    }
    b.add(cnt, cnt, one);
    b.blt(cnt, lim, loop);          // Easy loop branch.
    b.movi(cnt, 0);
    b.jmp(loop);

    return b.build("pointer-chase");
}

Program
makeComputeChainKernel(const ComputeChainParams &p)
{
    sb_assert(p.chainsPerIter >= 1 && p.chainsPerIter <= 4,
              "chain: 1..4 chains");
    sb_assert(p.loadsPerIter >= 1 && p.loadsPerIter <= 4,
              "chain: 1..4 loads");
    ProgramBuilder b;

    const std::uint64_t hot = floorPow2(p.hotBytes);
    const ArchReg ptr = 1, base = 2, mask = 3, stride = 4, magic = 30;
    const ArchReg cnt = 20, lim = 21, one = 22, three = 23;

    b.movi(base, dataBase);
    b.movi(ptr, dataBase);
    b.movi(mask, hot - 1);
    b.movi(stride, 64);
    b.movi(cnt, 0);
    b.movi(lim, 1 << 20);
    b.movi(one, 1);
    b.movi(three, 3);
    b.movi(magic, magicValue);

    const auto loop = b.here();
    // Hot-set loads (L1 resident) feeding the chains.
    for (unsigned i = 0; i < p.loadsPerIter; ++i)
        b.load(8 + i, ptr, 8 * i);
    // Per-iteration dependent compute chains, started fresh from the
    // loads so consecutive iterations overlap freely on the baseline.
    // These are non-transmitters: STT runs them at full speed while
    // NDA stalls them on the deferred load broadcast.
    for (unsigned c = 0; c < p.chainsPerIter; ++c) {
        const ArchReg acc = 16 + c;
        const ArchReg in = 8 + (c % p.loadsPerIter);
        b.add(acc, in, three); // Fresh chain head each iteration.
        for (unsigned k = 1; k < p.chainLength; ++k) {
            if (p.useFp) {
                if (k % 2 == 0)
                    b.fmul(acc, acc, in);
                else
                    b.fadd(acc, acc, in);
            } else {
                if (k % 2 == 0)
                    b.mul(acc, acc, in);
                else
                    b.add(acc, acc, in);
            }
        }
    }
    // Slow branch on the chain result: resolves a full chain latency
    // after the loads, keeping every younger load speculative.
    emitSlowBranch(b, 16, magic);
    // Independent integer work: ILP every scheme retains.
    for (unsigned c = 0; c < p.independentWork; ++c) {
        const ArchReg w = 24 + (c % 4);
        if (c % 2 == 0)
            b.add(w, cnt, one);
        else
            b.xor_(w, w, cnt);
    }
    // Hot-set store (fast address, resolves quickly).
    b.store(ptr, 16, 56);
    // Advance the hot pointer: ptr = base | ((ptr + 64) & mask).
    b.add(ptr, ptr, stride);
    b.and_(ptr, ptr, mask);
    b.or_(ptr, ptr, base);
    b.add(cnt, cnt, one);
    b.blt(cnt, lim, loop);
    b.movi(cnt, 0);
    b.jmp(loop);

    return b.build("compute-chain");
}

Program
makeBranchyKernel(const BranchyParams &p)
{
    ProgramBuilder b;
    Rng rng(p.seed);

    const std::uint64_t footprint = floorPow2(p.footprintBytes);
    const ArchReg lcg = 8, lcgA = 9, lcgC = 10, bit = 11, zero = 12;
    const ArchReg base = 1, mask = 2, addr = 3, val = 4;
    const ArchReg cnt = 20, lim = 21, one = 22, acc = 25, mask7 = 13;

    b.movi(lcg, 0x9e3779b9);
    b.movi(lcgA, 6364136223846793005LL);
    b.movi(lcgC, 1442695040888963407LL);
    b.movi(zero, 0);
    b.movi(base, dataBase);
    b.movi(mask, footprint - 64);
    b.movi(cnt, 0);
    b.movi(lim, 1 << 20);
    b.movi(one, 1);
    b.movi(acc, 0);
    b.movi(mask7, 7);

    const auto loop = b.here();
    for (unsigned h = 0; h < p.hardBranches; ++h) {
        // Refresh the pseudo-random value.
        b.mul(lcg, lcg, lcgA);
        b.add(lcg, lcg, lcgC);
        const bool onLoad = rng.uniform() < p.loadConditionFraction;
        if (onLoad) {
            // Condition tests a loaded value: the branch is a tainted
            // transmitter under STT and waits for the broadcast under
            // NDA, keeping the shadow alive for a memory latency.
            b.and_(addr, lcg, mask);
            b.or_(addr, addr, base);
            b.load(val, addr, 0);
            b.and_(bit, val, mask7);
        } else {
            // Condition on register data: unpredictable but fast.
            b.and_(bit, lcg, mask7);
        }
        const auto skip = b.futureLabel();
        b.bne(bit, zero, skip);     // ~12.5 % taken, data-dependent.
        for (unsigned c = 0; c < p.computePerBranch; ++c)
            b.add(acc, acc, one);
        b.bind(skip);
        for (unsigned c = 0; c < p.computePerBranch; ++c)
            b.xor_(acc, acc, lcg);
    }
    for (unsigned e = 0; e < p.easyBranches; ++e) {
        // Highly biased branch: taken once per 2^20 iterations.
        const auto skip = b.futureLabel();
        b.bge(cnt, lim, skip);
        b.add(acc, acc, one);
        b.bind(skip);
    }
    if (p.slowBranchChain > 0) {
        // Shadow extender: a never-taken branch on a value that
        // trails the last condition load by a dependent chain.
        const ArchReg magic2 = 14, slowv = 15;
        b.movi(magic2, 0x5bd1e995deadbeefLL);
        b.add(slowv, val, one);
        for (unsigned k = 1; k < p.slowBranchChain; ++k) {
            if (k % 2 == 0)
                b.add(slowv, slowv, one);
            else
                b.mul(slowv, slowv, one);
        }
        emitSlowBranch(b, slowv, magic2);
    }
    b.add(cnt, cnt, one);
    b.blt(cnt, lim, loop);
    b.movi(cnt, 0);
    b.jmp(loop);

    return b.build("branchy");
}

Program
makeStoreForwardKernel(const StoreForwardParams &p)
{
    sb_assert(p.depth >= 1 && p.depth <= 8, "storefwd: depth 1..8");
    ProgramBuilder b;

    const std::uint64_t region = floorPow2(p.regionBytes);
    const ArchReg sp = 1, base = 2, mask = 3, link = 15, magic = 30;
    const ArchReg cnt = 20, lim = 21, one = 22, acc = 25;

    b.movi(base, dataBase);
    b.movi(sp, dataBase);
    b.movi(mask, region - 1);
    b.movi(cnt, 0);
    b.movi(lim, 1 << 20);
    b.movi(one, 1);
    b.movi(acc, 0);
    b.movi(link, 0x1234);
    b.movi(magic, magicValue);
    // Seed the region's first frame so the initial pops see real data.
    for (unsigned d = 0; d < p.depth; ++d)
        b.memory().write(dataBase + 8 * d, d + 1);

    const ArchReg slowv = 14;
    b.movi(slowv, 7);

    const auto loop = b.here();
    // Slow branch on a *side* chain (slowv): it keeps the shadow
    // open over the pushes/pops below without being on the store
    // data path, so the pop roots stay live while the push data is
    // ready early — the blocked address halves then force younger
    // pops to bypass unknown stores and take violation flushes.
    emitSlowBranch(b, slowv, magic);
    // Push phase: store addresses come from the fast sp counter.
    // With loadedData, odd slots carry pop-derived (tainted) data, so
    // single-taint STT-Rename blocks their address halves too (paper
    // Sec. 9.2); even slots carry ALU-link data, which keeps the
    // iteration recurrence off the loads — NDA's deferrals then only
    // delay leaves, matching exchange2's NDA-friendly profile.
    for (unsigned d = 0; d < p.depth; ++d) {
        const ArchReg v = 8 + (d % 4);
        if (p.loadedData && (d % 2) == 1)
            b.add(v, 16, one);      // Pop-derived: tainted data.
        else
            b.add(v, link, one);    // ALU link: clean data.
        for (unsigned c = 1; c < p.computePerLevel; ++c)
            b.xor_(v, v, cnt);
        b.store(sp, v, 8 * d);
    }
    // Pop phase: immediately load the pushed slots back (forwarding).
    // The pops are leaves: acc restarts from them every iteration.
    b.load(16, sp, 0);
    b.add(acc, 16, one);
    for (unsigned d = p.depth; d-- > 1;) {
        b.load(16 + (d % 4), sp, 8 * d);
        b.add(acc, acc, 16 + (d % 4));
    }
    // Carried path: pure ALU, so the baseline (and NDA) overlap
    // iterations freely.
    b.add(link, link, one);
    b.xor_(link, link, cnt);
    // The slow side chain feeding only the next slow branch: muls
    // give it real latency, so the shadow outlives the push/pop
    // window of the next iteration. It hangs off the ALU link (not a
    // pop), so NDA's deferred pop broadcasts never feed back into
    // shadow resolution — the deferrals stay leaf-only, as in real
    // exchange2.
    b.add(slowv, link, one);
    for (unsigned c = 1; c < p.chainAfterPop; ++c) {
        if (c % 2 == 0)
            b.add(slowv, slowv, cnt);
        else
            b.mul(slowv, slowv, one);
    }
    // Independent integer work: overlappable ILP under NDA, but
    // lost to the violation flushes under single-taint STT-Rename.
    for (unsigned c = 0; c < p.independentWork; ++c) {
        const ArchReg w = 11 + (c % 3);
        if (c % 2 == 0)
            b.add(w, cnt, one);
        else
            b.xor_(w, w, cnt);
    }
    // Advance sp within the tiny region: heavy cross-iteration reuse.
    b.addi(sp, sp, 8 * p.depth);
    b.and_(sp, sp, mask);
    b.or_(sp, sp, base);
    b.add(cnt, cnt, one);
    b.blt(cnt, lim, loop);
    b.movi(cnt, 0);
    b.jmp(loop);

    return b.build("store-forward");
}

Program
makeHashMixKernel(const HashMixParams &p)
{
    ProgramBuilder b;
    Rng rng(p.seed);

    const std::uint64_t footprint = floorPow2(p.footprintBytes);
    const ArchReg lcg = 8, lcgA = 9, lcgC = 10;
    const ArchReg base = 1, mask = 2, addr = 3, val = 4, bit = 11;
    const ArchReg zero = 12, mask7 = 13, magic = 30;
    const ArchReg cnt = 20, lim = 21, one = 22, acc = 25;

    b.movi(lcg, 0x243f6a8885a308d3LL);
    b.movi(lcgA, 6364136223846793005LL);
    b.movi(lcgC, 1442695040888963407LL);
    b.movi(base, dataBase);
    b.movi(mask, footprint - 64);
    b.movi(zero, 0);
    b.movi(mask7, 7);
    b.movi(cnt, 0);
    b.movi(lim, 1 << 20);
    b.movi(one, 1);
    b.movi(acc, 0);
    b.movi(magic, magicValue);

    const auto loop = b.here();
    for (unsigned q = 0; q < p.probesPerIter; ++q) {
        b.mul(lcg, lcg, lcgA);
        b.add(lcg, lcg, lcgC);
        b.and_(addr, lcg, mask);
        b.or_(addr, addr, base);
        b.load(val, addr, 0);
        if (rng.uniform() < p.dependentLoadFraction) {
            // Dereference the loaded value as a sanitised pointer:
            // under STT the second load's address is tainted, so it
            // cannot issue until the first load is non-speculative.
            b.and_(addr, val, mask);
            b.or_(addr, addr, base);
            b.load(val, addr, 0);
        }
        for (unsigned c = 0; c < p.computePerProbe; ++c) {
            if (c % 2 == 0)
                b.add(acc, acc, val);
            else
                b.xor_(acc, acc, lcg);
        }
        if (rng.uniform() < p.slowBranchFraction)
            emitSlowBranch(b, val, magic);
        if (rng.uniform() < p.noisyBranchFraction) {
            b.and_(bit, val, mask7);
            const auto skip = b.futureLabel();
            b.bne(bit, zero, skip);
            b.add(acc, acc, one);
            b.bind(skip);
        }
        if (rng.uniform() < p.storeFraction)
            b.store(addr, acc, 8);
    }
    b.add(cnt, cnt, one);
    b.blt(cnt, lim, loop);
    b.movi(cnt, 0);
    b.jmp(loop);

    return b.build("hash-mix");
}

} // namespace sb
