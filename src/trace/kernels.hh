/**
 * @file
 * Synthetic kernel generators.
 *
 * Each generator emits a real, functionally-executing program whose
 * microarchitectural character (memory-boundedness, branch
 * predictability, dependency structure, store/load aliasing) is set by
 * explicit parameters. The SPEC CPU2017 stand-in suite (spec_suite.hh)
 * composes these kernels with per-benchmark parameters.
 *
 * The central knob for secure-speculation sensitivity is the *slow
 * branch*: a perfectly predictable (never-taken) compare against a
 * magic constant whose operand only becomes available after a load or
 * a compute chain. Slow branches cost the baseline nothing but keep
 * C-shadows open for the full data latency, which:
 *  - stalls the visibility point, so loads complete speculative and
 *    NDA must defer their broadcasts (its main IPC cost);
 *  - keeps taint roots live, so STT blocks dependent transmitters
 *    (loads/stores/branches with tainted operands);
 *  - under single-taint STT-Rename, delays store address generation,
 *    causing the forwarding-error storms of paper Sec. 9.2.
 * Noisy branches (low-bias conditions on loaded data) add real
 * mispredicts on top, for benchmarks that have them.
 */

#ifndef SB_TRACE_KERNELS_HH
#define SB_TRACE_KERNELS_HH

#include <cstdint>

#include "isa/program.hh"

namespace sb
{

/** Parameters for the streaming (array-sweep) kernel. */
struct StreamParams
{
    std::uint64_t footprintBytes = 8u << 20;
    unsigned loadsPerIter = 2;      ///< Independent loads per element.
    unsigned computePerLoad = 2;    ///< Independent ALU/FP ops per load.
    bool useFp = true;              ///< FP-latency compute ops.
    bool storePerIter = true;       ///< One streaming store per element.
    std::uint64_t seed = 1;
};

/**
 * Parameters for the pointer-chase kernel. The chains are
 * heterogeneous: chain c's footprint is footprintBytes >> (5*c)
 * (floor 16 KiB), so fast (cache-resident) chains coexist with
 * DRAM-bound ones, and chain c > 0 takes min(2^c, 4) dependent hops
 * per iteration. Under STT every intra-iteration hop address is
 * tainted while the slow chain's branch is unresolved, collapsing the
 * fast chains' MLP — the dominant STT cost on mcf-like code.
 */
struct PointerChaseParams
{
    std::uint64_t footprintBytes = 16u << 20;
    unsigned chains = 2;            ///< Independent chains (MLP).
    unsigned workPerHop = 2;        ///< ALU ops per dereference.
    /** Fraction of chains followed by a slow branch on the payload. */
    double slowBranchFraction = 1.0;
    /** Fraction of chains followed by a noisy (mispredicting) branch. */
    double noisyBranchFraction = 0.25;
    /**
     * Dependent ALU ops between a payload and its slow branch: the
     * branch then resolves that much after the payload, keeping the
     * next hop's taint root live past its data-ready time (the STT
     * serialisation cost on the chase recurrence).
     */
    unsigned branchChainLength = 0;
    std::uint64_t seed = 2;
};

/** Parameters for the compute-chain kernel. Each iteration ends in a
 *  slow branch on the first chain's result. */
struct ComputeChainParams
{
    unsigned chainLength = 8;       ///< Dependent ops per chain segment.
    unsigned chainsPerIter = 2;     ///< Parallel chain segments.
    bool useFp = true;
    unsigned loadsPerIter = 2;      ///< Hot-set loads feeding the chains.
    std::uint64_t hotBytes = 16u << 10; ///< Small, L1-resident set.
    /** Independent ALU ops per iteration (ILP the schemes keep). */
    unsigned independentWork = 0;
    std::uint64_t seed = 3;
};

/** Parameters for the branchy (control-dominated) kernel. */
struct BranchyParams
{
    /** Number of data-dependent (hard) branches per iteration. */
    unsigned hardBranches = 2;
    /** Number of loop-like (easy) branches per iteration. */
    unsigned easyBranches = 2;
    unsigned computePerBranch = 3;
    std::uint64_t footprintBytes = 256u << 10;
    /** Fraction of hard branches that test a loaded value. */
    double loadConditionFraction = 0.5;
    /**
     * Dependent ALU ops between a condition load and a trailing slow
     * branch each iteration: stretches the shadow so the taint roots
     * of the next iteration's conditions stay live, delaying tainted
     * mispredicting branches (longer wrong-path execution).
     */
    unsigned slowBranchChain = 0;
    std::uint64_t seed = 4;
};

/** Parameters for the store/forward (stack-churn) kernel. Each
 *  iteration starts with a slow branch on a side chain, which keeps
 *  the shadow open so the taints below stay live. */
struct StoreForwardParams
{
    std::uint64_t regionBytes = 4u << 10; ///< Tiny, forwarding-heavy.
    unsigned depth = 4;             ///< Push/pop nesting per iteration.
    unsigned computePerLevel = 2;
    /** Store data depends on loaded values (keeps stores tainted). */
    bool loadedData = true;
    /**
     * Dependent ALU ops between the pops and the value the slow
     * branch tests: stretches the shadow past the forwarding window
     * so the next iteration's pushes/pops run under it.
     */
    unsigned chainAfterPop = 8;
    /** Independent ALU ops per iteration (ILP the schemes keep). */
    unsigned independentWork = 8;
    std::uint64_t seed = 5;
};

/** Parameters for the hash-mix (irregular access) kernel. */
struct HashMixParams
{
    std::uint64_t footprintBytes = 4u << 20;
    unsigned probesPerIter = 2;
    unsigned computePerProbe = 3;
    double storeFraction = 0.3;     ///< Probes followed by a store.
    /** Fraction of probes followed by a slow branch on the value. */
    double slowBranchFraction = 0.6;
    /** Fraction of probes followed by a noisy branch on the value. */
    double noisyBranchFraction = 0.2;
    /**
     * Fraction of probes that dereference the loaded value as a
     * (sanitised) pointer. The second load's address is tainted
     * under STT, so it is a blocked transmitter while the first load
     * is speculative — the dominant STT cost in pointer-linked code.
     */
    double dependentLoadFraction = 0.5;
    std::uint64_t seed = 6;
};

Program makeStreamKernel(const StreamParams &p);
Program makePointerChaseKernel(const PointerChaseParams &p);
Program makeComputeChainKernel(const ComputeChainParams &p);
Program makeBranchyKernel(const BranchyParams &p);
Program makeStoreForwardKernel(const StoreForwardParams &p);
Program makeHashMixKernel(const HashMixParams &p);

} // namespace sb

#endif // SB_TRACE_KERNELS_HH
