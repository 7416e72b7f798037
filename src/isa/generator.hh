/**
 * @file
 * Seeded random-program generator for differential conformance
 * testing.
 *
 * The generator builds *structured* programs — nested bounded loops,
 * if/else diamonds, indirect-jump dispatch tables, branches trained
 * to mispredict, and load/store clusters with deliberate aliasing
 * pressure — from a 64-bit seed and an op-mix profile. Every program
 * is guaranteed to terminate (all backward branches are counted
 * loops with data-independent trip counts; every data-dependent
 * branch is a bounded forward skip), every memory access is masked
 * into a private data region, and generation is bit-reproducible for
 * a (seed, profile) pair across hosts.
 *
 * The conformance harness (src/harness/conformance.hh) runs each
 * generated program under every secure scheme and demands
 * bit-identical architectural results against the Baseline.
 */

#ifndef SB_ISA_GENERATOR_HH
#define SB_ISA_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace sb
{

/**
 * Op-mix profile: which structural constructs and operation classes
 * dominate the generated program. Profiles stress different
 * scheme machinery: MemHeavy leans on forwarding/disambiguation and
 * DoM's miss handling, BranchHeavy on shadow tracking and squash
 * recovery, AluHeavy on taint propagation chains.
 */
enum class OpMixProfile : std::uint8_t
{
    Mixed,       ///< Balanced construct and op mix.
    AluHeavy,    ///< Long ALU/mul/div dependency chains.
    MemHeavy,    ///< Aliasing load/store clusters, forwarding pressure.
    BranchHeavy, ///< Diamonds, trained-to-mispredict skips, dispatch.
};

/** Printable profile name (the `sbsim fuzz --profile` vocabulary). */
const char *opMixProfileName(OpMixProfile profile);

/** Every profile, in declaration order. */
std::vector<OpMixProfile> allOpMixProfiles();

/** Shape of one generated program. */
struct GeneratorParams
{
    std::uint64_t seed = 1;
    OpMixProfile profile = OpMixProfile::Mixed;
    /** Outer-loop trips before halt (the program's dynamic length). */
    unsigned outerIterations = 32;
    /** Structured segments generated inside the loop body. */
    unsigned segments = 6;
    /** Power-of-two data region every access is masked into. */
    std::uint64_t memBytes = 4096;
    /** Power-of-two hot sub-region used by aliasing clusters. */
    std::uint64_t aliasBytes = 128;
};

/** Generate a program; deterministic in (@p seed, @p profile). */
Program generateProgram(const GeneratorParams &params);

/** First architectural register the generator mutates (r4..r15). */
constexpr ArchReg generatorFirstWorkReg = 4;
/** Last architectural register the generator mutates. */
constexpr ArchReg generatorLastWorkReg = 15;
/** Base address of the generated data region. */
constexpr Addr generatorMemBase = 1ULL << 23;
/** Base address of the read-only indirect-dispatch tables. */
constexpr Addr generatorTableBase = 1ULL << 20;

} // namespace sb

#endif // SB_ISA_GENERATOR_HH
