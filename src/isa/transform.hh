/**
 * @file
 * Compiler-style software-mitigation passes over Program.
 *
 * The hardware roster (src/security/) closes Spectre channels in the
 * pipeline; this layer closes them the way deployed software does —
 * by rewriting the program. Three passes, mirroring the real tools:
 *
 *  - Slh: Speculative Load Hardening (LLVM's design). A poison mask
 *    is recomputed on every conditional-branch edge as a *data*
 *    function of the branch condition (exact Slt/Sltu compares, no
 *    control dependence), accumulated with OR, and folded into every
 *    load's address. On the architectural path the mask is 0 and the
 *    program is unchanged; on a mispredicted path the mask is all
 *    ones, the hardened address collapses to ~0 + offset, and the
 *    secret value never enters the pipeline.
 *  - Fence: conservative serialization. Every conditional branch is
 *    followed, on both edges, by an Op::Fence that stalls rename
 *    until the ROB drains, so no load issues under an unresolved
 *    bounds check.
 *  - Retpoline: every Op::JmpReg is lowered to Op::JmpRegRet plus a
 *    self-looping capture pad. The front end falls through into the
 *    pad instead of consulting the BTB, so an attacker-trained BTB
 *    entry can never steer transient execution (Spectre v2).
 *
 * Rewrites are *in place*: programs store code indices in data
 * memory (the v2 gadget's chase nodes, the generator's dispatch
 * tables), so original instructions must keep their PCs. A patched
 * instruction becomes a Jmp to a thunk appended after the original
 * code; the thunk re-emits the instruction (hardened) and jumps
 * back. TransformedProgram::originPc maps every PC of the rewritten
 * program to the original PC it stands for (or -1 for inserted
 * glue), so harnesses can compare committed-PC streams and attack
 * receivers can keep probe-PC arithmetic exact.
 */

#ifndef SB_ISA_TRANSFORM_HH
#define SB_ISA_TRANSFORM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace sb
{

/** Software mitigation applied to a Program before simulation. */
enum class Mitigation : std::uint8_t
{
    None,      ///< Identity: run the program as written.
    Slh,       ///< Speculative load hardening (mask-on-misspeculation).
    Fence,     ///< Speculation barrier on both edges of every branch.
    Retpoline, ///< BTB-starving lowering of indirect branches.
};

const char *mitigationName(Mitigation m);

/** Full roster, None first (grid sweeps iterate this). */
const std::vector<Mitigation> &allMitigations();

/**
 * The mitigation slice of a RunSpec. A struct (not a bare enum) so
 * future pass options (e.g. SLH value hardening) join the canonical
 * serialization in one place.
 */
struct MitigationConfig
{
    Mitigation kind = Mitigation::None;

    bool enabled() const { return kind != Mitigation::None; }

    /** Canonical piece for RunSpec::canonical(): "mitigation=slh". */
    std::string canonical() const;
};

/** What a pass did, for reports and structural tests. */
struct TransformStats
{
    unsigned hardenedLoads = 0;       ///< Loads rewritten with the mask.
    unsigned instrumentedBranches = 0; ///< Cond branches given thunks.
    unsigned fencesInserted = 0;
    unsigned loweredIndirects = 0;    ///< JmpReg -> JmpRegRet.
    /** Scratch registers claimed by SLH (invalidArchReg if unused). */
    ArchReg maskReg = invalidArchReg;
    ArchReg tmpReg = invalidArchReg;
    ArchReg zeroReg = invalidArchReg;
};

/** A rewritten program plus the PC provenance map. */
struct TransformedProgram
{
    Program program;
    /**
     * originPc[pc] = the original program's PC this instruction
     * stands for, or -1 for inserted glue (thunk jumps, mask
     * updates, fences, capture pads). Identity for PCs the pass
     * left untouched.
     */
    std::vector<std::int64_t> originPc;
    TransformStats stats;

    /** Origin of @p pc, or -1 if inserted / out of range. */
    std::int64_t
    origin(std::uint32_t pc) const
    {
        return pc < originPc.size() ? originPc[pc] : -1;
    }
};

/**
 * Apply @p m to @p prog. Mitigation::None returns an identity
 * transform (originPc[i] == i). SLH asserts that the program leaves
 * at least three architectural registers entirely unused (the mask,
 * scratch, and zero registers).
 */
TransformedProgram applyMitigation(Mitigation m, const Program &prog);

/**
 * SLH with the poison predicate knob exposed for tests. With
 * @p data_dependent_mask false the pass keeps the same shape but
 * derives the mask from control flow alone (each edge's pad asserts
 * "this edge is architectural" with an immediate 0) — exactly the
 * mistake SLH exists to avoid, since transient execution runs the
 * wrong pad. The closure tests prove the verifier still catches it.
 */
TransformedProgram applySlh(const Program &prog, bool data_dependent_mask);

} // namespace sb

#endif // SB_ISA_TRANSFORM_HH
