/**
 * @file
 * Decode cache keyed by static PC: each op's fetch classification.
 *
 * Fetch would otherwise re-derive, on every dynamic instance of a hot
 * loop body, which front-end path an op takes (fall through, TAGE,
 * static jump, BTB, halt). The program's code vector is immutable for
 * the life of a Core, so that is a pure function of the static PC —
 * this cache memoizes it in two bytes per op. Fetch fills the slab
 * record itself: a reset to DynInst{}, then the PC, the op and the
 * static prediction bit of the always-taken jumps. A table of
 * prebuilt DynInst templates would hold the same facts in 176 bytes
 * per op, which for a thousand-op program is most of what a Core
 * allocates.
 *
 * Entries are valid as long as the backing Program's code at that PC
 * is unchanged. Nothing mutates code while a Core runs it (mitigation
 * passes build a new Program), so there is no invalidation API;
 * attach() (re)sizes the table for a new program and drops every
 * entry.
 *
 * Hit/miss counters are owned here and published into CoreStats by
 * Core::syncEngineStats().
 */

#ifndef SB_CORE_DECODE_CACHE_HH
#define SB_CORE_DECODE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/program.hh"

namespace sb
{

/** Static fetch classification, precomputed per PC. */
enum class FetchKind : std::uint8_t
{
    Plain,      ///< Falls through; no front-end redirect.
    CondBranch, ///< Predicted by TAGE; may redirect.
    Jmp,        ///< Always taken to the static target.
    JmpReg,     ///< Always taken; target predicted through the BTB.
    Halt,       ///< Stops fetch.
};

/** One decoded static micro-op. */
struct DecodedOp
{
    FetchKind kind = FetchKind::Plain;
    bool valid = false;
};

/** Direct-mapped (one entry per static PC) decode cache. */
class DecodeCache
{
  public:
    /** Bind to @p prog: size the table to its code, drop all entries. */
    void
    attach(const Program &prog)
    {
        program = &prog;
        table.assign(prog.code.size(), DecodedOp{});
        hitCount = 0;
        missCount = 0;
    }

    /** Decoded entry for @p pc; built (a miss) on first touch. */
    const DecodedOp &
    lookup(std::uint32_t pc)
    {
        sb_assert(program && pc < table.size(),
                  "decode-cache lookup out of range");
        DecodedOp &d = table[pc];
        if (d.valid) {
            ++hitCount;
            return d;
        }
        ++missCount;
        build(d, pc);
        return d;
    }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    void
    build(DecodedOp &d, std::uint32_t pc)
    {
        const MicroOp &uop = program->code[pc];
        if (uop.isHalt()) {
            d.kind = FetchKind::Halt;
        } else if (uop.op == Op::JmpReg) {
            d.kind = FetchKind::JmpReg;
        } else if (uop.op == Op::Jmp) {
            d.kind = FetchKind::Jmp;
        } else if (uop.op == Op::JmpRegRet) {
            // Retpoline-style indirect: the front end deliberately
            // falls through (into the capture pad) and never consults
            // or trains the BTB; execute redirects to src1's value.
            d.kind = FetchKind::Plain;
        } else if (uop.isBranch()) {
            d.kind = FetchKind::CondBranch;
        } else {
            d.kind = FetchKind::Plain;
        }
        d.valid = true;
    }

    const Program *program = nullptr;
    std::vector<DecodedOp> table;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace sb

#endif // SB_CORE_DECODE_CACHE_HH
