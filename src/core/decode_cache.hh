/**
 * @file
 * Decoded-micro-op block cache keyed by static PC.
 *
 * Fetch used to redo the same work on every dynamic instance of a hot
 * loop body: classify the op, preset static prediction bits, fill the
 * identity fields of a fresh DynInst. The program's code vector is
 * immutable for the life of a Core, so all of that is a pure function
 * of the static PC — this cache memoizes it. A hit stamps one
 * prebuilt DynInst template into the slab record (a single struct
 * copy that also serves as the record reset) and dispatches fetch on
 * a precomputed FetchKind instead of re-deriving it from the op.
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
#include "core/dyn_inst.hh"
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
    /** Template record: identity fields and static prediction bits
     *  preset, everything else default — assigning it into a slab
     *  slot both resets and initializes the record. */
    DynInst tmpl;
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
        d.tmpl = DynInst{};
        d.tmpl.pc = pc;
        d.tmpl.uop = uop;
        if (uop.isHalt()) {
            d.kind = FetchKind::Halt;
        } else if (uop.op == Op::JmpReg) {
            d.kind = FetchKind::JmpReg;
            d.tmpl.predTaken = true;
        } else if (uop.op == Op::Jmp) {
            d.kind = FetchKind::Jmp;
            d.tmpl.predTaken = true;
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
