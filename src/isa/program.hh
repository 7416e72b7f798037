/**
 * @file
 * Program representation and assembler-style builder.
 *
 * A Program is a flat vector of micro-ops (the "PC" is an index into
 * the vector) plus an initial memory image. Uninitialised memory
 * reads return a deterministic per-address hash so large footprints
 * need no explicit initialisation.
 */

#ifndef SB_ISA_PROGRAM_HH
#define SB_ISA_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/paged_words.hh"
#include "common/types.hh"
#include "common/word_table.hh"
#include "isa/microop.hh"

namespace sb
{

/**
 * Sparse functional memory image. Word-granular (8 bytes), addresses
 * are rounded down to the containing word.
 *
 * Copy-on-write: ProgramBuilder::build() freezes the writes it logged
 * into a read-only base (a PagedWords, common/paged_words.hh) that
 * every copy shares, so copying a Program, a Workload or the image
 * itself (each Core's working memory) costs only the private write
 * layer on top (a WordTable, common/word_table.hh), which is empty
 * straight after a build. Writes land in that layer alone; reads look
 * in it first, then in the base. size() and fingerprint() cover the
 * union, the write layer shadowing the base, so they equal those of
 * one flat image given the same writes.
 */
class MemoryImage
{
  public:
    /** Write one 64-bit word. */
    void write(Addr addr, Word value);

    /** Size the write layer so that @p words more writes to new
     *  addresses fit without growing it. */
    void reserve(std::size_t words);

    /** Read one word; uninitialised locations yield hash(addr). */
    Word read(Addr addr) const;

    /** True if the word was explicitly written. */
    bool contains(Addr addr) const;

    std::size_t
    size() const
    {
        return (base ? base->size() : 0) + top.size() - shadowed;
    }

    /**
     * Order-independent content hash over every explicitly written
     * (address, word) pair. Two images with the same committed writes
     * fingerprint identically whatever order the writes landed in —
     * the architectural-memory half of the conformance oracle
     * (src/harness/conformance.hh).
     */
    Word fingerprint() const;

    /** Deterministic background value for untouched memory. */
    static Word backgroundValue(Addr addr);

  private:
    friend class ProgramBuilder;

    static Addr align(Addr addr) { return addr & ~Addr(7); }

    std::shared_ptr<const PagedWords> base; ///< Shared by every copy.
    WordTable top;                          ///< This copy's own writes.
    std::size_t shadowed = 0; ///< Entries of `top` also in `base`.
};

/**
 * A byte range of the initial memory image holding secret data. The
 * contract shadow engine (src/core/contract_shadow.hh) seeds its
 * memory labels from these regions and propagates them taint-style
 * alongside values; everything outside is public.
 */
struct SecretRegion
{
    Addr base = 0;
    std::uint64_t bytes = 0;
    /** Protection domain that owns this secret. The contract shadow
     *  threads the owner through its labels, so a transmit of secret
     *  data inside a *different* tenant's instruction stream is
     *  distinguishable as a cross-tenant violation. */
    TenantId tenant = 0;
};

/**
 * A context-switch point: when the instruction at @p pc commits, the
 * core switches to protection domain @p to — architectural registers
 * are banked out/in, every in-flight younger instruction is squashed,
 * and predictor state is flushed or kept per
 * CoreConfig::flushPredictorsOnSwitch.
 */
struct SwitchPoint
{
    std::uint32_t pc = 0;
    TenantId to = 0;
};

/** First-dispatch entry point of one tenant's instruction stream. */
struct TenantEntry
{
    TenantId tenant = 0;
    std::uint32_t pc = 0;
};

/** A complete runnable program: code, entry point, and initial memory. */
struct Program
{
    std::vector<MicroOp> code;
    std::uint32_t entry = 0;
    MemoryImage memory;
    std::string name = "program";

    /** Byte ranges of `memory` holding secret-labelled data. */
    std::vector<SecretRegion> secretRegions;

    /** Commit-time context-switch markers (empty = single-tenant). */
    std::vector<SwitchPoint> switchPoints;

    /** Where each tenant's stream starts the first time it is
     *  scheduled (tenants absent here start at the switch target's
     *  fall-through; tenant 0 starts at `entry`). */
    std::vector<TenantEntry> tenantEntries;

    std::size_t size() const { return code.size(); }

    /** Disassemble the whole program, one op per line. */
    std::string disassemble() const;
};

/**
 * Builder with labels and backpatching. Typical use:
 * @code
 *   ProgramBuilder b;
 *   b.movi(1, 0);
 *   auto loop = b.here();
 *   b.addi(1, 1, 1);
 *   b.blt(1, 2, loop);
 *   Program p = b.build();
 * @endcode
 */
class ProgramBuilder
{
  public:
    using Label = std::uint32_t;

    /** Current position (for backward branches). */
    Label here() const { return code.size(); }

    /** Create an unbound label for a forward branch. */
    Label futureLabel();

    /** Bind a future label to the current position. */
    void bind(Label label);

    // --- Instruction emitters (return the op's code index) -----------
    std::uint32_t nop();
    std::uint32_t movi(ArchReg dst, std::int64_t imm);
    std::uint32_t add(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t addi(ArchReg dst, ArchReg src1, std::int64_t imm);
    std::uint32_t sub(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t and_(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t or_(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t xor_(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t shl(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t shr(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t mul(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t div(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t slt(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t sltu(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t fadd(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t fmul(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t fdiv(ArchReg dst, ArchReg src1, ArchReg src2);
    std::uint32_t load(ArchReg dst, ArchReg base, std::int64_t offset);
    std::uint32_t store(ArchReg base, ArchReg data, std::int64_t offset);
    std::uint32_t beq(ArchReg src1, ArchReg src2, Label target);
    std::uint32_t bne(ArchReg src1, ArchReg src2, Label target);
    std::uint32_t blt(ArchReg src1, ArchReg src2, Label target);
    std::uint32_t bge(ArchReg src1, ArchReg src2, Label target);
    std::uint32_t jmp(Label target);
    std::uint32_t jr(ArchReg target_reg); ///< Indirect jump via register.
    std::uint32_t jrr(ArchReg target_reg); ///< BTB-free indirect (retpoline).
    std::uint32_t fence(); ///< Speculation barrier (drains the ROB).
    std::uint32_t halt();

    /** The memory image being built: it takes writes, not reads;
     *  build() freezes it into the built image's shared base. */
    PagedWords::Builder &memory() { return mem; }

    /** Annotate a byte range of the initial image as secret-labelled
     *  (word-granular; the range is widened to 8-byte alignment),
     *  owned by tenant @p owner. */
    void markSecret(Addr base, std::uint64_t bytes, TenantId owner = 0);

    /** Record the current position as tenant @p t's entry point. */
    void tenantEntry(TenantId t);

    /**
     * Emit a context-switch marker (a nop): when it commits, the core
     * switches to tenant @p to. Returns the marker's code index.
     */
    std::uint32_t switchTenant(TenantId to);

    /** Finalise: checks all labels bound and targets in range. */
    Program build(std::string name = "program");

  private:
    std::uint32_t emit(MicroOp uop);
    std::uint32_t emitBranch(Op op, ArchReg src1, ArchReg src2,
                             Label target);

    static constexpr std::uint32_t unboundBase = 0x80000000u;

    std::vector<MicroOp> code;
    std::vector<std::int64_t> futureTargets; ///< -1 until bound.
    PagedWords::Builder mem;
    std::vector<SecretRegion> secrets;
    std::vector<SwitchPoint> switches;
    std::vector<TenantEntry> tenantStarts;
};

} // namespace sb

#endif // SB_ISA_PROGRAM_HH
