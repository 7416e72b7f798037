#include "isa/generator.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace sb
{

namespace
{

// Registers reserved for generator plumbing. Work registers
// (generatorFirstWorkReg..generatorLastWorkReg, r4..r15) are the only
// ones random ops write; everything below is initialised once in the
// prologue or owned by a single construct.
constexpr ArchReg regBase = 1;       ///< Data-region base address.
constexpr ArchReg regMask = 2;       ///< Full word-aligned offset mask.
constexpr ArchReg regAddr = 3;       ///< Scratch for sanitised addresses.
constexpr ArchReg regAliasMask = 16; ///< Narrow mask (hot sub-region).
constexpr ArchReg regLfsr = 17;      ///< Mispredict source, churned per trip.
constexpr ArchReg regInnerCnt = 18;
constexpr ArchReg regInnerLim = 19;
constexpr ArchReg regOuterCnt = 20;
constexpr ArchReg regOuterLim = 21;
constexpr ArchReg regOne = 22;
constexpr ArchReg regTable = 23;     ///< Dispatch-table base address.
constexpr ArchReg regThree = 24;     ///< Mask 3 and word-shift 3.
constexpr ArchReg regCond = 25;      ///< Scratch for branch conditions.
constexpr ArchReg regZero = 26;
constexpr ArchReg regSeven = 27;
constexpr ArchReg regLfsrMul = 28;   ///< Odd multiplier for the churn.
constexpr ArchReg regAddr2 = 29;     ///< Second address scratch.

/** Structural constructs the loop body is assembled from. */
enum class Construct : unsigned
{
    AluBlock,       ///< Straight-line dependency chains.
    Diamond,        ///< Data-dependent if/else, both arms real.
    InnerLoop,      ///< Bounded counted loop (data-independent trips).
    MispredictSkip, ///< Forward skip steered by the per-trip LFSR bit.
    AliasCluster,   ///< Store/load pairs in the narrow hot region.
    WideMem,        ///< Loads/stores over the whole data region.
    Dispatch,       ///< Indirect-jump switch through a memory table.
    NumConstructs,
};

constexpr unsigned numConstructs =
    static_cast<unsigned>(Construct::NumConstructs);

/** Per-profile construct weights, indexed by Construct. */
struct ProfileWeights
{
    unsigned construct[numConstructs];
    /** Relative weight of mul/div/fp inside ALU picks (percent). */
    unsigned heavyAluPercent;
};

ProfileWeights
weightsFor(OpMixProfile profile)
{
    switch (profile) {
      case OpMixProfile::Mixed:
        return {{25, 15, 10, 10, 15, 15, 10}, 20};
      case OpMixProfile::AluHeavy:
        return {{55, 10, 10, 5, 5, 10, 5}, 40};
      case OpMixProfile::MemHeavy:
        return {{10, 5, 10, 5, 40, 25, 5}, 10};
      case OpMixProfile::BranchHeavy:
        return {{10, 25, 15, 25, 5, 5, 15}, 15};
    }
    sb_panic("unknown op-mix profile");
}

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Everything one generation run threads through its emitters. */
struct GenState
{
    ProgramBuilder b;
    Rng rng;
    ProfileWeights weights;
    /** Dispatch tables to patch into the image after code is final:
     *  (table byte offset, the four case code indices). */
    std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>
        tables;
    std::uint64_t nextTableOffset = 0;

    explicit GenState(const GeneratorParams &p)
        : rng(p.seed), weights(weightsFor(p.profile))
    {
    }

    ArchReg
    workReg()
    {
        return generatorFirstWorkReg
               + static_cast<ArchReg>(rng.below(
                     generatorLastWorkReg - generatorFirstWorkReg + 1));
    }
};

/** One random register-to-register op (no memory, no branches). */
void
emitAluOp(GenState &g)
{
    const ArchReg d = g.workReg();
    const ArchReg s1 = g.workReg();
    const ArchReg s2 = g.workReg();
    if (g.rng.below(100) < g.weights.heavyAluPercent) {
        switch (g.rng.below(5)) {
          case 0:
            g.b.mul(d, s1, s2);
            return;
          case 1:
            g.b.div(d, s1, s2); // Zero divisor yields all-ones: defined.
            return;
          case 2:
            g.b.fadd(d, s1, s2);
            return;
          case 3:
            g.b.fmul(d, s1, s2);
            return;
          default:
            g.b.fdiv(d, s1, s2);
            return;
        }
    }
    switch (g.rng.below(7)) {
      case 0:
        g.b.add(d, s1, s2);
        return;
      case 1:
        g.b.sub(d, s1, s2);
        return;
      case 2:
        g.b.xor_(d, s1, s2);
        return;
      case 3:
        g.b.or_(d, s1, s2);
        return;
      case 4:
        g.b.and_(d, s1, s2);
        return;
      case 5:
        g.b.shl(d, s1, regThree);
        return;
      default:
        g.b.shr(d, s1, regSeven);
        return;
    }
}

/** Sanitise @p src into a valid data-region address in @p into. */
void
emitSanitise(GenState &g, ArchReg into, ArchReg src, ArchReg mask)
{
    g.b.and_(into, src, mask);
    g.b.or_(into, into, regBase);
}

void
emitAluBlock(GenState &g)
{
    const unsigned n = 3 + static_cast<unsigned>(g.rng.below(6));
    for (unsigned i = 0; i < n; ++i)
        emitAluOp(g);
}

void
emitDiamond(GenState &g)
{
    // cond = work & 7; usually nonzero, so the else arm trains
    // "taken" with data-dependent exceptions.
    g.b.and_(regCond, g.workReg(), regSeven);
    const auto else_arm = g.b.futureLabel();
    const auto join = g.b.futureLabel();
    g.b.beq(regCond, regZero, else_arm);
    const unsigned then_ops = 1 + static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < then_ops; ++i)
        emitAluOp(g);
    g.b.jmp(join);
    g.b.bind(else_arm);
    const unsigned else_ops = 1 + static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < else_ops; ++i)
        emitAluOp(g);
    g.b.bind(join);
}

void
emitInnerLoop(GenState &g)
{
    // Trip count is a generation-time constant, so the loop is
    // bounded whatever values flow through the work registers.
    const unsigned trips = 2 + static_cast<unsigned>(g.rng.below(3));
    g.b.movi(regInnerCnt, 0);
    g.b.movi(regInnerLim, trips);
    const auto top = g.b.here();
    const unsigned body = 2 + static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < body; ++i) {
        if (g.rng.chance(0.3)) {
            emitSanitise(g, regAddr, g.workReg(), regMask);
            if (g.rng.chance(0.5))
                g.b.load(g.workReg(), regAddr, 0);
            else
                g.b.store(regAddr, g.workReg(), 0);
        } else {
            emitAluOp(g);
        }
    }
    g.b.addi(regInnerCnt, regInnerCnt, 1);
    g.b.blt(regInnerCnt, regInnerLim, top);
}

void
emitMispredictSkip(GenState &g)
{
    // The LFSR register is churned once per outer trip, so this
    // branch's direction is a pseudo-random per-iteration bit: TAGE
    // keeps mispredicting it, which keeps C-shadows open and squash
    // recovery busy.
    g.b.and_(regCond, regLfsr, regOne);
    const auto skip = g.b.futureLabel();
    g.b.bne(regCond, regZero, skip);
    const unsigned body = 1 + static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < body; ++i)
        emitAluOp(g);
    g.b.bind(skip);
}

void
emitAliasCluster(GenState &g)
{
    // Forced store-to-load forward: the load reads through the same
    // (unredefined) address register the store wrote through.
    emitSanitise(g, regAddr, g.workReg(), regAliasMask);
    g.b.store(regAddr, g.workReg(), 0);
    const unsigned filler = static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < filler; ++i)
        emitAluOp(g);
    g.b.load(g.workReg(), regAddr, 0);

    // Slow-address store followed by a younger load in the same
    // narrow region: the load usually bypasses the unknown-address
    // store (optimistic disambiguation) and sometimes collides,
    // forcing a memory-order violation flush.
    g.b.mul(regCond, g.workReg(), regLfsrMul);
    emitSanitise(g, regAddr, regCond, regAliasMask);
    g.b.store(regAddr, g.workReg(), 0);
    emitSanitise(g, regAddr2, g.workReg(), regAliasMask);
    g.b.load(g.workReg(), regAddr2, 0);
}

void
emitWideMem(GenState &g)
{
    const unsigned n = 2 + static_cast<unsigned>(g.rng.below(3));
    for (unsigned i = 0; i < n; ++i) {
        emitSanitise(g, regAddr, g.workReg(), regMask);
        if (g.rng.chance(0.6))
            g.b.load(g.workReg(), regAddr, 0);
        else
            g.b.store(regAddr, g.workReg(), 0);
    }
}

void
emitDispatch(GenState &g)
{
    // Four-way switch through an indirect jump: the target is loaded
    // from a read-only table outside the store-reachable data region,
    // so every committed jr lands on one of the recorded case labels.
    constexpr unsigned cases = 4;
    const std::uint64_t table_off = g.nextTableOffset;
    g.nextTableOffset += cases * 8;

    g.b.and_(regCond, g.workReg(), regThree);
    g.b.shl(regCond, regCond, regThree);
    g.b.add(regCond, regCond, regTable);
    g.b.load(regCond, regCond,
             static_cast<std::int64_t>(table_off));
    g.b.jr(regCond);

    const auto join = g.b.futureLabel();
    std::vector<std::uint32_t> case_entries;
    for (unsigned c = 0; c < cases; ++c) {
        case_entries.push_back(g.b.here());
        const unsigned ops = 1 + static_cast<unsigned>(g.rng.below(2));
        for (unsigned i = 0; i < ops; ++i)
            emitAluOp(g);
        g.b.jmp(join);
    }
    g.b.bind(join);
    g.tables.emplace_back(table_off, std::move(case_entries));
}

void
emitConstruct(GenState &g)
{
    unsigned total = 0;
    for (unsigned w : g.weights.construct)
        total += w;
    std::uint64_t roll = g.rng.below(total);
    unsigned pick = 0;
    while (roll >= g.weights.construct[pick]) {
        roll -= g.weights.construct[pick];
        ++pick;
    }
    switch (static_cast<Construct>(pick)) {
      case Construct::AluBlock:
        emitAluBlock(g);
        return;
      case Construct::Diamond:
        emitDiamond(g);
        return;
      case Construct::InnerLoop:
        emitInnerLoop(g);
        return;
      case Construct::MispredictSkip:
        emitMispredictSkip(g);
        return;
      case Construct::AliasCluster:
        emitAliasCluster(g);
        return;
      case Construct::WideMem:
        emitWideMem(g);
        return;
      case Construct::Dispatch:
        emitDispatch(g);
        return;
      case Construct::NumConstructs:
        break;
    }
    sb_panic("construct pick out of range");
}

} // anonymous namespace

const char *
opMixProfileName(OpMixProfile profile)
{
    switch (profile) {
      case OpMixProfile::Mixed:
        return "mixed";
      case OpMixProfile::AluHeavy:
        return "alu";
      case OpMixProfile::MemHeavy:
        return "mem";
      case OpMixProfile::BranchHeavy:
        return "branch";
    }
    sb_panic("unknown op-mix profile");
}

std::vector<OpMixProfile>
allOpMixProfiles()
{
    return {OpMixProfile::Mixed, OpMixProfile::AluHeavy,
            OpMixProfile::MemHeavy, OpMixProfile::BranchHeavy};
}

Program
generateProgram(const GeneratorParams &p)
{
    sb_assert(isPow2(p.memBytes) && p.memBytes >= 64,
              "memBytes must be a power of two >= 64");
    sb_assert(isPow2(p.aliasBytes) && p.aliasBytes >= 16
                  && p.aliasBytes <= p.memBytes,
              "aliasBytes must be a power of two in [16, memBytes]");
    sb_assert(p.outerIterations >= 1, "program must iterate");
    sb_assert(p.segments >= 1, "program needs at least one segment");
    sb_assert(p.memBytes <= generatorTableBase,
              "data region must not reach the dispatch tables");

    GenState g(p);

    // --- Prologue: plumbing registers and seeded work values ---------
    g.b.movi(regBase, static_cast<std::int64_t>(generatorMemBase));
    g.b.movi(regMask,
             static_cast<std::int64_t>((p.memBytes - 1)
                                       & ~std::uint64_t(7)));
    g.b.movi(regAliasMask,
             static_cast<std::int64_t>((p.aliasBytes - 1)
                                       & ~std::uint64_t(7)));
    g.b.movi(regTable, static_cast<std::int64_t>(generatorTableBase));
    g.b.movi(regOuterCnt, 0);
    g.b.movi(regOuterLim, p.outerIterations);
    g.b.movi(regOne, 1);
    g.b.movi(regZero, 0);
    g.b.movi(regThree, 3);
    g.b.movi(regSeven, 7);
    g.b.movi(regLfsrMul, 0x5851f42d4c957f2dLL); // Odd (PCG multiplier).
    g.b.movi(regLfsr, static_cast<std::int64_t>(g.rng.next() | 1));
    for (ArchReg r = generatorFirstWorkReg; r <= generatorLastWorkReg;
         ++r) {
        g.b.movi(r, static_cast<std::int64_t>(g.rng.next() >> 8));
    }

    // Seed the head of the data region so early loads read varied
    // explicit values (the rest reads the deterministic background).
    for (unsigned w = 0; w < 32 && w * 8 < p.memBytes; ++w)
        g.b.memory().write(generatorMemBase + w * 8, g.rng.next());

    // Secret-label the top half of the data region: every generated
    // access is masked into [base, base + memBytes), so random loads
    // regularly pull secret-labelled words through the pipeline and
    // the contract shadow engine gets organic coverage of every
    // scheme's declared contract for free.
    g.b.markSecret(generatorMemBase + p.memBytes / 2, p.memBytes / 2);

    // --- Outer loop: the structured body, then the LFSR churn --------
    const auto loop = g.b.here();
    for (unsigned s = 0; s < p.segments; ++s)
        emitConstruct(g);
    g.b.mul(regLfsr, regLfsr, regLfsrMul);
    g.b.add(regLfsr, regLfsr, regOuterCnt);
    g.b.addi(regOuterCnt, regOuterCnt, 1);
    g.b.blt(regOuterCnt, regOuterLim, loop);
    g.b.halt();

    // --- Patch the dispatch tables now the case indices are final ----
    for (const auto &table : g.tables) {
        for (std::size_t c = 0; c < table.second.size(); ++c) {
            g.b.memory().write(generatorTableBase + table.first + c * 8,
                               table.second[c]);
        }
    }

    std::string name = "gen-";
    name += opMixProfileName(p.profile);
    name += "-" + std::to_string(p.seed);
    return g.b.build(std::move(name));
}

} // namespace sb
