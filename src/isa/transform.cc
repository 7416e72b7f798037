#include "isa/transform.hh"

#include <numeric>

#include "common/logging.hh"

namespace sb
{

const char *
mitigationName(Mitigation m)
{
    switch (m) {
      case Mitigation::None:
        return "none";
      case Mitigation::Slh:
        return "slh";
      case Mitigation::Fence:
        return "fence";
      case Mitigation::Retpoline:
        return "retpoline";
    }
    sb_panic("unknown mitigation");
}

const std::vector<Mitigation> &
allMitigations()
{
    static const std::vector<Mitigation> roster = {
        Mitigation::None,
        Mitigation::Slh,
        Mitigation::Fence,
        Mitigation::Retpoline,
    };
    return roster;
}

std::string
MitigationConfig::canonical() const
{
    return std::string("mitigation=") + mitigationName(kind);
}

namespace
{

/**
 * In-place patching scaffold: the output starts as a copy of the
 * input; patched slots become a Jmp into a thunk appended after the
 * original code, so every original PC keeps its meaning (programs
 * store code indices in data memory).
 */
struct Patcher
{
    explicit Patcher(const Program &in) : out(in)
    {
        origin.resize(in.code.size());
        std::iota(origin.begin(), origin.end(), std::int64_t(0));
    }

    /** Append one op as glue (@p orig -1) or as the relocated
     *  original instruction (@p orig = its old PC). */
    std::uint32_t
    emit(const MicroOp &uop, std::int64_t orig = -1)
    {
        out.code.push_back(uop);
        origin.push_back(orig);
        return static_cast<std::uint32_t>(out.code.size() - 1);
    }

    /** Replace slot @p pc with a jump to the next appended op. */
    void
    beginThunk(std::uint32_t pc)
    {
        MicroOp j;
        j.op = Op::Jmp;
        j.target = static_cast<std::uint32_t>(out.code.size());
        out.code[pc] = j;
        origin[pc] = -1;
    }

    std::uint32_t
    jmpTo(std::uint32_t target)
    {
        MicroOp j;
        j.op = Op::Jmp;
        j.target = target;
        return emit(j);
    }

    Program out;
    std::vector<std::int64_t> origin;
};

MicroOp
aluOp(Op op, ArchReg dst, ArchReg src1, ArchReg src2)
{
    MicroOp uop;
    uop.op = op;
    uop.dst = dst;
    uop.src1 = src1;
    uop.src2 = src2;
    return uop;
}

MicroOp
moviOp(ArchReg dst, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::MovImm;
    uop.dst = dst;
    uop.imm = imm;
    return uop;
}

MicroOp
addiOp(ArchReg dst, ArchReg src1, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::AddImm;
    uop.dst = dst;
    uop.src1 = src1;
    uop.imm = imm;
    return uop;
}

bool
isCondBranch(const MicroOp &uop)
{
    return uop.op == Op::Beq || uop.op == Op::Bne || uop.op == Op::Blt
           || uop.op == Op::Bge;
}

/** Scan for three architectural registers the program never names. */
bool
findScratchRegs(const Program &prog, ArchReg out[3])
{
    bool used[numArchRegs] = {};
    for (const MicroOp &uop : prog.code) {
        if (uop.hasDst() && uop.dst < numArchRegs)
            used[uop.dst] = true;
        if (uop.hasSrc1() && uop.src1 < numArchRegs)
            used[uop.src1] = true;
        if (uop.hasSrc2() && uop.src2 < numArchRegs)
            used[uop.src2] = true;
    }
    unsigned found = 0;
    for (ArchReg r = 0; r < numArchRegs && found < 3; ++r) {
        if (!used[r])
            out[found++] = r;
    }
    return found == 3;
}

TransformedProgram
identityTransform(const Program &prog)
{
    TransformedProgram t;
    t.program = prog;
    t.originPc.resize(prog.code.size());
    std::iota(t.originPc.begin(), t.originPc.end(), std::int64_t(0));
    return t;
}

/**
 * SLH. Every conditional branch is rewritten into a thunk that
 * computes the branch condition as a value (Slt/Sltu — exact, no
 * sign-bit tricks), re-emits the branch, and lands each edge on a
 * private pad that folds "was this edge architectural?" into the
 * poison mask as pure data:
 *
 *     B:  jmp  thunk                    ; was: beq s1, s2 -> T
 *   thunk: xor  tmp, s1, s2
 *          sltu tmp, zero, tmp          ; tmp = (s1 != s2)
 *          beq  s1, s2 -> taken_pad
 *          addi tmp, tmp, -1            ; fall pad: 0 iff fell correctly
 *          or   mask, mask, tmp
 *          jmp  B+1
 *   taken_pad:
 *          sub  tmp, zero, tmp          ; 0 iff taken correctly
 *          or   mask, mask, tmp
 *          jmp  T
 *
 * On the architectural path every pad contributes 0; on a transient
 * wrong path the mis-fetched pad computes all-ones. Every load then
 * ORs the mask into its address:
 *
 *     L:  jmp  thunk                    ; was: ld dst, base, imm
 *   thunk: or   tmp, base, mask
 *          ld   dst, tmp, imm
 *          jmp  L+1
 *
 * so a transient load collapses to address ~0 + imm and the secret
 * value never enters the pipeline. Each Halt gains an epilogue that
 * clears the scratch registers, keeping the architectural register
 * digest identical to the untransformed program.
 */
TransformedProgram
slhPass(const Program &prog, bool data_dependent_mask)
{
    bool any_branch = false;
    for (const MicroOp &uop : prog.code)
        any_branch = any_branch || isCondBranch(uop);
    if (!any_branch)
        return identityTransform(prog);

    ArchReg scratch[3];
    sb_assert(findScratchRegs(prog, scratch),
              "SLH needs 3 unused architectural registers in ",
              prog.name);
    const ArchReg mask = scratch[0];
    const ArchReg tmp = scratch[1];
    const ArchReg zero = scratch[2];

    Patcher p(prog);
    TransformStats st;
    st.maskReg = mask;
    st.tmpReg = tmp;
    st.zeroReg = zero;

    const std::uint32_t n = static_cast<std::uint32_t>(prog.code.size());
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        const MicroOp uop = prog.code[pc];
        if (isCondBranch(uop)) {
            p.beginThunk(pc);
            // tmp := condition-as-value. Beq/Bne key on (s1 != s2),
            // Blt/Bge on signed (s1 < s2).
            if (data_dependent_mask) {
                if (uop.op == Op::Beq || uop.op == Op::Bne) {
                    p.emit(aluOp(Op::Xor, tmp, uop.src1, uop.src2));
                    p.emit(aluOp(Op::Sltu, tmp, zero, tmp));
                } else {
                    p.emit(aluOp(Op::Slt, tmp, uop.src1, uop.src2));
                }
            } else {
                // Deliberately broken variant (tests only): the mask
                // is derived from control flow — each pad *assumes*
                // its edge is architectural. Transient execution is
                // exactly the condition under which that is false.
                p.emit(moviOp(tmp, 0));
            }
            // Does the taken edge correspond to tmp == 1?
            const bool taken_iff_tmp =
                uop.op == Op::Bne || uop.op == Op::Blt;
            MicroOp branch = uop;
            const std::uint32_t branch_at = p.emit(branch, pc);
            // Fall-through pad: poison = 0 iff this edge was correct.
            if (data_dependent_mask) {
                p.emit(taken_iff_tmp ? aluOp(Op::Sub, tmp, zero, tmp)
                                     : addiOp(tmp, tmp, -1));
            } else {
                p.emit(moviOp(tmp, 0));
            }
            p.emit(aluOp(Op::Or, mask, mask, tmp));
            p.jmpTo(pc + 1);
            // Taken pad.
            const std::uint32_t taken_pad =
                static_cast<std::uint32_t>(p.out.code.size());
            if (data_dependent_mask) {
                p.emit(taken_iff_tmp ? addiOp(tmp, tmp, -1)
                                     : aluOp(Op::Sub, tmp, zero, tmp));
            } else {
                p.emit(moviOp(tmp, 0));
            }
            p.emit(aluOp(Op::Or, mask, mask, tmp));
            p.jmpTo(uop.target);
            p.out.code[branch_at].target = taken_pad;
            ++st.instrumentedBranches;
        } else if (uop.isLoad()) {
            p.beginThunk(pc);
            p.emit(aluOp(Op::Or, tmp, uop.src1, mask));
            MicroOp hardened = uop;
            hardened.src1 = tmp;
            p.emit(hardened, pc);
            p.jmpTo(pc + 1);
            ++st.hardenedLoads;
        } else if (uop.isHalt()) {
            // Epilogue: restore the claimed registers to their
            // initial (zero) state so the register digest matches.
            p.beginThunk(pc);
            p.emit(moviOp(mask, 0));
            p.emit(moviOp(tmp, 0));
            p.emit(uop, pc);
        }
    }

    TransformedProgram t;
    t.program = std::move(p.out);
    t.originPc = std::move(p.origin);
    t.stats = st;
    return t;
}

/**
 * Conservative fencing: both edges of every conditional branch pass
 * through an Op::Fence before rejoining the original code, so
 * nothing issues under an unresolved (bounds-check) branch.
 */
TransformedProgram
fencePass(const Program &prog)
{
    Patcher p(prog);
    TransformStats st;

    const std::uint32_t n = static_cast<std::uint32_t>(prog.code.size());
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        const MicroOp uop = prog.code[pc];
        if (!isCondBranch(uop))
            continue;
        p.beginThunk(pc);
        MicroOp branch = uop;
        const std::uint32_t branch_at = p.emit(branch, pc);
        p.emit(MicroOp{Op::Fence});
        p.jmpTo(pc + 1);
        const std::uint32_t taken_pad =
            static_cast<std::uint32_t>(p.out.code.size());
        p.emit(MicroOp{Op::Fence});
        p.jmpTo(uop.target);
        p.out.code[branch_at].target = taken_pad;
        ++st.instrumentedBranches;
        st.fencesInserted += 2;
    }

    TransformedProgram t;
    t.program = std::move(p.out);
    t.originPc = std::move(p.origin);
    t.stats = st;
    return t;
}

/**
 * Retpoline lowering: each JmpReg becomes a JmpRegRet followed by a
 * self-looping capture pad. JmpRegRet never consults or trains the
 * BTB; the front end falls through into the pad and spins there
 * until execute redirects to the real target, so attacker-trained
 * BTB entries can never steer transient fetch.
 */
TransformedProgram
retpolinePass(const Program &prog)
{
    Patcher p(prog);
    TransformStats st;

    const std::uint32_t n = static_cast<std::uint32_t>(prog.code.size());
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        const MicroOp uop = prog.code[pc];
        if (uop.op != Op::JmpReg)
            continue;
        p.beginThunk(pc);
        MicroOp lowered = uop;
        lowered.op = Op::JmpRegRet;
        p.emit(lowered, pc);
        // Capture pad: fetch falls through to here and spins.
        const std::uint32_t pad =
            static_cast<std::uint32_t>(p.out.code.size());
        p.jmpTo(pad);
        ++st.loweredIndirects;
    }

    TransformedProgram t;
    t.program = std::move(p.out);
    t.originPc = std::move(p.origin);
    t.stats = st;
    return t;
}

} // anonymous namespace

TransformedProgram
applySlh(const Program &prog, bool data_dependent_mask)
{
    TransformedProgram t = slhPass(prog, data_dependent_mask);
    t.program.name = prog.name + "+slh";
    return t;
}

TransformedProgram
applyMitigation(Mitigation m, const Program &prog)
{
    TransformedProgram t;
    switch (m) {
      case Mitigation::None:
        return identityTransform(prog);
      case Mitigation::Slh:
        t = slhPass(prog, true);
        break;
      case Mitigation::Fence:
        t = fencePass(prog);
        break;
      case Mitigation::Retpoline:
        t = retpolinePass(prog);
        break;
    }
    t.program.name = prog.name + "+" + mitigationName(m);
    return t;
}

} // namespace sb
