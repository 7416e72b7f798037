/**
 * @file
 * The simulated micro-op ISA.
 *
 * A small RISC-V-flavoured micro-op set with full functional semantics:
 * enough to write real kernels (array sweeps, pointer chases, hash
 * loops, Spectre gadgets) whose branch outcomes and memory addresses
 * are computed from data, not scripted. Stores are a single micro-op
 * with separate address and data operands so the core can model BOOM's
 * partial store issue (paper Sec. 9.2).
 */

#ifndef SB_ISA_MICROOP_HH
#define SB_ISA_MICROOP_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace sb
{

/** Functional operation of a micro-op. */
enum class Op : std::uint8_t
{
    Nop,
    MovImm,  ///< dst = imm
    Add,     ///< dst = src1 + src2
    AddImm,  ///< dst = src1 + imm
    Sub,
    And,
    Or,
    Xor,
    Shl,     ///< dst = src1 << (src2 & 63)
    Shr,     ///< dst = src1 >> (src2 & 63)
    Mul,
    Div,     ///< dst = src1 / src2 (0 divisor yields all-ones)
    FAdd,    ///< modelled on the integer datapath with FP latency
    FMul,
    FDiv,
    Load,    ///< dst = mem[src1 + imm]
    Store,   ///< mem[src1 + imm] = src2 (src1: address, src2: data)
    Beq,     ///< branch to target if src1 == src2
    Bne,
    Blt,     ///< signed less-than
    Bge,
    Jmp,     ///< unconditional branch to target
    JmpReg,  ///< indirect branch: jump to the address held in src1
    Halt,    ///< stop the program (drains and ends simulation)
    // Appended after Halt so pre-existing encodings stay stable.
    Slt,     ///< dst = (signed) src1 < src2 ? 1 : 0
    Sltu,    ///< dst = (unsigned) src1 < src2 ? 1 : 0
    Fence,   ///< speculation barrier: rename stalls until the ROB drains
    JmpRegRet, ///< indirect branch that never touches the BTB: the
               ///< front end falls through (retpoline capture pad)
               ///< while execute redirects to the value in src1
};

/** Scheduling class of an operation (selects latency and ports). */
enum class OpClass : std::uint8_t
{
    Nop,
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    MemRead,
    MemWrite,
    Branch,
};

/** Scheduling class of each Op, indexed by its encoding. */
inline constexpr std::array<OpClass,
                            static_cast<std::size_t>(Op::JmpRegRet) + 1>
    opClassTable = {
        OpClass::Nop,      // Nop
        OpClass::IntAlu,   // MovImm
        OpClass::IntAlu,   // Add
        OpClass::IntAlu,   // AddImm
        OpClass::IntAlu,   // Sub
        OpClass::IntAlu,   // And
        OpClass::IntAlu,   // Or
        OpClass::IntAlu,   // Xor
        OpClass::IntAlu,   // Shl
        OpClass::IntAlu,   // Shr
        OpClass::IntMul,   // Mul
        OpClass::IntDiv,   // Div
        OpClass::FpAlu,    // FAdd
        OpClass::FpMul,    // FMul
        OpClass::FpDiv,    // FDiv
        OpClass::MemRead,  // Load
        OpClass::MemWrite, // Store
        OpClass::Branch,   // Beq
        OpClass::Branch,   // Bne
        OpClass::Branch,   // Blt
        OpClass::Branch,   // Bge
        OpClass::Branch,   // Jmp
        OpClass::Branch,   // JmpReg
        OpClass::Nop,      // Halt
        OpClass::IntAlu,   // Slt
        OpClass::IntAlu,   // Sltu
        OpClass::Nop,      // Fence
        OpClass::Branch,   // JmpRegRet
};

/** A single static micro-op. */
struct MicroOp
{
    Op op = Op::Nop;
    ArchReg dst = invalidArchReg;
    ArchReg src1 = invalidArchReg;
    ArchReg src2 = invalidArchReg;
    std::int64_t imm = 0;
    /** Branch target (code index). Unused by JmpReg, whose target is
     *  the runtime value of src1 (predicted through the BTB). */
    std::uint32_t target = 0;

    /** Scheduling class for this op. */
    OpClass
    opClass() const
    {
        return opClassTable[static_cast<std::size_t>(op)];
    }

    bool isLoad() const { return op == Op::Load; }
    bool isStore() const { return op == Op::Store; }
    bool isBranch() const { return opClass() == OpClass::Branch; }
    bool isHalt() const { return op == Op::Halt; }
    /** Indirect branches: target is the runtime value of src1. */
    bool
    isIndirect() const
    {
        return op == Op::JmpReg || op == Op::JmpRegRet;
    }
    bool hasDst() const { return dst != invalidArchReg; }
    bool hasSrc1() const { return src1 != invalidArchReg; }
    bool hasSrc2() const { return src2 != invalidArchReg; }

    /**
     * Transmitter classification per STT (Sec. 3.1): an instruction
     * whose execution has an observable, operand-dependent effect.
     * Loads and stores transmit through their address; branches
     * through their direction.
     */
    bool
    isTransmitter() const
    {
        return isLoad() || isStore() || isBranch();
    }

    /** Human-readable disassembly. */
    std::string disassemble() const;
};

/** Evaluate the functional result of a non-memory, non-branch op. */
Word evalAlu(const MicroOp &uop, Word src1, Word src2);

/** Evaluate a branch condition. */
bool evalBranch(const MicroOp &uop, Word src1, Word src2);

} // namespace sb

#endif // SB_ISA_MICROOP_HH
