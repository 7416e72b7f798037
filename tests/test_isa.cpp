/**
 * @file
 * Unit tests for src/isa: micro-op semantics, transmitter
 * classification, program builder, and the memory image.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "isa/microop.hh"
#include "isa/program.hh"

namespace
{

sb::MicroOp
op3(sb::Op op)
{
    sb::MicroOp u;
    u.op = op;
    u.dst = 1;
    u.src1 = 2;
    u.src2 = 3;
    return u;
}

TEST(MicroOp, AluSemantics)
{
    using sb::Op;
    EXPECT_EQ(sb::evalAlu(op3(Op::Add), 5, 7), 12u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Sub), 5, 7),
              static_cast<sb::Word>(-2));
    EXPECT_EQ(sb::evalAlu(op3(Op::And), 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Or), 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Xor), 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Shl), 1, 4), 16u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Shr), 16, 4), 1u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Mul), 6, 7), 42u);
    EXPECT_EQ(sb::evalAlu(op3(Op::Div), 42, 6), 7u);
}

TEST(MicroOp, DivisionByZeroYieldsAllOnes)
{
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Div), 42, 0), ~sb::Word(0));
}

TEST(MicroOp, ShiftAmountsAreMasked)
{
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Shl), 1, 64), 1u);
    EXPECT_EQ(sb::evalAlu(op3(sb::Op::Shl), 1, 65), 2u);
}

TEST(MicroOp, MovImmUsesImmediate)
{
    sb::MicroOp u;
    u.op = sb::Op::MovImm;
    u.dst = 1;
    u.imm = -9;
    EXPECT_EQ(sb::evalAlu(u, 0, 0), static_cast<sb::Word>(-9));
}

TEST(MicroOp, BranchSemantics)
{
    using sb::Op;
    EXPECT_TRUE(sb::evalBranch(op3(Op::Beq), 4, 4));
    EXPECT_FALSE(sb::evalBranch(op3(Op::Beq), 4, 5));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Bne), 4, 5));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Blt),
                               static_cast<sb::Word>(-1), 0));
    EXPECT_FALSE(sb::evalBranch(op3(Op::Blt), 0,
                                static_cast<sb::Word>(-1)));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Bge), 3, 3));
    EXPECT_TRUE(sb::evalBranch(op3(Op::Jmp), 0, 0));
}

TEST(MicroOp, TransmitterClassification)
{
    // Paper Sec. 3.1: loads, stores (addresses) and branches are
    // transmitters; plain arithmetic is invisible.
    EXPECT_TRUE(op3(sb::Op::Load).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Store).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Beq).isTransmitter());
    EXPECT_TRUE(op3(sb::Op::Jmp).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::Add).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::Mul).isTransmitter());
    EXPECT_FALSE(op3(sb::Op::FDiv).isTransmitter());
}

TEST(MicroOp, OpClassMapping)
{
    EXPECT_EQ(op3(sb::Op::Add).opClass(), sb::OpClass::IntAlu);
    EXPECT_EQ(op3(sb::Op::Mul).opClass(), sb::OpClass::IntMul);
    EXPECT_EQ(op3(sb::Op::Div).opClass(), sb::OpClass::IntDiv);
    EXPECT_EQ(op3(sb::Op::FAdd).opClass(), sb::OpClass::FpAlu);
    EXPECT_EQ(op3(sb::Op::FDiv).opClass(), sb::OpClass::FpDiv);
    EXPECT_EQ(op3(sb::Op::Load).opClass(), sb::OpClass::MemRead);
    EXPECT_EQ(op3(sb::Op::Store).opClass(), sb::OpClass::MemWrite);
    EXPECT_EQ(op3(sb::Op::Beq).opClass(), sb::OpClass::Branch);

    // Every remaining op (isBranch() is opClass() == Branch).
    using sb::Op;
    using sb::OpClass;
    const std::pair<Op, OpClass> rest[] = {
        {Op::Nop, OpClass::Nop},        {Op::Halt, OpClass::Nop},
        {Op::Fence, OpClass::Nop},      {Op::MovImm, OpClass::IntAlu},
        {Op::AddImm, OpClass::IntAlu},  {Op::Sub, OpClass::IntAlu},
        {Op::And, OpClass::IntAlu},     {Op::Or, OpClass::IntAlu},
        {Op::Xor, OpClass::IntAlu},     {Op::Shl, OpClass::IntAlu},
        {Op::Shr, OpClass::IntAlu},     {Op::Slt, OpClass::IntAlu},
        {Op::Sltu, OpClass::IntAlu},    {Op::FMul, OpClass::FpMul},
        {Op::Bne, OpClass::Branch},     {Op::Blt, OpClass::Branch},
        {Op::Bge, OpClass::Branch},     {Op::Jmp, OpClass::Branch},
        {Op::JmpReg, OpClass::Branch},  {Op::JmpRegRet, OpClass::Branch},
    };
    for (const auto &[op, cls] : rest)
        EXPECT_EQ(op3(op).opClass(), cls) << static_cast<int>(op);
}

TEST(MicroOp, DisassembleMentionsOpcode)
{
    EXPECT_NE(op3(sb::Op::Add).disassemble().find("add"),
              std::string::npos);
    EXPECT_NE(op3(sb::Op::Load).disassemble().find("ld"),
              std::string::npos);
}

TEST(MemoryImage, WriteReadRoundTrip)
{
    sb::MemoryImage mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1000), 42u);
    EXPECT_TRUE(mem.contains(0x1000));
    EXPECT_FALSE(mem.contains(0x2000));
}

TEST(MemoryImage, SubWordAddressesAlias)
{
    sb::MemoryImage mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1003), 42u); // Same 8-byte word.
    mem.write(0x1007, 7);
    EXPECT_EQ(mem.read(0x1000), 7u);
}

TEST(MemoryImage, BackgroundIsDeterministicAndVaried)
{
    sb::MemoryImage a;
    sb::MemoryImage b;
    EXPECT_EQ(a.read(0x5000), b.read(0x5000));
    EXPECT_NE(a.read(0x5000), a.read(0x5008));
}

TEST(MemoryImage, BuiltImageIsSharedButNeverAliased)
{
    // A built image is frozen and shared by every copy; a write to one
    // copy must stay invisible to the original and to other copies.
    constexpr sb::Addr base = 0x10000;
    constexpr unsigned words = 300;
    sb::ProgramBuilder b;
    for (unsigned w = 0; w < words; ++w)
        b.memory().write(base + 8 * w, 1000 + w);
    b.halt();
    const sb::Program p = b.build();

    struct View
    {
        std::vector<sb::Word> reads;
        std::vector<bool> contains;
        std::size_t size;
        sb::Word fingerprint;
        bool operator==(const View &o) const
        {
            return reads == o.reads && contains == o.contains
                   && size == o.size && fingerprint == o.fingerprint;
        }
    };
    // Every base word plus the same span again past its end.
    auto view = [&](const sb::MemoryImage &m) {
        View v;
        for (unsigned w = 0; w < 2 * words; ++w) {
            v.reads.push_back(m.read(base + 8 * w));
            v.contains.push_back(m.contains(base + 8 * w));
        }
        v.size = m.size();
        v.fingerprint = m.fingerprint();
        return v;
    };
    const View before = view(p.memory);
    ASSERT_EQ(before.size, words);

    sb::MemoryImage written = p.memory;
    const sb::MemoryImage untouched = p.memory;
    written.write(base + 8 * 7, 0xdead);     // New value for a base word.
    written.write(base + 8 * 9, 1000 + 9);   // A base word's own value.
    written.write(base + 8 * words, 0xbeef); // Two new words.
    written.write(base + 8 * (words + 1), 0xcafe);

    EXPECT_TRUE(view(p.memory) == before);
    EXPECT_TRUE(view(untouched) == before);
    EXPECT_EQ(written.read(base + 8 * 7), 0xdeadu);
    EXPECT_EQ(written.read(base + 8 * words), 0xbeefu);
    EXPECT_EQ(p.memory.read(base + 8 * 7), 1000u + 7);
    EXPECT_FALSE(p.memory.contains(base + 8 * words));

    // A never-frozen image given the same writes in another order.
    sb::MemoryImage flat;
    flat.write(base + 8 * (words + 1), 0xcafe);
    flat.write(base + 8 * words, 0xbeef);
    flat.write(base + 8 * 7, 0xdead);
    for (unsigned w = words; w-- > 0;)
        if (w != 7)
            flat.write(base + 8 * w, 1000 + w);
    EXPECT_EQ(written.size(), words + 2);
    EXPECT_EQ(written.size(), flat.size());
    EXPECT_EQ(written.fingerprint(), flat.fingerprint());
    EXPECT_NE(written.fingerprint(), before.fingerprint);
}

TEST(MemoryImage, ReserveChangesNothingVisible)
{
    // reserve() only sizes a write layer up front: the slot layout
    // differs, what the image holds does not. Both layers are
    // covered, a builder's (frozen into the base) and a copy's.
    constexpr sb::Addr base = 0x40000;
    constexpr unsigned words = 3000;
    auto build = [&](bool reserve) {
        sb::ProgramBuilder b;
        b.memory().write(base - 8, 1);
        if (reserve)
            b.memory().reserve(words);
        for (unsigned w = 0; w < words; ++w)
            b.memory().write(base + 64 * w, 3 * w + 1);
        b.halt();
        const sb::Program p = b.build();
        sb::MemoryImage copy = p.memory;
        if (reserve)
            copy.reserve(words);
        // Even words overwrite a base word, odd ones add a new word.
        for (unsigned w = 0; w < words; w += 3)
            copy.write(base + 64 * w + 8 * (w % 2), w);
        return std::make_pair(p.memory, copy);
    };
    const auto plain = build(false);
    const auto reserved = build(true);
    auto expectSame = [&](const sb::MemoryImage &a,
                          const sb::MemoryImage &b) {
        EXPECT_EQ(a.size(), b.size());
        EXPECT_EQ(a.fingerprint(), b.fingerprint());
        for (sb::Addr addr = base - 8; addr < base + 64 * words;
             addr += 8) {
            ASSERT_EQ(a.read(addr), b.read(addr)) << std::hex << addr;
            ASSERT_EQ(a.contains(addr), b.contains(addr))
                << std::hex << addr;
        }
    };
    expectSame(plain.first, reserved.first);
    expectSame(plain.second, reserved.second);
    EXPECT_EQ(plain.first.size(), words + 1);
    EXPECT_EQ(plain.second.size(), words + 1 + words / 6);
}

// --- A built image's paged base -------------------------------------

using Writes = std::vector<std::pair<sb::Addr, sb::Word>>;

/** The last word of the address space. */
constexpr sb::Addr lastWord = ~sb::Addr(7);

/** @p writes given to a builder (the built image's paged base) and,
 *  the last write to each word only, to a never-built image in an
 *  order shuffled by @p seed. */
std::pair<sb::MemoryImage, sb::MemoryImage>
builtAndFlat(const Writes &writes, std::uint64_t seed)
{
    sb::ProgramBuilder b;
    for (const auto &[addr, value] : writes)
        b.memory().write(addr, value);
    b.halt();
    const sb::Program p = b.build();

    std::map<sb::Addr, sb::Word> last;
    for (const auto &[addr, value] : writes)
        last[addr & ~sb::Addr(7)] = value;
    Writes order(last.begin(), last.end());
    sb::Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    sb::MemoryImage flat;
    for (const auto &[addr, value] : order)
        flat.write(addr, value);
    return {p.memory, flat};
}

/** Both images agree on size(), fingerprint() and every written word
 *  and its neighbours: misses inside a page that holds words and in
 *  pages that hold none. */
void
expectSameImage(const std::pair<sb::MemoryImage, sb::MemoryImage> &images,
                const Writes &writes)
{
    const auto &[built, flat] = images;
    EXPECT_EQ(built.size(), flat.size());
    EXPECT_EQ(built.fingerprint(), flat.fingerprint());
    for (const auto &write : writes) {
        for (const sb::Addr delta : {sb::Addr(0), sb::Addr(8), -sb::Addr(8),
                                     sb::Addr(4096), -sb::Addr(4096)}) {
            const sb::Addr addr = write.first + delta;
            ASSERT_EQ(built.read(addr), flat.read(addr)) << std::hex << addr;
            ASSERT_EQ(built.contains(addr), flat.contains(addr))
                << std::hex << addr;
        }
    }
}

TEST(PagedBase, MatchesAFlatImageWordForWord)
{
    const sb::Addr high = sb::Addr(1) << 63;
    const Writes writes = {
        {0x0, 1},    {0xff8, 2},  // Both ends of page 0...
        {0x1000, 3}, {0x1ff8, 4}, // ...and of page 1.
        {0x21f8, 5}, {0x2200, 6}, // Words 63 and 64 of a page.
        {0x2003, 7},              // A sub-word address.
        {sb::Addr(1) << 40, 8},   // Pages far apart.
        {high, 9},
        {high + 0x1ff8, 10},
        {lastWord & ~sb::Addr(0xfff), 11}, // The top page's two ends.
        {lastWord, 12},
        {0xff8, 13}, // Overwrites: the last write wins.
        {high, 14},
        {lastWord, 15},
        {0x2004, 16},
    };
    const auto images = builtAndFlat(writes, 1);
    expectSameImage(images, writes);

    const sb::MemoryImage &built = images.first;
    EXPECT_EQ(built.size(), 12u);
    EXPECT_EQ(built.read(0xff8), 13u);
    EXPECT_EQ(built.read(high), 14u);
    EXPECT_EQ(built.read(lastWord + 5), 15u);
    EXPECT_EQ(built.read(0x2000), 16u);
    EXPECT_EQ(built.read(0x21f8), 5u);
    EXPECT_EQ(built.read(0x2200), 6u);
    for (const sb::Addr miss : {sb::Addr(0x1ff0), sb::Addr(0x2208),
                                sb::Addr(0x3000), high + 8,
                                lastWord - 8}) {
        EXPECT_FALSE(built.contains(miss)) << std::hex << miss;
        EXPECT_EQ(built.read(miss), sb::MemoryImage::backgroundValue(miss))
            << std::hex << miss;
    }
}

TEST(PagedBase, IndexGrowsPastSixtyFourPages)
{
    // 300 random pages anywhere in the address space: every tenth
    // full (512 words), the rest holding a few random words; then
    // 500 overwrites of earlier writes.
    sb::Rng rng(26);
    Writes writes;
    for (unsigned page = 0; page < 300; ++page) {
        const sb::Addr base = rng.next() & ~sb::Addr(0xfff);
        if (page % 10 == 0) {
            for (sb::Addr w = 0; w < 512; ++w)
                writes.push_back({base + 8 * w, rng.next()});
        } else {
            for (std::uint64_t n = 1 + rng.below(40); n > 0; --n)
                writes.push_back({base + 8 * rng.below(512), rng.next()});
        }
    }
    for (unsigned n = 0; n < 500; ++n)
        writes.push_back({writes[rng.below(writes.size())].first,
                          rng.next()});
    expectSameImage(builtAndFlat(writes, 2), writes);
}

TEST(PagedBase, EmptyBuilderHoldsNothing)
{
    sb::ProgramBuilder b;
    b.halt();
    const sb::Program p = b.build();
    const sb::MemoryImage none;
    EXPECT_EQ(p.memory.size(), 0u);
    EXPECT_EQ(p.memory.fingerprint(), none.fingerprint());
    for (const sb::Addr addr : {sb::Addr(0), sb::Addr(0x1000),
                                sb::Addr(1) << 63, lastWord}) {
        EXPECT_FALSE(p.memory.contains(addr));
        EXPECT_EQ(p.memory.read(addr), none.read(addr));
    }
}

TEST(ProgramBuilder, BackwardBranchTargets)
{
    sb::ProgramBuilder b;
    b.movi(1, 0);
    const auto loop = b.here();
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    const sb::Program p = b.build();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.code[2].target, loop);
}

TEST(ProgramBuilder, ForwardLabelsBackpatch)
{
    sb::ProgramBuilder b;
    const auto skip = b.futureLabel();
    b.beq(1, 2, skip);
    b.addi(3, 3, 1);
    b.bind(skip);
    b.halt();
    const sb::Program p = b.build();
    EXPECT_EQ(p.code[0].target, 2u);
}

TEST(ProgramBuilder, UnboundLabelDies)
{
    sb::ProgramBuilder b;
    const auto skip = b.futureLabel();
    b.beq(1, 2, skip);
    EXPECT_DEATH(b.build(), "unbound label");
}

TEST(ProgramBuilder, EmitterEncodings)
{
    sb::ProgramBuilder b;
    b.load(1, 2, 16);
    b.store(3, 4, -8);
    const sb::Program p = b.build();
    EXPECT_EQ(p.code[0].op, sb::Op::Load);
    EXPECT_EQ(p.code[0].dst, 1);
    EXPECT_EQ(p.code[0].src1, 2);
    EXPECT_EQ(p.code[0].imm, 16);
    EXPECT_EQ(p.code[1].op, sb::Op::Store);
    EXPECT_EQ(p.code[1].src1, 3); // Address operand.
    EXPECT_EQ(p.code[1].src2, 4); // Data operand.
    EXPECT_EQ(p.code[1].imm, -8);
}

TEST(ProgramBuilder, DisassembleWholeProgram)
{
    sb::ProgramBuilder b;
    b.movi(1, 5);
    b.halt();
    const sb::Program p = b.build("demo");
    const std::string d = p.disassemble();
    EXPECT_NE(d.find("movi"), std::string::npos);
    EXPECT_NE(d.find("halt"), std::string::npos);
}

} // anonymous namespace
