#include "isa/program.hh"

#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"

namespace sb
{

void
MemoryImage::write(Addr addr, Word value)
{
    const Addr a = align(addr);
    if (top.put(a, value) && base && base->find(a))
        ++shadowed;
}

void
MemoryImage::reserve(std::size_t words)
{
    top.reserve(top.size() + words);
}

Word
MemoryImage::read(Addr addr) const
{
    const Addr a = align(addr);
    if (const WordTable::Slot *s = top.find(a))
        return s->value;
    if (base)
        if (const Word *w = base->find(a))
            return *w;
    return backgroundValue(a);
}

bool
MemoryImage::contains(Addr addr) const
{
    const Addr a = align(addr);
    return top.find(a) || (base && base->find(a));
}

Word
MemoryImage::fingerprint() const
{
    // Hash each (addr, value) pair independently and combine with a
    // commutative fold, so neither layer's storage order (which
    // differs with capacity and write history) can leak into the
    // digest.
    // A base entry the write layer shadows is folded once, with its
    // written value.
    Word sum = 0x9ae16a3b2f90404fULL;
    Word mix = 0;
    auto fold = [&](Addr addr, Word value) {
        const Word h = fnv1aWord(fnv1aWord(fnv1aBasis, addr), value);
        sum += h;
        mix ^= h;
    };
    if (base)
        base->forEach([&](Addr addr, Word value) {
            if (!top.find(addr))
                fold(addr, value);
        });
    for (const WordTable::Slot &s : top.slots())
        if (s.addr != WordTable::emptySlot)
            fold(s.addr, s.value);
    return (sum ^ (mix * 0xff51afd7ed558ccdULL)) + size();
}

Word
MemoryImage::backgroundValue(Addr addr)
{
    // splitmix64 finaliser: deterministic pseudo-data per address.
    Word z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
Program::disassemble() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < code.size(); ++i)
        oss << i << ":\t" << code[i].disassemble() << '\n';
    return oss.str();
}

ProgramBuilder::Label
ProgramBuilder::futureLabel()
{
    futureTargets.push_back(-1);
    return unboundBase + static_cast<std::uint32_t>(futureTargets.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    sb_assert(label >= unboundBase, "bind() of a non-future label");
    const std::size_t idx = label - unboundBase;
    sb_assert(idx < futureTargets.size(), "bind() of unknown label");
    sb_assert(futureTargets[idx] < 0, "label bound twice");
    futureTargets[idx] = static_cast<std::int64_t>(code.size());
}

std::uint32_t
ProgramBuilder::emit(MicroOp uop)
{
    code.push_back(uop);
    return static_cast<std::uint32_t>(code.size() - 1);
}

std::uint32_t
ProgramBuilder::emitBranch(Op op, ArchReg src1, ArchReg src2, Label target)
{
    MicroOp uop;
    uop.op = op;
    uop.src1 = src1;
    uop.src2 = src2;
    uop.target = target;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::nop()
{
    return emit(MicroOp{});
}

std::uint32_t
ProgramBuilder::movi(ArchReg dst, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::MovImm;
    uop.dst = dst;
    uop.imm = imm;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::addi(ArchReg dst, ArchReg src1, std::int64_t imm)
{
    MicroOp uop;
    uop.op = Op::AddImm;
    uop.dst = dst;
    uop.src1 = src1;
    uop.imm = imm;
    return emit(uop);
}

namespace
{

MicroOp
threeReg(Op op, ArchReg dst, ArchReg src1, ArchReg src2)
{
    MicroOp uop;
    uop.op = op;
    uop.dst = dst;
    uop.src1 = src1;
    uop.src2 = src2;
    return uop;
}

} // anonymous namespace

std::uint32_t
ProgramBuilder::add(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Add, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::sub(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Sub, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::and_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::And, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::or_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Or, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::xor_(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Xor, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::shl(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Shl, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::shr(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Shr, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::mul(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Mul, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::div(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Div, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::slt(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Slt, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::sltu(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::Sltu, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fadd(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FAdd, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fmul(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FMul, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::fdiv(ArchReg dst, ArchReg src1, ArchReg src2)
{
    return emit(threeReg(Op::FDiv, dst, src1, src2));
}

std::uint32_t
ProgramBuilder::load(ArchReg dst, ArchReg base, std::int64_t offset)
{
    MicroOp uop;
    uop.op = Op::Load;
    uop.dst = dst;
    uop.src1 = base;
    uop.imm = offset;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::store(ArchReg base, ArchReg data, std::int64_t offset)
{
    MicroOp uop;
    uop.op = Op::Store;
    uop.src1 = base;
    uop.src2 = data;
    uop.imm = offset;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::beq(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Beq, src1, src2, target);
}

std::uint32_t
ProgramBuilder::bne(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Bne, src1, src2, target);
}

std::uint32_t
ProgramBuilder::blt(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Blt, src1, src2, target);
}

std::uint32_t
ProgramBuilder::bge(ArchReg src1, ArchReg src2, Label target)
{
    return emitBranch(Op::Bge, src1, src2, target);
}

std::uint32_t
ProgramBuilder::jmp(Label target)
{
    return emitBranch(Op::Jmp, invalidArchReg, invalidArchReg, target);
}

std::uint32_t
ProgramBuilder::jr(ArchReg target_reg)
{
    MicroOp uop;
    uop.op = Op::JmpReg;
    uop.src1 = target_reg;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::jrr(ArchReg target_reg)
{
    MicroOp uop;
    uop.op = Op::JmpRegRet;
    uop.src1 = target_reg;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::fence()
{
    MicroOp uop;
    uop.op = Op::Fence;
    return emit(uop);
}

std::uint32_t
ProgramBuilder::halt()
{
    MicroOp uop;
    uop.op = Op::Halt;
    return emit(uop);
}

void
ProgramBuilder::markSecret(Addr base, std::uint64_t bytes, TenantId owner)
{
    if (bytes == 0)
        return;
    secrets.push_back({base, bytes, owner});
}

void
ProgramBuilder::tenantEntry(TenantId t)
{
    for (const TenantEntry &e : tenantStarts)
        sb_assert(e.tenant != t, "tenant entry recorded twice");
    tenantStarts.push_back({t, here()});
}

std::uint32_t
ProgramBuilder::switchTenant(TenantId to)
{
    const std::uint32_t pc = nop();
    switches.push_back({pc, to});
    return pc;
}

Program
ProgramBuilder::build(std::string name)
{
    // Resolve future labels. JmpReg carries no static target: its
    // destination is the runtime value of src1.
    for (auto &uop : code) {
        if (uop.isIndirect())
            continue;
        if (uop.isBranch() && uop.target >= unboundBase) {
            const std::size_t idx = uop.target - unboundBase;
            sb_assert(idx < futureTargets.size(), "unknown label in branch");
            sb_assert(futureTargets[idx] >= 0,
                      "unbound label referenced by branch");
            uop.target = static_cast<std::uint32_t>(futureTargets[idx]);
        }
    }
    for (const auto &uop : code) {
        if (uop.isBranch() && !uop.isIndirect()) {
            sb_assert(uop.target < code.size(),
                      "branch target out of range");
        }
    }
    Program p;
    p.code = std::move(code);
    p.memory.base = std::make_shared<const PagedWords>(std::move(mem));
    p.name = std::move(name);
    p.secretRegions = std::move(secrets);
    p.switchPoints = std::move(switches);
    p.tenantEntries = std::move(tenantStarts);
    return p;
}

} // namespace sb
