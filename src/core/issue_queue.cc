#include "core/issue_queue.hh"

#include "common/logging.hh"

namespace sb
{

IssueQueue::IssueQueue(unsigned capacity, unsigned num_phys_regs)
    : cap(capacity), numPregs(num_phys_regs), rowWords((capacity + 63) / 64)
{
    sb_assert(cap > 0, "issue queue needs capacity");
    slots.resize(cap);
    freeSlots.reserve(cap);
    for (std::int32_t i = static_cast<std::int32_t>(cap) - 1; i >= 0; --i)
        freeSlots.push_back(i);
    waiting.assign(static_cast<std::size_t>(numPregs) * rowWords, 0);
}

void
IssueQueue::setWaiting(PhysReg preg, std::int32_t slot)
{
    sb_assert(preg < numPregs, "wakeup matrix has no row for p", preg);
    waitRow(preg)[slot >> 6] |= std::uint64_t(1) << (slot & 63);
}

void
IssueQueue::clearWaiting(PhysReg preg, std::int32_t slot)
{
    waitRow(preg)[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
}

void
IssueQueue::insert(InstHandle h, DynInst &inst, bool src1_ready,
                   bool src2_ready)
{
    sb_assert(!full(), "insert into full issue queue");

    const std::int32_t idx = freeSlots.back();
    freeSlots.pop_back();
    IqEntry &e = slots[idx];
    e.handle = h;
    e.seq = inst.seq;
    e.psrc1 = inst.psrc1;
    e.psrc2 = inst.psrc2;
    e.hasSrc1 = inst.uop.hasSrc1();
    e.hasSrc2 = inst.uop.hasSrc2();
    e.isStore = inst.isStore();
    e.src1Ready = src1_ready || !e.hasSrc1;
    e.src2Ready = src2_ready || !e.hasSrc2;
    if (!e.src1Ready)
        setWaiting(e.psrc1, idx);
    if (!e.src2Ready)
        setWaiting(e.psrc2, idx);
    if (candidate(e))
        readyLink(idx);

    inst.iqSlot = idx;
    ++count;
}

void
IssueQueue::wakeup(PhysReg preg)
{
    sb_assert(preg < numPregs, "wakeup matrix has no row for p", preg);
    std::uint64_t *row = waitRow(preg);
    for (unsigned w = 0; w < rowWords; ++w) {
        std::uint64_t bits = row[w];
        // A physical register broadcasts once per allocation: the
        // row empties as it is walked.
        row[w] = 0;
        while (bits != 0) {
            const std::int32_t idx = static_cast<std::int32_t>(
                w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
            bits &= bits - 1;
            IqEntry &e = slots[idx];
            if (e.hasSrc1 && e.psrc1 == preg)
                e.src1Ready = true;
            if (e.hasSrc2 && e.psrc2 == preg)
                e.src2Ready = true;
            if (!e.inReady && candidate(e))
                readyLink(idx);
        }
    }
}

void
IssueQueue::readyLink(std::int32_t idx)
{
    IqEntry &e = slots[idx];
    // Ordered insert by age, from the young end: freshly dispatched
    // and freshly woken entries are usually the youngest candidates.
    std::int32_t succ = -1;
    std::int32_t pred = rdyTail;
    while (pred >= 0 && slots[pred].seq > e.seq) {
        succ = pred;
        pred = slots[pred].rdyPrev;
    }
    e.rdyPrev = pred;
    e.rdyNext = succ;
    if (pred >= 0)
        slots[pred].rdyNext = idx;
    else
        rdyHead = idx;
    if (succ >= 0)
        slots[succ].rdyPrev = idx;
    else
        rdyTail = idx;
    e.inReady = true;
}

void
IssueQueue::readyUnlink(std::int32_t idx)
{
    IqEntry &e = slots[idx];
    if (e.rdyPrev >= 0)
        slots[e.rdyPrev].rdyNext = e.rdyNext;
    else
        rdyHead = e.rdyNext;
    if (e.rdyNext >= 0)
        slots[e.rdyNext].rdyPrev = e.rdyPrev;
    else
        rdyTail = e.rdyPrev;
    e.rdyPrev = -1;
    e.rdyNext = -1;
    e.inReady = false;
}

void
IssueQueue::freeSlot(std::int32_t idx)
{
    IqEntry &e = slots[idx];
    if (e.inReady)
        readyUnlink(idx);
    if (!e.src1Ready)
        clearWaiting(e.psrc1, idx);
    if (!e.src2Ready)
        clearWaiting(e.psrc2, idx);
    e.handle = invalidInstHandle;
    e.src1Ready = false;
    e.src2Ready = false;
    freeSlots.push_back(idx);
    --count;
}

void
IssueQueue::squash(SeqNum seq)
{
    // Sweep the slot array up to its last occupied slot: the squash
    // set is every entry younger than @p seq plus any whose record an
    // earlier flush already freed. Slot order is not age order, and
    // need not be: freeing touches only the slot itself and its
    // candidate-list neighbours.
    std::size_t left = count;
    for (std::int32_t idx = 0; left > 0; ++idx) {
        const IqEntry &e = slots[idx];
        if (e.handle == invalidInstHandle)
            continue; // Free slot.
        --left;
        // The record may already be freed (squash walks the ROB
        // before sweeping the IQ), so revalidate through the slab.
        DynInst *r = slab ? slab->tryGet(e.handle) : nullptr;
        const bool stale = slab && !r;
        if (e.seq > seq || stale) {
            if (r)
                r->iqSlot = -1;
            freeSlot(idx);
        }
    }
}

void
IssueQueue::remove(DynInst &inst)
{
    const std::int32_t idx = inst.iqSlot;
    sb_assert(idx >= 0 && idx < static_cast<std::int32_t>(cap)
                  && slots[idx].seq == inst.seq,
              "removing instruction not in IQ");
    freeSlot(idx);
    inst.iqSlot = -1;
}

} // namespace sb
