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
    orderView.reserve(cap);
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

    // Find the insertion point from the young end. Dispatch runs in
    // program order (and squashes only cut the young end), so the
    // core always lands on the tail in O(1); the walk only happens
    // for out-of-order unit-test insertions.
    std::int32_t succ = -1; // Entry that will follow the new one.
    std::int32_t pred = ageTail;
    while (pred >= 0 && slots[pred].seq > inst.seq) {
        succ = pred;
        pred = slots[pred].agePrev;
    }
    e.agePrev = pred;
    e.ageNext = succ;
    if (pred >= 0)
        slots[pred].ageNext = idx;
    else
        ageHead = idx;
    if (succ >= 0)
        slots[succ].agePrev = idx;
    else
        ageTail = idx;

    if (!e.src1Ready)
        setWaiting(e.psrc1, idx);
    if (!e.src2Ready)
        setWaiting(e.psrc2, idx);
    if (candidate(e))
        readyLink(idx);

    inst.inIq = true;
    inst.iqSlot = idx;
    ++count;
    orderDirty = true;
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
    if (e.agePrev >= 0)
        slots[e.agePrev].ageNext = e.ageNext;
    else
        ageHead = e.ageNext;
    if (e.ageNext >= 0)
        slots[e.ageNext].agePrev = e.agePrev;
    else
        ageTail = e.agePrev;

    if (!e.src1Ready)
        clearWaiting(e.psrc1, idx);
    if (!e.src2Ready)
        clearWaiting(e.psrc2, idx);
    e.handle = invalidInstHandle;
    e.src1Ready = false;
    e.src2Ready = false;
    e.agePrev = -1;
    e.ageNext = -1;
    freeSlots.push_back(idx);
    --count;
    orderDirty = true;
}

void
IssueQueue::squash(SeqNum seq)
{
    // Age order makes the squash set a suffix, but also sweep entries
    // whose records an earlier flush already freed.
    std::int32_t idx = ageTail;
    while (idx >= 0) {
        const std::int32_t prev = slots[idx].agePrev;
        // The record may already be freed (squash walks the ROB
        // before sweeping the IQ), so revalidate through the slab.
        DynInst *r = slab ? slab->tryGet(slots[idx].handle) : nullptr;
        const bool stale = slab && !r;
        if (slots[idx].seq > seq || stale) {
            if (r) {
                r->inIq = false;
                r->iqSlot = -1;
            }
            freeSlot(idx);
        }
        idx = prev;
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
    inst.inIq = false;
    inst.iqSlot = -1;
}

const std::vector<IqEntry *> &
IssueQueue::inOrder()
{
    if (orderDirty) {
        orderView.clear();
        for (std::int32_t idx = ageHead; idx >= 0;
             idx = slots[idx].ageNext) {
            orderView.push_back(&slots[idx]);
        }
        orderDirty = false;
    }
    return orderView;
}

} // namespace sb
