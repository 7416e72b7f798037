#include "core/lsu.hh"

#include "common/logging.hh"

namespace sb
{

Lsu::Lsu(unsigned lq_capacity, unsigned sq_capacity)
    : lqCap(lq_capacity), sqCap(sq_capacity), lq(lq_capacity),
      sq(sq_capacity)
{
    sb_assert(lqCap > 0 && sqCap > 0, "LSU needs queue capacity");
}

void
Lsu::allocateLoad(InstHandle h, DynInst &inst)
{
    sb_assert(!lqFull(), "LQ overflow");
    sb_assert(lq.empty() || lq.back().seq < inst.seq,
              "LQ must stay program-ordered");
    inst.lqTicket = lqHeadTicket + static_cast<std::uint32_t>(lq.size());
    LqEntry e;
    e.handle = h;
    e.seq = inst.seq;
    e.pc = inst.pc;
    lq.push_back(e);
}

void
Lsu::allocateStore(DynInst &inst)
{
    sb_assert(!sqFull(), "SQ overflow");
    sb_assert(sq.empty() || sq.back().seq < inst.seq,
              "SQ must stay program-ordered");
    inst.sqTicket = sqHeadTicket + static_cast<std::uint32_t>(sq.size());
    // Assigning the whole entry also empties the reused slot's waiter
    // list (keeping its capacity).
    SqEntry e;
    e.seq = inst.seq;
    e.pc = inst.pc;
    sq.push_back(e);
}

LqEntry &
Lsu::lqEntry(const DynInst &load)
{
    const std::uint32_t pos = load.lqTicket - lqHeadTicket;
    sb_assert(pos < lq.size() && lq[pos].seq == load.seq,
              "load seq=", load.seq, " not at its LQ ticket");
    return lq[pos];
}

SqEntry &
Lsu::sqEntry(std::uint32_t ticket, SeqNum seq)
{
    const std::uint32_t pos = ticket - sqHeadTicket;
    sb_assert(pos < sq.size() && sq[pos].seq == seq,
              "store seq=", seq, " not at its SQ ticket");
    return sq[pos];
}

void
Lsu::storeAddrReady(const DynInst &store)
{
    sb_assert(store.effAddrValid, "caching store address before gen");
    SqEntry &e = sqEntry(store);
    e.addr = store.effAddr;
    e.addrValid = true;
}

ForwardOutcome
Lsu::checkForwarding(const DynInst &load) const
{
    sb_assert(load.effAddrValid, "forwarding scan before address gen");
    ForwardOutcome out;
    const Addr target = wordAddr(load.effAddr);

    // Scan youngest-older-store first.
    for (std::size_t i = sq.size(); i-- > 0;) {
        const SqEntry &e = sq[i];
        if (e.seq > load.seq)
            continue;
        if (!e.addrValid) {
            // Unknown address: optimistically bypass, remember it.
            out.bypassedUnknown = true;
            continue;
        }
        if (wordAddr(e.addr) != target)
            continue;
        out.source = e.seq;
        out.sourceTicket = sqHeadTicket + static_cast<std::uint32_t>(i);
        if (e.dataValid) {
            out.kind = ForwardOutcome::Kind::Forward;
            out.data = e.data;
            return out;
        }
        // Address matches but the data half has not issued: the load
        // must wait (retry) rather than read stale memory.
        out.kind = ForwardOutcome::Kind::StallData;
        return out;
    }
    out.kind = ForwardOutcome::Kind::NoMatch;
    return out;
}

void
Lsu::addForwardWaiter(const ForwardOutcome &stall, InstHandle waiter)
{
    sb_assert(stall.kind == ForwardOutcome::Kind::StallData,
              "parking a load that did not stall on a store");
    sqEntry(stall.sourceTicket, stall.source).waiters.push_back(waiter);
}

void
Lsu::loadDataReturned(const DynInst &load, SeqNum source)
{
    LqEntry &e = lqEntry(load);
    e.dataReturned = true;
    e.forwardedFrom = source;
    e.addr = load.effAddr;
}

void
Lsu::storeDataReady(const DynInst &store, Word data,
                    std::vector<InstHandle> &woken)
{
    SqEntry &e = sqEntry(store);
    e.dataValid = true;
    e.data = data;
    woken.insert(woken.end(), e.waiters.begin(), e.waiters.end());
    e.waiters.clear();
}

const LqEntry *
Lsu::checkViolation(const DynInst &store) const
{
    sb_assert(store.effAddrValid, "violation scan before address gen");
    const Addr target = wordAddr(store.effAddr);
    for (const auto &e : lq) {
        if (e.seq < store.seq)
            continue;
        // dataReturned implies the cached address is valid.
        if (!e.dataReturned)
            continue;
        if (wordAddr(e.addr) != target)
            continue;
        // The load already has data. It is stale unless it forwarded
        // from this store or from a younger one.
        if (e.forwardedFrom == invalidSeqNum
            || e.forwardedFrom < store.seq) {
            return &e;
        }
    }
    return nullptr;
}

void
Lsu::markStoreCommitted(const DynInst &store)
{
    SqEntry &e = sqEntry(store);
    sb_assert(e.addrValid && e.dataValid, "committing incomplete store");
    e.committed = true;
}

SqEntry *
Lsu::drainableStore()
{
    if (!sq.empty() && sq.front().committed)
        return &sq.front();
    return nullptr;
}

void
Lsu::popDrainedStore()
{
    sb_assert(!sq.empty() && sq.front().committed, "bad SQ drain");
    sq.pop_front();
    ++sqHeadTicket;
}

void
Lsu::releaseLoad(const DynInst &load)
{
    sb_assert(!lq.empty(), "releasing load from empty LQ");
    sb_assert(lq.front().seq == load.seq,
              "loads must commit in order");
    lq.pop_front();
    ++lqHeadTicket;
}

void
Lsu::squash(SeqNum seq)
{
    while (!lq.empty() && lq.back().seq > seq)
        lq.pop_back();
    while (!sq.empty() && sq.back().seq > seq) {
        sb_assert(!sq.back().committed, "squashing a committed store");
        sq.pop_back();
    }
}

} // namespace sb
