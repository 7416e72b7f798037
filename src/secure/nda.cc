#include "secure/nda.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

void
NdaScheme::defer(const Pending &p)
{
    // Producers complete roughly in age order, so the insertion point
    // is usually at or near the end.
    auto pos = pending.end();
    while (pos != pending.begin() && (pos - 1)->seq > p.seq)
        --pos;
    pending.insert(pos, p);
}

bool
NdaScheme::deferBroadcast(InstHandle /* h */, const DynInst &inst,
                          Cycle /* ready_at */)
{
    if (!inst.isLoad())
        return false;
    if (!coreRef->isSpeculative(inst.seq))
        return false;
    // Data is already in the register file; only the broadcast waits
    // (split data-write / broadcast, Fig. 5b).
    defer(Pending{inst.seq, inst.pdst, coreRef->now()});
    return true;
}

unsigned
NdaScheme::broadcastBudget() const
{
    return coreRef->config().memPorts;
}

void
NdaScheme::tick()
{
    if (pending.empty())
        return;

    // Broadcast non-speculative results oldest-first, limited to the
    // broadcast-port budget per cycle. Squashed producers cannot be
    // here: every squash erases them by sequence number in onSquash.
    unsigned budget = broadcastBudget();
    const Cycle now = coreRef->now();
    std::size_t fired = 0;
    while (budget > 0 && fired < pending.size()) {
        const Pending &p = pending[fired];
        if (coreRef->isSpeculative(p.seq) || p.readyAt > now)
            break;
        // One broadcast cycle: dependents can be selected next cycle.
        coreRef->scheduleWakeup(p.pdst, now + 1);
        ++fired;
        --budget;
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(fired));
}

void
NdaScheme::onSquash(SeqNum youngest_surviving)
{
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [youngest_surviving](const Pending &p) {
                                     return p.seq > youngest_surviving;
                                 }),
                  pending.end());
}

bool
NdaStrictScheme::deferBroadcast(InstHandle /* h */, const DynInst &inst,
                                Cycle ready_at)
{
    if (inst.pdst == invalidPhysReg)
        return false;
    if (!coreRef->isSpeculative(inst.seq))
        return false;
    defer(Pending{inst.seq, inst.pdst, ready_at});
    return true;
}

unsigned
NdaStrictScheme::broadcastBudget() const
{
    // Strict mode defers ALU results too; give it the full issue
    // width of broadcast buses.
    return coreRef->config().issueWidth;
}

} // namespace sb
