#include "core/contract_shadow.hh"

#include "common/logging.hh"

namespace sb
{

namespace
{

/** Smallest power of two >= @p n (and >= 1). */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // anonymous namespace

ContractShadow::ContractShadow(unsigned num_phys_regs,
                               unsigned lq_entries, unsigned sq_entries)
    : regs(num_phys_regs),
      loadLabels(pow2AtLeast(lq_entries)),
      storeLabels(pow2AtLeast(sq_entries))
{
}

ContractShadow::Label
ContractShadow::take(std::vector<Captured> &slots, std::uint32_t ticket,
                     SeqNum seq)
{
    Captured &slot = slotOf(slots, ticket);
    if (slot.seq != seq)
        return Label{};
    slot.seq = invalidSeqNum;
    return slot.label;
}

void
ContractShadow::markSecretRegion(Addr base, std::uint64_t bytes,
                                 TenantId owner)
{
    if (bytes == 0)
        return;
    const Addr first = alignWord(base);
    const Addr last = alignWord(base + bytes - 1);
    secretWords.reserve(secretWords.size() + (last - first) / 8 + 1);
    for (Addr a = first; a <= last; a += 8)
        secretWords.put(a, Word(owner) + 1);
}

const WordTable::Slot *
ContractShadow::secretWord(Addr addr) const
{
    const WordTable::Slot *s = secretWords.find(alignWord(addr));
    return s && s->value != 0 ? s : nullptr;
}

void
ContractShadow::setMemSecret(Addr addr, bool secret, TenantId owner)
{
    const Addr word = alignWord(addr);
    if (secret)
        secretWords.put(word, Word(owner) + 1);
    else if (secretWords.find(word))
        secretWords.put(word, 0); // Scrubbed: kept, marked public.
}

void
ContractShadow::onAllocate(PhysReg reg)
{
    sb_assert(reg < regs.size(), "shadow register out of range");
    regs[reg] = Label{};
}

void
ContractShadow::onLoadValue(const DynInst &load, SeqNum forward_source,
                            std::uint32_t forward_ticket)
{
    Label label;
    if (forward_source != invalidSeqNum) {
        // Store-to-load forwarding: the value never touched memory;
        // it carries the forwarding store's data label. The store is
        // live in the SQ, so its slot is still its own.
        const Captured &src = slotOf(storeLabels, forward_ticket);
        if (src.seq == forward_source)
            label = src.label;
    } else if (load.effAddrValid) {
        if (const WordTable::Slot *s = secretWord(load.effAddr)) {
            label.secret = true;
            label.owner = static_cast<TenantId>(s->value - 1);
        }
    }
    slotOf(loadLabels, load.lqTicket) = Captured{load.seq, label};
}

void
ContractShadow::onLoadData(const DynInst &load, bool still_speculative)
{
    Label label = take(loadLabels, load.lqTicket, load.seq);
    if (load.pdst == invalidPhysReg)
        return;
    // The load itself is the youngest point its value crossed the
    // sandbox boundary; once the load is bound to commit the access
    // is architecturally sanctioned and only the constant-time
    // contract still cares about the label.
    const SeqNum spec_root = still_speculative ? load.seq : invalidSeqNum;
    label.root = label.secret ? spec_root : invalidSeqNum;
    label.taint = spec_root;
    label.producerLoad = spec_root;
    regs[load.pdst] = label;
}

void
ContractShadow::onStoreData(const DynInst &store)
{
    if (!store.uop.hasSrc2())
        return;
    slotOf(storeLabels, store.sqTicket) =
        Captured{store.seq, regs[store.psrc2]};
}

void
ContractShadow::onStoreCommit(const DynInst &store)
{
    const Label label = take(storeLabels, store.sqTicket, store.seq);
    if (store.effAddrValid)
        setMemSecret(store.effAddr, label.secret, label.owner);
}

void
ContractShadow::onConsume(const DynInst &inst, Cycle now, SeqNum vp,
                          bool use_src1, bool use_src2, bool transmits)
{
    bool secret = false;
    SeqNum root = invalidSeqNum;
    TenantId owner = 0;
    SeqNum taint = invalidSeqNum;
    bool spec_producer = false;

    // A root older than the visibility point is bound-to-commit: its
    // data is architecturally sanctioned, hence no longer speculative.
    auto join_live = [vp](SeqNum &into, SeqNum r) {
        if (r != invalidSeqNum && r > vp
            && (into == invalidSeqNum || r > into))
            into = r;
    };
    auto check_src = [&](PhysReg reg) {
        if (reg == invalidPhysReg)
            return;
        const Label &label = regs[reg];
        join_live(taint, label.taint);
        if (label.producerLoad != invalidSeqNum && label.producerLoad > vp)
            spec_producer = true;
        if (!label.secret)
            return;
        secret = true;
        owner = label.owner;
        join_live(root, label.root);
    };

    if (use_src1 && inst.uop.hasSrc1())
        check_src(inst.psrc1);
    if (use_src2 && inst.uop.hasSrc2())
        check_src(inst.psrc2);

    // NDA: the operand came straight from a still-speculative load.
    if (spec_producer)
        ++consumeViol;
    // STT: an observable use of a speculatively-tainted operand.
    if (transmits && taint != invalidSeqNum)
        ++transmitViol;

    if (transmits && secret) {
        // Constant-time (ProSpeCT): a secret operand reached a
        // transmitter, speculatively or not.
        ++ctViol;
        if (!firstCt.valid())
            firstCt = {now, inst.seq, inst.pc};
        // Protection domains: the transmitting instruction ran under
        // one tenant while the secret belongs to another — the
        // cross-tenant escalation of the same observation.
        if (owner != inst.tenant) {
            ++crossTenantViol;
            if (!firstCrossTenant.valid())
                firstCrossTenant = {now, inst.seq, inst.pc};
        }
        // Sandboxing: only out-of-sandbox (still-speculative) secret
        // acquisition violates the observational contract.
        if (root != invalidSeqNum) {
            ++sandboxViol;
            if (!firstSandbox.valid())
                firstSandbox = {now, inst.seq, inst.pc};
        }
    }

    // Propagate the joined label to the destination (loads are
    // handled in onLoadData, which overwrites with the load's own
    // label). A computed value is no load's direct product.
    if (inst.pdst != invalidPhysReg && !inst.isLoad())
        regs[inst.pdst] = {secret, root, owner, taint, invalidSeqNum};
}

} // namespace sb
