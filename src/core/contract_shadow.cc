#include "core/contract_shadow.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace sb
{

ContractShadow::ContractShadow(unsigned num_phys_regs)
    : regs(num_phys_regs)
{
    active = defaultActive();
}

bool
ContractShadow::defaultActive()
{
    if (const char *env = std::getenv("SB_INVARIANTS")) {
        if (std::strcmp(env, "0") == 0)
            return false;
        if (std::strcmp(env, "1") == 0)
            return true;
        // InvariantChecker::defaultActive already warned about the
        // malformed value; fall through silently to the build default.
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

void
ContractShadow::markSecretRegion(Addr base, std::uint64_t bytes,
                                 TenantId owner)
{
    if (bytes == 0)
        return;
    const Addr first = alignWord(base);
    const Addr last = alignWord(base + bytes - 1);
    for (Addr a = first; a <= last; a += 8)
        secretWords[a] = owner;
}

bool
ContractShadow::memSecret(Addr addr) const
{
    return secretWords.count(alignWord(addr)) != 0;
}

TenantId
ContractShadow::memOwner(Addr addr) const
{
    auto it = secretWords.find(alignWord(addr));
    return it == secretWords.end() ? invalidTenant : it->second;
}

void
ContractShadow::setMemSecret(Addr addr, bool secret, TenantId owner)
{
    if (secret)
        secretWords[alignWord(addr)] = owner;
    else
        secretWords.erase(alignWord(addr));
}

void
ContractShadow::onAllocate(PhysReg reg)
{
    sb_assert(reg < regs.size(), "shadow register out of range");
    regs[reg] = Label{};
}

void
ContractShadow::onLoadValue(const DynInst &load, SeqNum forward_source)
{
    Label label;
    if (forward_source != invalidSeqNum) {
        // Store-to-load forwarding: the value never touched memory;
        // it carries the forwarding store's data label.
        auto it = storeData.find(forward_source);
        if (it != storeData.end())
            label = it->second;
    } else if (load.effAddrValid && memSecret(load.effAddr)) {
        label.secret = true;
        label.owner = memOwner(load.effAddr);
    }
    pendingLoads[load.seq] = label;
}

void
ContractShadow::onLoadData(const DynInst &load, bool still_speculative)
{
    Label label;
    auto it = pendingLoads.find(load.seq);
    if (it != pendingLoads.end()) {
        label = it->second;
        pendingLoads.erase(it);
    }
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
    storeData[store.seq] = regs[store.psrc2];
}

void
ContractShadow::onStoreCommit(const DynInst &store)
{
    Label label;
    auto it = storeData.find(store.seq);
    if (it != storeData.end()) {
        label = it->second;
        storeData.erase(it);
    }
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

void
ContractShadow::onSquash(SeqNum youngest_surviving)
{
    auto purge = [&](std::unordered_map<SeqNum, Label> &map) {
        for (auto it = map.begin(); it != map.end();) {
            if (it->first > youngest_surviving)
                it = map.erase(it);
            else
                ++it;
        }
    };
    purge(pendingLoads);
    purge(storeData);
}

void
ContractShadow::onArchTransmit(std::uint32_t pc, bool secret_operand)
{
    if (!secret_operand)
        return;
    ++ctViol;
    if (!firstCt.valid())
        firstCt = {0, 0, pc};
}

} // namespace sb
