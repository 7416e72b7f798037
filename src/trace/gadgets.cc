#include "trace/gadgets.hh"

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sb
{

namespace
{

using gadget_layout::array2Base;
using gadget_layout::probeStride;

// Memory layout shared by every gadget.
constexpr Addr array1Base = 0x200000;
constexpr Addr secretOffset = 0x10000;   ///< Out-of-range index.
constexpr Addr idxArrayBase = 0x600000;
constexpr Addr staleBase = 0xA00000;     ///< v4 sanitised-pointer slots.
constexpr Addr chaseBase = 0x800000;
/** Cross-domain v2: slot holding the attacker's training target. */
constexpr Addr targSlotAddr = 0x700000;
/** Swapgs flag chains: the attacker's sits in one line (resolves
 *  fast); the victim's spans three cold lines (slow resolve = the
 *  speculation window). */
constexpr Addr flagChainA = 0xB00000;
constexpr Addr flagChainB = 0xB10000;
constexpr unsigned chaseNodes = 2048;
constexpr unsigned trainingRounds = 48;
constexpr std::int64_t inRangeLength = 8;
/** v4 needs no predictor training; each round leaks independently. */
constexpr unsigned ssbRounds = 16;
/** Mask for the v1 "false mitigation": wide enough to pass the
 *  malicious index (secretOffset < 0x20000), so it mitigates nothing
 *  while leaving the in-range training indices untouched. */
constexpr std::int64_t falseMask = 0x1ffff;

/** Register assignments shared by every gadget. */
struct Regs
{
    static constexpr ArchReg a1 = 1, a2 = 2, idxp = 3, idx = 4;
    static constexpr ArchReg bound = 5, chase = 6, hop1 = 7, hop2 = 8;
    static constexpr ArchReg secret = 10, offs = 11, slot = 12;
    static constexpr ArchReg leakv = 13, probeAddr = 14, probeVal = 15;
    static constexpr ArchReg targ = 16, paddr = 17, preg = 18;
    static constexpr ArchReg cnt = 20, lim = 21, one = 22, mask = 23;
    static constexpr ArchReg byteMask = 24, nine = 25, acc = 26;
    static constexpr ArchReg chain0 = 27, zero = 28;
};

/**
 * Cold pointer chase: a shuffled cyclic chain of 64-byte nodes. Each
 * node holds its successor's address at +0 and the (benign) bound at
 * +8; offsets +16 and +24 are free for per-round gadget payloads
 * (v2 jump targets, v4 store addresses). Dependent hops through the
 * cold chain are what delay each gadget's squash trigger.
 */
struct ChaseChain
{
    std::vector<std::uint32_t> order;

    Addr
    nodeAddr(unsigned i) const
    {
        return chaseBase + Addr(order[i % chaseNodes]) * 64;
    }
};

ChaseChain
buildChase(ProgramBuilder &b, Rng &rng)
{
    ChaseChain chain;
    chain.order.resize(chaseNodes);
    for (unsigned i = 0; i < chaseNodes; ++i)
        chain.order[i] = i;
    for (unsigned i = chaseNodes - 1; i > 0; --i) {
        const unsigned j = rng.below(i);
        std::swap(chain.order[i], chain.order[j]);
    }
    // The chain is nearly all of the image: one allocation holds it
    // and the gadget's few dozen other words.
    b.memory().reserve(2 * chaseNodes);
    for (unsigned i = 0; i < chaseNodes; ++i) {
        const Addr node = chain.nodeAddr(i);
        const Addr next = chain.nodeAddr(i + 1);
        b.memory().write(node, next);
        b.memory().write(node + 8, inRangeLength); // The bound.
    }
    return chain;
}

/** In-range victim entries are all zero, so architectural execution
 *  only ever warms probe slot 0 (excluded from scoring). The secret
 *  belongs to tenant @p owner (0 for the single-tenant gadgets). */
void
initVictimArrays(ProgramBuilder &b, std::uint8_t secret_byte,
                 TenantId owner = 0)
{
    for (unsigned i = 0; i < inRangeLength; ++i)
        b.memory().write(array1Base + 8 * i, 0);
    b.memory().write(array1Base + secretOffset, secret_byte);
    b.markSecret(array1Base + secretOffset, 8, owner);
}

/** Common register preamble; gadget-specific registers ride along. */
void
emitPreamble(ProgramBuilder &b, const ChaseChain &chain,
             unsigned rounds)
{
    b.movi(Regs::a1, array1Base);
    b.movi(Regs::a2, array2Base);
    b.movi(Regs::idxp, idxArrayBase);
    b.movi(Regs::chase, chain.nodeAddr(0));
    b.movi(Regs::cnt, 0);
    b.movi(Regs::lim, rounds);
    b.movi(Regs::one, 1);
    b.movi(Regs::byteMask, 0xff);
    b.movi(Regs::nine, 9);
    b.movi(Regs::acc, 0);
    b.movi(Regs::chain0, 0);
    b.movi(Regs::zero, 0);
}

/**
 * The shared transmitter: read array1[idx], encode the byte into the
 * residency of probe slot array2[byte * 512]. Transient execution of
 * this sequence with a malicious idx is what every gadget arranges.
 */
std::uint32_t
emitTransmitter(ProgramBuilder &b)
{
    b.add(Regs::offs, Regs::a1, Regs::idx);
    b.load(Regs::secret, Regs::offs, 0);   // Reads the secret.
    b.and_(Regs::secret, Regs::secret, Regs::byteMask);
    b.shl(Regs::slot, Regs::secret, Regs::nine); // * 512.
    b.add(Regs::slot, Regs::a2, Regs::slot);
    // Transmit: warms the slot; its address operand carries the
    // secret label, so this pc is where the contract shadow engine
    // pinpoints an out-of-contract transmit.
    const std::uint32_t transmit_pc = b.load(Regs::leakv, Regs::slot, 0);
    b.add(Regs::acc, Regs::acc, Regs::leakv);
    return transmit_pc;
}

/**
 * Shared receiver: a serialisation barrier of six more cold dependent
 * hops (so no probe load can execute until long after any wrong-path
 * window closed; the harness pauses at the first barrier load to read
 * the residency oracle before the probe pollutes the cache), then a
 * fully serialised timing probe over slots 1..255.
 */
void
emitBarrierAndProbe(ProgramBuilder &b, GadgetProgram &out)
{
    out.barrierPc = b.load(Regs::hop1, Regs::chase, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::hop1, Regs::hop2, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::hop1, Regs::hop2, 0);
    b.load(Regs::bound, Regs::hop1, 0);
    b.and_(Regs::chain0, Regs::bound, Regs::zero);

    for (unsigned v = 1; v < 256; ++v) {
        const std::uint32_t movi_pc =
            b.movi(Regs::probeAddr, array2Base + Addr(v) * probeStride);
        if (v == 1)
            out.firstProbePc = movi_pc + 2;
        b.add(Regs::probeAddr, Regs::probeAddr, Regs::chain0);
        b.load(Regs::probeVal, Regs::probeAddr, 0);
        b.and_(Regs::chain0, Regs::probeVal, Regs::zero);
    }
    b.halt();
}

// ---------------------------------------------------------------------
// Spectre v1 (and the masked false-mitigation variant)
// ---------------------------------------------------------------------

GadgetProgram
buildV1(std::uint8_t secret_byte, std::uint64_t seed, bool masked)
{
    ProgramBuilder b;
    Rng rng(seed);

    initVictimArrays(b, secret_byte);

    // Index sequence: training values, then the malicious index.
    const unsigned rounds = trainingRounds + 1;
    for (unsigned t = 0; t < trainingRounds; ++t)
        b.memory().write(idxArrayBase + 8 * t, t % inRangeLength);
    b.memory().write(idxArrayBase + 8 * trainingRounds, secretOffset);

    const ChaseChain chain = buildChase(b, rng);

    emitPreamble(b, chain, rounds);
    if (masked)
        b.movi(Regs::mask, falseMask);

    const auto round = b.here();
    // Three dependent cold loads delay the bound by ~300 cycles.
    b.load(Regs::hop1, Regs::chase, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::bound, Regs::hop2, 8);
    b.add(Regs::chase, Regs::hop2, Regs::zero); // Advance the head.
    b.load(Regs::idx, Regs::idxp, 0);
    b.addi(Regs::idxp, Regs::idxp, 8);
    if (masked) {
        // The "mitigation": clamp the index before the bounds check.
        // The mask passes secretOffset, so the gadget leaks anyway.
        b.and_(Regs::idx, Regs::idx, Regs::mask);
    }
    const auto skip = b.futureLabel();
    b.bge(Regs::idx, Regs::bound, skip); // The trained bounds check.
    const std::uint32_t transmit_pc = emitTransmitter(b);
    b.bind(skip);
    b.add(Regs::cnt, Regs::cnt, Regs::one);
    // Loop structure matters for receiver hygiene: the exit branch is
    // not-taken through every round, so any mispredicted wrong path
    // falls back *into* the loop, never into the probe code.
    const auto exit_label = b.futureLabel();
    b.beq(Regs::cnt, Regs::lim, exit_label);
    b.jmp(round);
    b.bind(exit_label);

    GadgetProgram out;
    out.transmitPc = transmit_pc;
    emitBarrierAndProbe(b, out);
    out.program = b.build(masked ? "spectre-v1-mask" : "spectre-v1");
    return out;
}

// ---------------------------------------------------------------------
// Spectre v2: indirect-branch target misprediction
// ---------------------------------------------------------------------

GadgetProgram
buildV2(std::uint8_t secret_byte, std::uint64_t seed)
{
    ProgramBuilder b;
    Rng rng(seed);

    initVictimArrays(b, secret_byte);

    const unsigned rounds = trainingRounds + 1;
    for (unsigned t = 0; t < trainingRounds; ++t)
        b.memory().write(idxArrayBase + 8 * t, t % inRangeLength);
    b.memory().write(idxArrayBase + 8 * trainingRounds, secretOffset);

    const ChaseChain chain = buildChase(b, rng);

    emitPreamble(b, chain, rounds);

    const auto round = b.here();
    // The per-round jump target rides on the cold chase, so the
    // indirect branch stays unresolved for ~300 cycles while fetch
    // follows the BTB.
    b.load(Regs::hop1, Regs::chase, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::targ, Regs::hop2, 16); // This round's destination.
    b.add(Regs::chase, Regs::hop2, Regs::zero);
    b.load(Regs::idx, Regs::idxp, 0);
    b.addi(Regs::idxp, Regs::idxp, 8);
    b.jr(Regs::targ);
    // The gadget sits directly after the jr: a cold BTB predicts
    // fall-through, which is also the architectural target of every
    // training round, so training is mispredict-free from round 0.
    const std::uint32_t gadget_pc = b.here();
    const std::uint32_t transmit_pc = emitTransmitter(b);
    // Training rounds fall through the gadget into the join.
    const std::uint32_t join_pc = b.here();
    b.add(Regs::cnt, Regs::cnt, Regs::one);
    const auto exit_label = b.futureLabel();
    b.beq(Regs::cnt, Regs::lim, exit_label);
    b.jmp(round);
    b.bind(exit_label);

    GadgetProgram out;
    out.transmitPc = transmit_pc;
    emitBarrierAndProbe(b, out);

    // Per-round targets, written now that the PCs are known: round r
    // reads its destination from the node its third hop lands on.
    // Training rounds architecturally enter the gadget (with in-range
    // indices); the attack round's architectural target skips it, but
    // the trained BTB sends transient fetch through it with the
    // malicious index.
    for (unsigned r = 0; r < rounds; ++r) {
        const Addr node = chain.nodeAddr(2 * r + 2);
        b.memory().write(node + 16,
                         r < trainingRounds ? gadget_pc : join_pc);
    }

    out.program = b.build("spectre-v2-indirect");
    return out;
}

// ---------------------------------------------------------------------
// Spectre v4: speculative store bypass
// ---------------------------------------------------------------------

GadgetProgram
buildV4(std::uint8_t secret_byte, std::uint64_t seed)
{
    ProgramBuilder b;
    Rng rng(seed);

    initVictimArrays(b, secret_byte);

    // Each round has its own "pointer" slot, pre-loaded with the
    // malicious stale index. The victim sanitises the slot with a
    // store of zero, then immediately reloads it — but the store's
    // address rides on the cold chase, so the load speculatively
    // bypasses the unknown-address store and reads the stale value.
    for (unsigned r = 0; r < ssbRounds; ++r)
        b.memory().write(staleBase + 64 * r, secretOffset);

    const ChaseChain chain = buildChase(b, rng);

    emitPreamble(b, chain, ssbRounds);
    b.movi(Regs::preg, staleBase);

    // Warm the pointer slots so the bypassing load hits in the L1 and
    // the transmitter runs well inside the disambiguation window.
    for (unsigned r = 0; r < ssbRounds; ++r)
        b.load(Regs::hop1, Regs::preg, 64 * r);

    const auto round = b.here();
    b.load(Regs::hop1, Regs::chase, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::paddr, Regs::hop2, 24); // This round's slot address.
    b.add(Regs::chase, Regs::hop2, Regs::zero);
    // The sanitising store: address unknown for ~300 cycles.
    b.store(Regs::paddr, Regs::zero, 0);
    // The victim load of the same slot: address known immediately, so
    // it optimistically bypasses the store and reads the stale index.
    b.load(Regs::idx, Regs::preg, 0);
    const std::uint32_t transmit_pc = emitTransmitter(b);
    b.addi(Regs::preg, Regs::preg, 64);
    b.add(Regs::cnt, Regs::cnt, Regs::one);
    const auto exit_label = b.futureLabel();
    b.beq(Regs::cnt, Regs::lim, exit_label);
    b.jmp(round);
    b.bind(exit_label);

    GadgetProgram out;
    out.transmitPc = transmit_pc;
    emitBarrierAndProbe(b, out);

    // The store's delayed address, parked on the chase like v2's
    // targets: round r's third hop carries staleBase + 64r.
    for (unsigned r = 0; r < ssbRounds; ++r) {
        const Addr node = chain.nodeAddr(2 * r + 2);
        b.memory().write(node + 24, staleBase + 64 * r);
    }

    out.program = b.build("spectre-v4-ssb");
    return out;
}

// ---------------------------------------------------------------------
// Spectre v2 cross-domain: BTB injection across a context switch
// ---------------------------------------------------------------------

/**
 * Attacker tenant A (= 0, the observer) architecturally drives a
 * shared dispatcher `jr targ` at its gadget target for trainingRounds,
 * planting a BTB entry, then context-switches to victim tenant B
 * (= 1, the secret owner). B holds — legitimately — a pointer to its
 * own secret and jumps through the same dispatcher at a target that
 * skips the gadget, with the target riding three cold dependent loads.
 * If predictor state survives the switch, fetch follows A's BTB entry
 * into the gadget with B's registers: B's secret is read and
 * transmitted transiently. B switches back and A reads the probe.
 *
 * The gadget deliberately does NOT sit at the dispatcher's
 * fall-through: a cold (flushed) BTB predicts fall-through, which is a
 * harmless trampoline, so the flush-on-switch policy closes the
 * channel. A retpoline (JmpRegRet) never consults the BTB and closes
 * it the same way.
 */
GadgetProgram
buildV2Cross(std::uint8_t secret_byte, std::uint64_t seed)
{
    ProgramBuilder b;
    Rng rng(seed);

    initVictimArrays(b, secret_byte, /*owner=*/1);
    const ChaseChain chain = buildChase(b, rng);

    // --- Tenant A: training loop ----------------------------------
    emitPreamble(b, chain, trainingRounds);
    b.movi(Regs::idx, 0);               // Public in-range index.
    b.movi(Regs::paddr, targSlotAddr);  // Training-target slot.

    const auto round = b.here();
    const auto exit_a = b.futureLabel();
    b.beq(Regs::cnt, Regs::lim, exit_a);
    b.add(Regs::cnt, Regs::cnt, Regs::one);
    b.load(Regs::targ, Regs::paddr, 0); // = gadget pc (warm).
    // D: the shared dispatcher. A falls into it; B jumps to it.
    const std::uint32_t dispatcher_pc = b.jr(Regs::targ);
    // Fall-through = what a cold BTB predicts: a harmless trampoline.
    b.jmp(round);
    // G: the gadget body (the trained target).
    const std::uint32_t gadget_pc = b.here();
    const std::uint32_t transmit_pc = emitTransmitter(b);
    b.jmp(round);

    b.bind(exit_a);
    b.switchTenant(1);
    // A resumes here after B switches back. The fence keeps any
    // wrong path that runs ahead of a switch marker from renaming
    // receiver code; the fresh chase head gives the barrier a fully
    // cold segment (B walked nodes 0..2).
    b.fence();
    b.movi(Regs::chase, chain.nodeAddr(16));
    GadgetProgram out;
    out.transmitPc = transmit_pc;
    emitBarrierAndProbe(b, out);

    // --- Tenant B: the victim -------------------------------------
    b.tenantEntry(1);
    b.movi(Regs::a1, array1Base);
    b.movi(Regs::a2, array2Base);
    b.movi(Regs::byteMask, 0xff);
    b.movi(Regs::nine, 9);
    b.movi(Regs::acc, 0);
    b.movi(Regs::idx, secretOffset); // B's pointer to B's own secret.
    b.movi(Regs::chase, chain.nodeAddr(0));
    b.load(Regs::hop1, Regs::chase, 0);  // Cold …
    b.load(Regs::hop2, Regs::hop1, 0);   // … serial …
    b.load(Regs::targ, Regs::hop2, 16);  // … ≈300-cycle resolve.
    b.jmp(dispatcher_pc);
    const std::uint32_t b_cont = b.here(); // B's architectural target.
    b.switchTenant(0);
    b.halt();

    // Build-time backpatches now that the pcs are known.
    b.memory().write(targSlotAddr, gadget_pc);
    b.memory().write(chain.nodeAddr(2) + 16, b_cont);

    out.secretOwner = 1;
    out.observer = 0;
    out.program = b.build("spectre-v2-cross");
    return out;
}

// ---------------------------------------------------------------------
// Spectre v1 swapgs-style: branch-path injection across a switch
// ---------------------------------------------------------------------

/**
 * CVE-2019-1125 shape: a shared entry routine resolves a flag through
 * dependent loads and conditionally takes a privileged path that
 * dereferences a caller-supplied pointer. Attacker tenant A trains the
 * branch taken (its flag chain resolves fast to 0, its pointer is
 * public). Victim tenant B's flag chain spans three cold lines and
 * resolves to 1 — architecturally B falls through — but a predictor
 * kept across the switch steers B transiently into the privileged
 * path with B's secret-pointing registers.
 *
 * The privileged path is the branch's TAKEN side, so a flushed
 * predictor (cold bimodal predicts not-taken) closes the channel, as
 * do the conditional-branch software mitigations (SLH, fences). A
 * retpoline is irrelevant here: the gadget must stay armed under it.
 */
GadgetProgram
buildV1Swapgs(std::uint8_t secret_byte, std::uint64_t seed)
{
    ProgramBuilder b;
    Rng rng(seed);

    initVictimArrays(b, secret_byte, /*owner=*/1);
    const ChaseChain chain = buildChase(b, rng);

    // Flag chains (see flagChainA/flagChainB above).
    b.memory().write(flagChainA + 0, flagChainA + 8);
    b.memory().write(flagChainA + 8, flagChainA + 16);
    b.memory().write(flagChainA + 16, 0); // A: flag = 0 → taken.
    b.memory().write(flagChainB + 0, flagChainB + 0x1000);
    b.memory().write(flagChainB + 0x1000, flagChainB + 0x2000);
    b.memory().write(flagChainB + 0x2000, 1); // B: flag = 1 → fall.

    // --- Tenant A: train the privileged path taken ----------------
    emitPreamble(b, chain, trainingRounds);
    b.movi(Regs::idx, 0);             // Public pointer offset.
    b.movi(Regs::preg, flagChainA);   // A's flag chain head.

    const auto round = b.here();
    b.load(Regs::hop1, Regs::preg, 0);
    b.load(Regs::hop2, Regs::hop1, 0);
    b.load(Regs::bound, Regs::hop2, 0); // The flag.
    const auto danger = b.futureLabel();
    const auto b_switch = b.futureLabel();
    b.beq(Regs::bound, Regs::zero, danger);
    // Fall-through: only B's architectural path (flag = 1).
    b.jmp(b_switch);
    // The privileged path: dereference the caller's pointer.
    b.bind(danger);
    const std::uint32_t transmit_pc = emitTransmitter(b);
    b.add(Regs::cnt, Regs::cnt, Regs::one);
    const auto exit_a = b.futureLabel();
    b.beq(Regs::cnt, Regs::lim, exit_a);
    b.jmp(round);

    b.bind(exit_a);
    b.switchTenant(1);
    // A's resume point: fence (wrong-path hygiene, as in the cross-v2
    // gadget), then an all-cold barrier segment.
    b.fence();
    b.movi(Regs::chase, chain.nodeAddr(0));
    GadgetProgram out;
    out.transmitPc = transmit_pc;
    emitBarrierAndProbe(b, out);

    // --- Tenant B: the victim -------------------------------------
    b.tenantEntry(1);
    b.movi(Regs::a1, array1Base);
    b.movi(Regs::a2, array2Base);
    b.movi(Regs::byteMask, 0xff);
    b.movi(Regs::nine, 9);
    b.movi(Regs::acc, 0);
    b.movi(Regs::idx, secretOffset); // B's pointer to B's own secret.
    b.movi(Regs::preg, flagChainB);  // B's (cold) flag chain head.
    b.jmp(round);

    b.bind(b_switch);
    b.switchTenant(0);
    b.halt();

    out.secretOwner = 1;
    out.observer = 0;
    out.program = b.build("spectre-v1-swapgs");
    return out;
}

} // anonymous namespace

const char *
gadgetName(GadgetKind kind)
{
    switch (kind) {
      case GadgetKind::SpectreV1:
        return "spectre-v1";
      case GadgetKind::SpectreV1Mask:
        return "spectre-v1-mask";
      case GadgetKind::SpectreV2Indirect:
        return "spectre-v2-indirect";
      case GadgetKind::SpectreV4StoreBypass:
        return "spectre-v4-ssb";
      case GadgetKind::SpectreV2CrossDomain:
        return "spectre-v2-cross";
      case GadgetKind::SpectreV1Swapgs:
        return "spectre-v1-swapgs";
    }
    sb_panic("unknown gadget kind");
}

std::vector<GadgetKind>
allGadgets()
{
    return {GadgetKind::SpectreV1, GadgetKind::SpectreV1Mask,
            GadgetKind::SpectreV2Indirect,
            GadgetKind::SpectreV4StoreBypass,
            GadgetKind::SpectreV2CrossDomain,
            GadgetKind::SpectreV1Swapgs};
}

GadgetProgram
buildGadgetProgram(GadgetKind kind, std::uint8_t secret_byte,
                   std::uint64_t seed)
{
    sb_assert(secret_byte >= 1,
              "secret byte must be 1..255 (slot 0 is warmed by training)");
    switch (kind) {
      case GadgetKind::SpectreV1:
        return buildV1(secret_byte, seed, false);
      case GadgetKind::SpectreV1Mask:
        return buildV1(secret_byte, seed, true);
      case GadgetKind::SpectreV2Indirect:
        return buildV2(secret_byte, seed);
      case GadgetKind::SpectreV4StoreBypass:
        return buildV4(secret_byte, seed);
      case GadgetKind::SpectreV2CrossDomain:
        return buildV2Cross(secret_byte, seed);
      case GadgetKind::SpectreV1Swapgs:
        return buildV1Swapgs(secret_byte, seed);
    }
    sb_panic("unknown gadget kind");
}

} // namespace sb
