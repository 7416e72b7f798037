/**
 * @file
 * Unit tests for the cycle engine's hot-path machinery: the indexed
 * issue queue's invariants, wakeup matrix and slot-sweeping squash, the generation-tagged
 * instruction slab, the per-PC decode cache, the timing-wheel event
 * queue, the pipeline rings, the LSU's ticket lookups, the cache's
 * shift-and-mask indexing, and the single-lookup TAGE predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "branch/tage.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "core/decode_cache.hh"
#include "core/inst_slab.hh"
#include "core/issue_queue.hh"
#include "core/lsu.hh"
#include "core/ring.hh"
#include "core/timing_wheel.hh"
#include "iq_order.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "secure/factory.hh"

namespace
{

/** Wakeup-matrix rows for the issue queues below (every register
 *  the tests name is under it). */
constexpr unsigned physRegs = 512;

sb::InstHandle
makeAdd(sb::InstSlab &slab, sb::SeqNum seq, sb::PhysReg src1,
        sb::PhysReg src2)
{
    const sb::InstHandle h = slab.alloc();
    sb::DynInst &inst = slab.get(h);
    inst = sb::DynInst{};
    inst.seq = seq;
    inst.uop.op = sb::Op::Add;
    inst.uop.dst = 1;
    inst.uop.src1 = 2;
    inst.uop.src2 = 3;
    inst.pdst = 40;
    inst.psrc1 = src1;
    inst.psrc2 = src2;
    return h;
}

/** Seqs of every entry, oldest first. */
std::vector<sb::SeqNum>
seqs(sb::IssueQueue &iq)
{
    std::vector<sb::SeqNum> out;
    for (sb::IqEntry *e : sb_test::byAge(iq))
        out.push_back(e->seq);
    return out;
}

// --- IssueQueue invariants -------------------------------------------

TEST(IssueQueueIndexed, WakeupSetsOnlyMatchingSources)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 10, 11);
    const auto b = makeAdd(slab, 2, 11, 12);
    iq.insert(a, slab.get(a), false, false);
    iq.insert(b, slab.get(b), false, false);

    iq.wakeup(11);
    auto order = sb_test::byAge(iq);
    EXPECT_FALSE(order[0]->src1Ready); // a waits on 10.
    EXPECT_TRUE(order[0]->src2Ready);  // a's 11 woke.
    EXPECT_TRUE(order[1]->src1Ready);  // b's 11 woke.
    EXPECT_FALSE(order[1]->src2Ready); // b waits on 12.
}

TEST(IssueQueueIndexed, WakeupOfUnknownRegisterIsANoop)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(4, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 10, 11);
    iq.insert(a, slab.get(a), false, false);
    iq.wakeup(500); // Never registered anywhere.
    EXPECT_FALSE(sb_test::byAge(iq)[0]->src1Ready);
    EXPECT_FALSE(sb_test::byAge(iq)[0]->src2Ready);
}

TEST(IssueQueueIndexed, FreedSlotsDoNotWakeOnTheirOldRegisters)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(2, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 5, 5);
    iq.insert(a, slab.get(a), false, false);
    iq.remove(slab.get(a)); // Must clear the slot's wait on preg 5.

    const auto b = makeAdd(slab, 2, 6, 7); // Reuses a's IQ slot.
    iq.insert(b, slab.get(b), false, false);
    iq.wakeup(5);
    EXPECT_FALSE(sb_test::byAge(iq)[0]->src1Ready);
    EXPECT_FALSE(sb_test::byAge(iq)[0]->src2Ready);

    iq.wakeup(6);
    EXPECT_TRUE(sb_test::byAge(iq)[0]->src1Ready);
}

TEST(IssueQueueIndexed, AgeOrderSurvivesInterleavedRemovals)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    std::vector<sb::InstHandle> insts;
    for (sb::SeqNum s = 1; s <= 6; ++s) {
        insts.push_back(makeAdd(slab, s, 10, 11));
        iq.insert(insts.back(), slab.get(insts.back()), true, true);
    }
    iq.remove(slab.get(insts[2])); // seq 3 (middle).
    iq.remove(slab.get(insts[0])); // seq 1 (head).
    iq.remove(slab.get(insts[5])); // seq 6 (tail).
    EXPECT_EQ(seqs(iq), (std::vector<sb::SeqNum>{2, 4, 5}));
    EXPECT_EQ(sb_test::candidates(iq), seqs(iq));

    // Slots freed in the middle get reused; order must still hold.
    const auto late = makeAdd(slab, 7, 10, 11);
    iq.insert(late, slab.get(late), true, true);
    EXPECT_EQ(seqs(iq), (std::vector<sb::SeqNum>{2, 4, 5, 7}));
    EXPECT_EQ(sb_test::candidates(iq), seqs(iq));
    EXPECT_GE(slab.get(late).iqSlot, 0);
}

TEST(IssueQueueIndexed, SquashCutsYoungEndAndStaleHandles)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    std::vector<sb::InstHandle> insts;
    for (sb::SeqNum s = 1; s <= 5; ++s) {
        insts.push_back(makeAdd(slab, s, 10, 11));
        iq.insert(insts.back(), slab.get(insts.back()), true, true);
    }
    // seq 2's record died in an earlier flush: its handle is stale.
    slab.free(insts[1]);
    // The young-end records are freed before the sweep, as in the
    // core's squash.
    slab.free(insts[3]);
    slab.free(insts[4]);
    iq.squash(3);
    EXPECT_EQ(seqs(iq), (std::vector<sb::SeqNum>{1, 3}));
    EXPECT_EQ(sb_test::candidates(iq), seqs(iq));
    EXPECT_EQ(iq.size(), 2u);
}

TEST(IssueQueueIndexed, SquashSweepsSlotsOutOfAgeOrder)
{
    // Reused slots put young entries in low slots, so slot order is
    // not age order: a squash must sweep every slot, not stop at the
    // first survivor, and must also drop an entry whose record an
    // earlier flush freed.
    sb::InstSlab slab(32);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    std::vector<sb::InstHandle> h(12);
    auto dispatch = [&](sb::SeqNum s) {
        // Even seqs wait on p50, odd seqs are ready candidates.
        h[s] = makeAdd(slab, s, s % 2 == 0 ? 50 : 10, 11);
        iq.insert(h[s], slab.get(h[s]), s % 2 != 0, true);
    };
    for (sb::SeqNum s = 1; s <= 8; ++s)
        dispatch(s); // Slots 0..7 in age order.
    for (sb::SeqNum s : {1, 3, 2}) {
        iq.remove(slab.get(h[s]));
        slab.free(h[s]);
    }
    for (sb::SeqNum s = 9; s <= 11; ++s)
        dispatch(s); // Into the freed slots 0..2.
    ASSERT_TRUE(iq.full());
    EXPECT_LT(slab.get(h[11]).iqSlot, slab.get(h[4]).iqSlot);
    EXPECT_EQ(sb_test::candidates(iq), (std::vector<sb::SeqNum>{5, 7, 9, 11}));

    // seq 5's record died in an earlier flush. The squash after seq 7
    // frees the younger records first, as the core's ROB walk does,
    // except seq 9's, which the queue must unstamp.
    const std::int32_t slot4 = slab.get(h[4]).iqSlot;
    const std::int32_t slot7 = slab.get(h[7]).iqSlot;
    slab.free(h[5]);
    for (sb::SeqNum s : {8, 10, 11})
        slab.free(h[s]);
    iq.squash(7);
    ASSERT_EQ(seqs(iq), (std::vector<sb::SeqNum>{4, 6, 7}));
    EXPECT_EQ(iq.size(), 3u);
    EXPECT_EQ(sb_test::candidates(iq), (std::vector<sb::SeqNum>{7}));
    EXPECT_EQ(slab.get(h[9]).iqSlot, -1);
    EXPECT_EQ(slab.get(h[4]).iqSlot, slot4);
    EXPECT_EQ(slab.get(h[7]).iqSlot, slot7);

    // The survivors wake into the candidate list in age order, and
    // the five freed slots take new entries behind them.
    iq.wakeup(50);
    EXPECT_EQ(sb_test::candidates(iq), (std::vector<sb::SeqNum>{4, 6, 7}));
    for (sb::SeqNum s = 12; s <= 16; ++s) {
        const auto young = makeAdd(slab, s, 10, 11);
        iq.insert(young, slab.get(young), true, true);
    }
    EXPECT_TRUE(iq.full());
    EXPECT_EQ(sb_test::candidates(iq),
              (std::vector<sb::SeqNum>{4, 6, 7, 12, 13, 14, 15, 16}));
}

TEST(IssueQueueIndexed, FillDrainRefillToCapacity)
{
    sb::InstSlab slab(64);
    sb::IssueQueue iq(3, physRegs);
    iq.attachSlab(&slab);
    std::vector<sb::InstHandle> live;
    sb::SeqNum next = 1;
    for (int round = 0; round < 4; ++round) {
        while (!iq.full()) {
            live.push_back(makeAdd(slab, next++, 10, 11));
            iq.insert(live.back(), slab.get(live.back()), true, true);
        }
        EXPECT_EQ(iq.size(), 3u);
        for (const auto h : live) {
            iq.remove(slab.get(h));
            slab.free(h);
        }
        live.clear();
        EXPECT_EQ(iq.size(), 0u);
    }
}

TEST(IssueQueueIndexed, WakeupMatrixSpansTwoWordsPerRegister)
{
    // 96 slots: slots 64..95 live in the second word of every row.
    sb::InstSlab slab(128);
    sb::IssueQueue iq(96, physRegs);
    iq.attachSlab(&slab);
    std::vector<sb::InstHandle> insts;
    for (sb::SeqNum s = 1; s <= 96; ++s) {
        // Odd seqs wait on 100, even seqs on 101; src2 is ready.
        insts.push_back(makeAdd(slab, s, 100 + (s % 2 == 0), 7));
        iq.insert(insts.back(), slab.get(insts.back()), false, true);
    }
    ASSERT_TRUE(iq.full());
    EXPECT_EQ(slab.get(insts[95]).iqSlot, 95);

    iq.wakeup(100);
    std::vector<sb::SeqNum> odd;
    for (sb::SeqNum s = 1; s <= 96; s += 2)
        odd.push_back(s);
    EXPECT_EQ(sb_test::candidates(iq), odd);

    // Free a second-word slot still waiting on 101 and reuse it for a
    // younger entry waiting on the same register: the reused slot must
    // wake exactly once, in age order behind every older candidate.
    sb::DynInst &victim = slab.get(insts[69]); // seq 70, waits on 101.
    ASSERT_GE(victim.iqSlot, 64);
    const std::int32_t slot = victim.iqSlot;
    iq.remove(victim);
    const auto reuse = makeAdd(slab, 200, 101, 101);
    iq.insert(reuse, slab.get(reuse), false, false);
    EXPECT_EQ(slab.get(reuse).iqSlot, slot);

    // A second freed slot, reused by an entry waiting elsewhere, must
    // not wake on its predecessor's register.
    sb::DynInst &other = slab.get(insts[79]); // seq 80, waits on 101.
    const std::int32_t other_slot = other.iqSlot;
    iq.remove(other);
    const auto elsewhere = makeAdd(slab, 201, 102, 7);
    iq.insert(elsewhere, slab.get(elsewhere), false, true);
    EXPECT_EQ(slab.get(elsewhere).iqSlot, other_slot);

    iq.wakeup(101);
    std::vector<sb::SeqNum> want;
    for (sb::SeqNum s = 1; s <= 96; ++s) {
        if (s != 70 && s != 80)
            want.push_back(s);
    }
    want.push_back(200);
    EXPECT_EQ(sb_test::candidates(iq), want);
    EXPECT_FALSE(iq.entryAt(other_slot).src1Ready);

    iq.wakeup(102);
    want.push_back(201);
    EXPECT_EQ(sb_test::candidates(iq), want);
}

// --- Instruction slab ------------------------------------------------

TEST(InstSlab, HandlesAddressTheRecordTheyWereCreatedFor)
{
    sb::InstSlab slab(4);
    const auto a = slab.alloc();
    const auto b = slab.alloc();
    slab.get(a).seq = 1;
    slab.get(b).seq = 2;
    EXPECT_EQ(slab.get(a).seq, 1u);
    EXPECT_EQ(slab.get(b).seq, 2u);
    EXPECT_EQ(slab.liveCount(), 2u);
}

TEST(InstSlab, FreeStalesEveryOutstandingHandle)
{
    sb::InstSlab slab(4);
    const auto h = slab.alloc();
    slab.get(h).seq = 42;
    EXPECT_TRUE(slab.alive(h));
    slab.free(h);
    EXPECT_FALSE(slab.alive(h));
    EXPECT_EQ(slab.tryGet(h), nullptr);
}

TEST(InstSlab, RecycledSlotGetsANewGeneration)
{
    sb::InstSlab slab(1); // Single slot: reuse is guaranteed.
    const auto old = slab.alloc();
    slab.free(old);
    const auto fresh = slab.alloc();
    EXPECT_NE(old, fresh);           // Same index, new generation.
    EXPECT_FALSE(slab.alive(old));   // Old handle stays dead...
    EXPECT_TRUE(slab.alive(fresh));  // ...while the slot lives on.
    EXPECT_EQ(slab.tryGet(old), nullptr);
    EXPECT_EQ(&slab.get(fresh), slab.tryGet(fresh));
}

TEST(InstSlab, TracksHighWaterAndRecycleCounts)
{
    sb::InstSlab slab(8);
    const auto a = slab.alloc();
    const auto b = slab.alloc();
    const auto c = slab.alloc();
    EXPECT_EQ(slab.highWater(), 3u);
    slab.free(a);
    slab.free(b);
    EXPECT_EQ(slab.liveCount(), 1u);
    EXPECT_EQ(slab.highWater(), 3u); // High water never recedes.
    EXPECT_EQ(slab.recycled(), 2u);
    slab.free(c);
    EXPECT_EQ(slab.recycled(), 3u);
}

TEST(InstSlab, InvalidHandleNeverResolves)
{
    sb::InstSlab slab(4);
    EXPECT_FALSE(slab.alive(sb::invalidInstHandle));
    EXPECT_EQ(slab.tryGet(sb::invalidInstHandle), nullptr);
}

// sb_assert is active in every build type, so the generation tag's
// guarantees can be death-tested in release binaries too.
TEST(InstSlabDeath, StaleDereferenceIsCaught)
{
    sb::InstSlab slab(2);
    const auto h = slab.alloc();
    slab.free(h);
    EXPECT_DEATH(slab.get(h), "stale instruction handle");
}

TEST(InstSlabDeath, DoubleFreeIsCaught)
{
    sb::InstSlab slab(2);
    const auto h = slab.alloc();
    slab.free(h);
    EXPECT_DEATH(slab.free(h), "stale or invalid");
}

TEST(InstSlabDeath, OverflowIsCaught)
{
    sb::InstSlab slab(2);
    slab.alloc();
    slab.alloc();
    EXPECT_DEATH(slab.alloc(), "slab overflow");
}

// --- Decode cache ----------------------------------------------------

namespace dc
{

sb::Program
tinyProgram()
{
    sb::ProgramBuilder b;
    b.movi(1, 5);          // 0: Plain
    b.addi(1, 1, -1);      // 1: Plain
    b.bne(1, 0, 1);        // 2: CondBranch (loop to 1)
    b.jmp(5);              // 3: Jmp
    b.nop();               // 4
    b.jr(1);               // 5: JmpReg
    b.halt();              // 6: Halt
    return b.build("tiny");
}

} // namespace dc

TEST(DecodeCache, FirstTouchMissesThenHits)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    const auto &d0 = cache.lookup(0);
    EXPECT_TRUE(d0.valid);
    EXPECT_EQ(cache.misses(), 1u);
    cache.lookup(0);
    cache.lookup(0);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(DecodeCache, ClassifiesFetchKinds)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    EXPECT_EQ(cache.lookup(0).kind, sb::FetchKind::Plain);
    EXPECT_EQ(cache.lookup(2).kind, sb::FetchKind::CondBranch);
    EXPECT_EQ(cache.lookup(3).kind, sb::FetchKind::Jmp);
    EXPECT_EQ(cache.lookup(5).kind, sb::FetchKind::JmpReg);
    EXPECT_EQ(cache.lookup(6).kind, sb::FetchKind::Halt);
}

TEST(DecodeCache, FetchStampsIdentityAndStaticPrediction)
{
    sb::ProgramBuilder b;
    b.movi(1, 3);     // 0
    b.addi(1, 1, -1); // 1
    b.bne(1, 0, 1);   // 2: CondBranch, taken twice
    b.movi(2, 6);     // 3
    b.jmp(5);         // 4: Jmp
    b.jr(2);          // 5: JmpReg to the halt
    b.halt();         // 6
    const sb::Program p = b.build("stamp");

    sb::SchemeConfig scfg;
    sb::Core core(sb::CoreConfig::mega(), scfg, sb::makeScheme(scfg), p);
    std::vector<std::uint32_t> pcs;
    sb::SeqNum last_seq = 0;
    core.setCommitHook([&](const sb::DynInst &inst, sb::Cycle) {
        const sb::MicroOp &op = p.code[inst.pc];
        EXPECT_EQ(inst.uop.op, op.op) << "pc " << inst.pc;
        EXPECT_EQ(inst.uop.dst, op.dst) << "pc " << inst.pc;
        EXPECT_EQ(inst.uop.src1, op.src1) << "pc " << inst.pc;
        EXPECT_EQ(inst.uop.imm, op.imm) << "pc " << inst.pc;
        EXPECT_EQ(inst.uop.target, op.target) << "pc " << inst.pc;
        EXPECT_GT(inst.seq, last_seq);
        last_seq = inst.seq;
        // Unconditional jumps are statically taken; nothing else
        // that falls through is.
        if (op.op == sb::Op::Jmp || op.op == sb::Op::JmpReg) {
            EXPECT_TRUE(inst.predTaken) << "pc " << inst.pc;
        } else if (!op.isBranch()) {
            EXPECT_FALSE(inst.predTaken) << "pc " << inst.pc;
        }
        pcs.push_back(inst.pc);
    });
    const sb::RunResult r = core.run(1000, 10'000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(pcs, (std::vector<std::uint32_t>{0, 1, 2, 1, 2, 1, 2, 3,
                                               4, 5, 6}));
}

TEST(DecodeCache, AttachResetsCountersAndResizes)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    cache.lookup(0);
    cache.lookup(0);

    sb::ProgramBuilder b;
    b.halt();
    const sb::Program q = b.build("one-op");
    cache.attach(q);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.lookup(0).kind, sb::FetchKind::Halt);
}

// --- Timing wheel ----------------------------------------------------

TEST(TimingWheel, DrainsAtExactCycleInFifoOrder)
{
    sb::TimingWheel<int> wheel(64);
    wheel.push(12, 10, 1);
    wheel.push(11, 10, 2);
    wheel.push(12, 10, 3);

    std::vector<int> got;
    auto take = [&](int v) { got.push_back(v); };
    wheel.drainDue(11, take);
    EXPECT_EQ(got, (std::vector<int>{2}));
    got.clear();
    wheel.drainDue(12, take);
    EXPECT_EQ(got, (std::vector<int>{1, 3}));
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, PastEventsClampToNextCycle)
{
    // Matches the old priority-queue engine: a same-cycle push is
    // seen by the *next* cycle's drain (this cycle's already ran).
    sb::TimingWheel<int> wheel(64);
    wheel.push(10, 10, 1);
    wheel.push(5, 10, 2);
    std::vector<int> got;
    wheel.drainDue(11, [&](int v) { got.push_back(v); });
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, OverflowBeyondHorizonStillFires)
{
    sb::TimingWheel<int> wheel(16); // Rounds up to 32 buckets.
    EXPECT_EQ(wheel.bucketCount(), 32u);
    wheel.push(1000, 1, 7);
    std::vector<int> got;
    for (sb::Cycle c = 2; c <= 1000; ++c)
        wheel.drainDue(c, [&](int v) { got.push_back(v); });
    EXPECT_EQ(got, (std::vector<int>{7}));
}

TEST(TimingWheel, HandlersMayPushFutureEvents)
{
    sb::TimingWheel<int> wheel(64);
    wheel.push(5, 4, 1);
    std::vector<int> got;
    wheel.drainDue(5, [&](int v) {
        got.push_back(v);
        if (v == 1)
            wheel.push(6, 5, 2);
    });
    wheel.drainDue(6, [&](int v) { got.push_back(v); });
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, NextDueFindsTheEarliestBucketEvent)
{
    sb::TimingWheel<int> wheel(64);
    EXPECT_EQ(wheel.nextDue(10, 500), 500u); // Empty: the bound.
    wheel.push(40, 10, 1);
    wheel.push(25, 10, 2);
    EXPECT_EQ(wheel.nextDue(10, 500), 25u);
    EXPECT_EQ(wheel.nextDue(24, 500), 25u);
    // An event at or past the bound is not reported.
    EXPECT_EQ(wheel.nextDue(10, 25), 25u);
    EXPECT_EQ(wheel.nextDue(10, 20), 20u);
}

TEST(TimingWheel, NextDueSeesOverflowEvents)
{
    sb::TimingWheel<int> wheel(16); // 32 buckets.
    wheel.push(1000, 1, 7);
    EXPECT_EQ(wheel.nextDue(1, 5000), 1000u);
    EXPECT_EQ(wheel.nextDue(1, 900), 900u);
    wheel.push(20, 1, 8); // A bucket event ahead of the overflow one.
    EXPECT_EQ(wheel.nextDue(1, 5000), 20u);
}

TEST(TimingWheel, DrainAfterSkippedCyclesFiresOnTime)
{
    // Jump straight to each nextDue() cycle, as the core's idle skip
    // does: the overflow event is reaped on the jump and every event
    // fires exactly once, at its own cycle.
    sb::TimingWheel<int> wheel(16);
    wheel.push(1000, 1, 7);
    wheel.push(20, 1, 8);
    std::vector<std::pair<sb::Cycle, int>> got;
    sb::Cycle now = 1;
    while (!wheel.empty()) {
        now = wheel.nextDue(now, 1'000'000);
        wheel.drainDue(now, [&](int v) { got.emplace_back(now, v); });
    }
    EXPECT_EQ(got, (std::vector<std::pair<sb::Cycle, int>>{{20, 8},
                                                           {1000, 7}}));
}

TEST(TimingWheel, FifoOrderHoldsAcrossPoolGrowth)
{
    // A four-node pool doubles several times; each bucket keeps push
    // order, also when a drained bucket fills again a lap later.
    sb::TimingWheel<int> wheel(64, 4);
    EXPECT_EQ(wheel.poolCapacity(), 4u);
    std::vector<int> want10, want11, wantLap;
    for (int v = 0; v < 40; ++v) {
        wheel.push(v % 2 ? 11 : 10, 9, v);
        (v % 2 ? want11 : want10).push_back(v);
    }
    EXPECT_GE(wheel.poolCapacity(), 40u);
    std::vector<int> got;
    auto take = [&](int v) { got.push_back(v); };
    wheel.drainDue(10, take);
    EXPECT_EQ(got, want10);
    // One lap later, cycle 10's bucket fills again.
    const sb::Cycle lap = 10 + wheel.bucketCount();
    for (int v = 100; v < 110; ++v) {
        wheel.push(lap, 11, v);
        wantLap.push_back(v);
    }
    got.clear();
    wheel.drainDue(11, take);
    EXPECT_EQ(got, want11);
    got.clear();
    wheel.drainDue(lap, take);
    EXPECT_EQ(got, wantLap);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, HandlerPushThatGrowsThePoolMidDrain)
{
    // The two due events fill the pool; the first handler's pushes
    // grow (and move) it before the handler reads its own event, and
    // the drain must still reach the second event.
    sb::TimingWheel<int> wheel(64, 2);
    wheel.push(5, 4, 1);
    wheel.push(5, 4, 2);
    std::vector<int> got;
    wheel.drainDue(5, [&](int &v) {
        if (v == 1) {
            for (int w = 10; w < 30; ++w)
                wheel.push(6, 5, w);
        }
        got.push_back(v);
    });
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
    EXPECT_GT(wheel.poolCapacity(), 2u);
    got.clear();
    wheel.drainDue(6, [&](int v) { got.push_back(v); });
    std::vector<int> want;
    for (int w = 10; w < 30; ++w)
        want.push_back(w);
    EXPECT_EQ(got, want);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, MaturedOverflowAppendsBehindPooledBucketEvents)
{
    sb::TimingWheel<int> wheel(16, 2); // 32 buckets, two nodes.
    wheel.push(40, 1, 1);  // 39 ahead: the overflow lane.
    wheel.push(40, 10, 2); // 30 ahead: straight into the bucket.
    wheel.push(20, 10, 3);
    wheel.push(21, 10, 4); // Third node: the pool grows.
    EXPECT_EQ(wheel.nextDue(10, 5000), 20u);
    EXPECT_EQ(wheel.nextDue(20, 5000), 21u);
    EXPECT_EQ(wheel.nextDue(21, 39), 39u);
    std::vector<std::pair<sb::Cycle, int>> got;
    sb::Cycle now = 10;
    while (!wheel.empty()) {
        now = wheel.nextDue(now, 1'000'000);
        wheel.drainDue(now, [&](int v) { got.emplace_back(now, v); });
    }
    // Event 1 joins cycle 40's bucket when it matures (at the drain of
    // cycle 20), behind event 2, which was pushed there first.
    EXPECT_EQ(got, (std::vector<std::pair<sb::Cycle, int>>{
                       {20, 3}, {21, 4}, {40, 2}, {40, 1}}));
}

TEST(TimingWheel, ClearReturnsEveryNodeToThePool)
{
    sb::TimingWheel<int> wheel(64, 8);
    for (int round = 0; round < 3; ++round) {
        for (int v = 0; v < 8; ++v)
            wheel.push(20 + v % 3, 10, v);
        EXPECT_EQ(wheel.size(), 8u);
        wheel.clear();
        EXPECT_TRUE(wheel.empty());
        EXPECT_EQ(wheel.nextDue(10, 500), 500u);
    }
    EXPECT_EQ(wheel.poolCapacity(), 8u);
    // The refilled wheel still drains in order.
    for (int v = 0; v < 8; ++v)
        wheel.push(20, 10, v);
    std::vector<int> got;
    wheel.drainDue(20, [&](int v) { got.push_back(v); });
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(wheel.poolCapacity(), 8u);
}

// --- Ring ------------------------------------------------------------

std::vector<int>
contents(const sb::Ring<int> &r)
{
    std::vector<int> out;
    for (int v : r)
        out.push_back(v);
    return out;
}

TEST(Ring, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(sb::Ring<int>(5).capacity(), 8u);
    EXPECT_EQ(sb::Ring<int>(8).capacity(), 8u);
    EXPECT_EQ(sb::Ring<int>(1).capacity(), 1u);
}

TEST(Ring, WrapsAroundInFifoOrder)
{
    sb::Ring<int> r(4);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 3; ++i)
            r.push_back(round * 10 + i);
        EXPECT_EQ(r.front(), round * 10);
        EXPECT_EQ(r.back(), round * 10 + 2);
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(r.front(), round * 10 + i);
            r.pop_front();
        }
        EXPECT_TRUE(r.empty());
    }
    EXPECT_EQ(r.capacity(), 4u); // Never grew.
}

TEST(Ring, IndexesFromTheFrontAfterAWrap)
{
    sb::Ring<int> r(4);
    for (int i = 0; i < 3; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    r.push_back(3);
    r.push_back(4);
    r.push_back(5); // Storage now wraps: 4 and 5 sit before 2 and 3.
    ASSERT_EQ(r.size(), 4u);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(i) + 2);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 3, 4, 5}));
    r.pop_back();
    EXPECT_EQ(r.back(), 4);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 3, 4}));
}

TEST(Ring, GrowsWhenFullKeepingOrder)
{
    sb::Ring<int> r(4);
    r.push_back(0);
    r.push_back(1);
    r.pop_front();
    for (int i = 2; i <= 4; ++i)
        r.push_back(i); // Full and wrapped: 1 2 3 4.
    r.push_back(5);     // Doubles.
    EXPECT_EQ(r.capacity(), 8u);
    EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 4, 5}));
    for (int i = 6; i <= 12; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 16u);
    EXPECT_EQ(r.front(), 1);
    EXPECT_EQ(r[11], 12);
}

TEST(Ring, ClearEmptiesAndRestartsAtTheFront)
{
    sb::Ring<int> r(4);
    for (int i = 0; i < 3; ++i)
        r.push_back(i);
    r.pop_front();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.begin(), r.end());
    r.push_back(7);
    EXPECT_EQ(r.front(), 7);
    EXPECT_EQ(r.back(), 7);
    EXPECT_EQ(contents(r), (std::vector<int>{7}));
}

// --- LSU ticket lookups ------------------------------------------------

TEST(LsuTickets, LookupsHoldAcrossWrapsAndSquashes)
{
    // Four-entry queues with up to three store/load pairs in flight:
    // each pair is looked up only after younger pairs were allocated
    // and older ones retired, so every lookup lands at ticket minus a
    // moved head ticket. 60 rounds wrap the rings about 15 times, and
    // every fifth round squashes the youngest pair, so its tickets are
    // handed out again. Every lookup asserts the entry's seq; the
    // violation victim and the drained data check that the right entry
    // was updated. Each round's load also stalls on its own store,
    // whose address is known but whose data is not, and is parked on
    // that store through the outcome's ticket: the store's data half
    // must hand back exactly that load.
    struct Pair
    {
        sb::InstHandle st;
        sb::InstHandle ld;
        sb::Addr addr;
    };
    sb::InstSlab slab(64);
    sb::Lsu lsu(4, 4);
    std::vector<Pair> live; // Oldest first.
    std::vector<sb::InstHandle> woken;
    sb::SeqNum seq = 0;
    auto make = [&](sb::Op op) {
        const sb::InstHandle h = slab.alloc();
        sb::DynInst &inst = slab.get(h);
        inst = sb::DynInst{};
        inst.seq = ++seq;
        inst.uop.op = op;
        return h;
    };
    auto retire_oldest = [&] {
        const Pair p = live.front();
        live.erase(live.begin());
        sb::DynInst &load = slab.get(p.ld);
        load.effAddr = p.addr;
        load.effAddrValid = true;
        lsu.loadDataReturned(load, sb::invalidSeqNum);

        sb::DynInst &store = slab.get(p.st);
        store.effAddr = p.addr;
        store.effAddrValid = true;
        lsu.storeAddrReady(store);
        const sb::LqEntry *victim = lsu.checkViolation(store);
        ASSERT_NE(victim, nullptr);
        EXPECT_EQ(victim->handle, p.ld);
        woken.clear();
        lsu.storeDataReady(store, p.addr + 1, woken);
        EXPECT_EQ(woken, std::vector<sb::InstHandle>{p.ld});

        lsu.releaseLoad(load);
        lsu.markStoreCommitted(store);
        ASSERT_NE(lsu.drainableStore(), nullptr);
        EXPECT_EQ(lsu.drainableStore()->data, p.addr + 1);
        EXPECT_EQ(lsu.drainableStore()->addr, p.addr);
        lsu.popDrainedStore();
        slab.free(p.st);
        slab.free(p.ld);
    };
    unsigned late_parks = 0;
    for (int round = 0; round < 60; ++round) {
        Pair p{make(sb::Op::Store), make(sb::Op::Load),
               0x1000 + 8 * static_cast<sb::Addr>(round)};
        lsu.allocateStore(slab.get(p.st));
        lsu.allocateLoad(p.ld, slab.get(p.ld));
        live.push_back(p);

        sb::DynInst &store = slab.get(p.st);
        store.effAddr = p.addr;
        store.effAddrValid = true;
        lsu.storeAddrReady(store);
        sb::DynInst &load = slab.get(p.ld);
        load.effAddr = p.addr;
        load.effAddrValid = true;
        const sb::ForwardOutcome stall = lsu.checkForwarding(load);
        ASSERT_EQ(stall.kind, sb::ForwardOutcome::Kind::StallData);
        EXPECT_EQ(stall.source, store.seq);
        EXPECT_EQ(stall.sourceTicket, store.sqTicket);
        lsu.addForwardWaiter(stall, p.ld);
        if (store.sqTicket >= 3 * 4)
            ++late_parks; // Parked after three SQ wraps.

        if (round % 5 == 4) {
            // Squash the youngest pair (wrong path).
            lsu.squash(slab.get(p.st).seq - 1);
            slab.free(p.st);
            slab.free(p.ld);
            live.pop_back();
        }
        ASSERT_EQ(lsu.sqSize(), live.size());
        ASSERT_EQ(lsu.lqSize(), live.size());
        if (live.size() == 3)
            retire_oldest();
    }
    while (!live.empty())
        retire_oldest();
    EXPECT_EQ(lsu.sqSize(), 0u);
    EXPECT_EQ(lsu.lqSize(), 0u);
    EXPECT_GE(late_parks, 40u);
}

// --- Cache indexing ------------------------------------------------------

/** The tag model with the division formulas for line, set and tag
 *  (the same LRU policy as sb::Cache). */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const sb::CacheConfig &c)
        : cfg(c), sets(c.sizeBytes / (c.lineBytes * c.assoc)),
          lines(static_cast<std::size_t>(sets) * c.assoc)
    {
    }

    std::optional<sb::Cycle>
    probe(sb::Addr addr, sb::Cycle now)
    {
        if (Line *l = find(addr)) {
            l->lastUse = now;
            return std::max(now + cfg.latency, l->readyAt + cfg.latency);
        }
        return std::nullopt;
    }

    bool contains(sb::Addr addr) { return find(addr) != nullptr; }

    void
    insert(sb::Addr addr, sb::Cycle now, sb::Cycle ready_at)
    {
        if (Line *l = find(addr)) {
            l->readyAt = std::min(l->readyAt, ready_at);
            return;
        }
        Line *victim = nullptr;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            Line &l = way(addr, w);
            if (!l.valid) {
                if (!victim || victim->valid)
                    victim = &l;
            } else if (!victim
                       || (victim->valid && l.lastUse < victim->lastUse)) {
                victim = &l;
            }
        }
        victim->valid = true;
        victim->tag = (addr / cfg.lineBytes) / sets;
        victim->lastUse = now;
        victim->readyAt = ready_at;
    }

  private:
    struct Line
    {
        sb::Addr tag = 0;
        sb::Cycle lastUse = 0;
        sb::Cycle readyAt = 0;
        bool valid = false;
    };

    Line &
    way(sb::Addr addr, unsigned w)
    {
        const sb::Addr set = (addr / cfg.lineBytes) % sets;
        return lines[static_cast<std::size_t>(set) * cfg.assoc + w];
    }

    Line *
    find(sb::Addr addr)
    {
        const sb::Addr tag = (addr / cfg.lineBytes) / sets;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            Line &l = way(addr, w);
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    sb::CacheConfig cfg;
    unsigned sets;
    std::vector<Line> lines;
};

TEST(CacheIndexing, MatchesTheDivisionFormulas)
{
    for (unsigned line_bytes : {32u, 128u}) {
        for (unsigned assoc : {1u, 16u}) {
            sb::CacheConfig cfg;
            cfg.sizeBytes = 8 * 1024;
            cfg.lineBytes = line_bytes;
            cfg.assoc = assoc;
            sb::Cache cache("t", cfg);
            ReferenceCache ref(cfg);
            sb::Rng rng(line_bytes * 100 + assoc);
            sb::Cycle now = 0;
            for (int i = 0; i < 20000; ++i) {
                // Mostly a 64 KiB window (hits and conflicts), with
                // some addresses near the top of the address space.
                sb::Addr addr = rng.below(64 * 1024);
                if (rng.below(8) == 0)
                    addr = ~sb::Addr(0) - rng.below(1 << 20);
                now += 1 + rng.below(3);
                const auto got = cache.probe(addr, now);
                ASSERT_EQ(got, ref.probe(addr, now))
                    << line_bytes << "B x" << assoc << " #" << i;
                if (!got) {
                    cache.insert(addr, now, now + 20);
                    ref.insert(addr, now, now + 20);
                }
                const sb::Addr other = rng.below(64 * 1024);
                ASSERT_EQ(cache.contains(other), ref.contains(other));
            }
        }
    }
}

// --- TAGE ------------------------------------------------------------------

} // anonymous namespace

namespace sb
{

/** Test access to TagePredictor's tables. */
struct TagePredictorPeek
{
    static const std::vector<std::uint8_t> &
    base(const TagePredictor &p)
    {
        return p.base;
    }

    /** Component @p c's entries as (tag, ctr, useful) triples. */
    static std::vector<std::tuple<std::uint16_t, int, unsigned>>
    component(const TagePredictor &p, unsigned c)
    {
        std::vector<std::tuple<std::uint16_t, int, unsigned>> out;
        for (const auto &e : p.components[c].entries)
            out.emplace_back(e.tag, e.ctr, e.useful);
        return out;
    }

    static std::uint64_t allocSeed(const TagePredictor &p)
    {
        return p.allocSeed;
    }
};

} // namespace sb

namespace
{

/** The predictor as it was written before the single-lookup rewrite:
 *  provider(), index() and tag() recomputed at every use. */
class ReferenceTage
{
    unsigned logEntries;

  public:
    explicit ReferenceTage(unsigned log_entries)
        : logEntries(log_entries), base(1u << (log_entries + 2), 1)
    {
        for (unsigned len : {8u, 16u, 32u, 64u})
            components.push_back({len, std::vector<Entry>(1u << log_entries)});
    }

    bool
    predict(std::uint64_t pc, std::uint64_t hist) const
    {
        const int p = provider(pc, hist);
        if (p >= 0) {
            const Component &c = components[p];
            return c.entries[index(c, pc, hist)].ctr >= 0;
        }
        return base[pc % base.size()] >= 2;
    }

    void
    update(std::uint64_t pc, std::uint64_t hist, bool taken)
    {
        const int p = provider(pc, hist);
        const bool correct = predict(pc, hist) == taken;
        if (p >= 0) {
            Component &c = components[p];
            Entry &e = c.entries[index(c, pc, hist)];
            if (taken && e.ctr < 3)
                ++e.ctr;
            else if (!taken && e.ctr > -4)
                --e.ctr;
            if (correct && e.useful < 3)
                ++e.useful;
            else if (!correct && e.useful > 0)
                --e.useful;
        } else {
            auto &ctr = base[pc % base.size()];
            if (taken && ctr < 3)
                ++ctr;
            else if (!taken && ctr > 0)
                --ctr;
        }
        if (!correct && p < static_cast<int>(components.size()) - 1) {
            allocSeed = allocSeed * 6364136223846793005ULL
                        + 1442695040888963407ULL;
            const unsigned start = p + 1
                + static_cast<unsigned>((allocSeed >> 33)
                                        % (components.size() - p - 1));
            bool allocated = false;
            for (unsigned i = start; i < components.size() && !allocated;
                 ++i) {
                Component &c = components[i];
                Entry &e = c.entries[index(c, pc, hist)];
                if (e.useful == 0) {
                    e.tag = tag(c, pc, hist);
                    e.ctr = taken ? 0 : -1;
                    e.useful = 0;
                    allocated = true;
                }
            }
            if (!allocated) {
                for (unsigned i = p + 1; i < components.size(); ++i) {
                    Component &c = components[i];
                    Entry &e = c.entries[index(c, pc, hist)];
                    if (e.useful > 0)
                        --e.useful;
                }
            }
        }
    }

    std::vector<std::uint8_t> base;

    struct Entry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;
        std::uint8_t useful = 0;
    };
    struct Component
    {
        unsigned historyLength;
        std::vector<Entry> entries;
    };
    std::vector<Component> components;
    std::uint64_t allocSeed = 0x1234;

  private:
    static std::uint64_t
    fold(std::uint64_t hist, unsigned len, unsigned bits)
    {
        if (len < 64)
            hist &= (1ULL << len) - 1;
        std::uint64_t folded = 0;
        for (unsigned i = 0; i < len; i += bits)
            folded ^= (hist >> i);
        return folded & ((1ULL << bits) - 1);
    }

    unsigned
    index(const Component &c, std::uint64_t pc, std::uint64_t hist) const
    {
        const std::uint64_t h = fold(hist, c.historyLength, logEntries);
        return (pc ^ (pc >> logEntries) ^ h) & (c.entries.size() - 1);
    }

    std::uint16_t
    tag(const Component &c, std::uint64_t pc, std::uint64_t hist) const
    {
        const std::uint64_t h = fold(hist, c.historyLength, 9);
        return static_cast<std::uint16_t>((pc ^ (pc >> 7) ^ (h << 1))
                                          & 0x1ff);
    }

    int
    provider(std::uint64_t pc, std::uint64_t hist) const
    {
        for (int i = static_cast<int>(components.size()) - 1; i >= 0; --i) {
            const Component &c = components[i];
            if (c.entries[index(c, pc, hist)].tag == tag(c, pc, hist))
                return i;
        }
        return -1;
    }
};

TEST(TagePredictor, MatchesTheReferenceAlgorithm)
{
    for (unsigned log_entries : {6u, 10u}) {
        sb::TagePredictor tage(log_entries);
        ReferenceTage ref(log_entries);
        sb::Rng rng(log_entries);
        std::uint64_t hist = 0;
        for (int i = 0; i < 200000; ++i) {
            // A few hundred static branches with biased, history- and
            // pc-correlated outcomes, so every component allocates,
            // hits and decays.
            const std::uint64_t pc = rng.below(600);
            const bool want = ref.predict(pc, hist);
            ASSERT_EQ(tage.predict(pc, hist), want) << "#" << i;
            const bool taken = (((pc * 0x9E37) >> 5) & 3) != 0
                               ? ((hist >> (pc % 13)) & 1) != (pc & 1)
                               : rng.below(4) == 0;
            tage.update(pc, hist, taken);
            ref.update(pc, hist, taken);
            hist = (hist << 1) | (taken ? 1u : 0u);
        }
        EXPECT_EQ(sb::TagePredictorPeek::base(tage), ref.base);
        EXPECT_EQ(sb::TagePredictorPeek::allocSeed(tage), ref.allocSeed);
        for (unsigned c = 0; c < 4; ++c) {
            std::vector<std::tuple<std::uint16_t, int, unsigned>> want;
            for (const auto &e : ref.components[c].entries)
                want.emplace_back(e.tag, e.ctr, e.useful);
            EXPECT_EQ(sb::TagePredictorPeek::component(tage, c), want)
                << "component " << c;
        }
    }
}

} // anonymous namespace
