/**
 * @file
 * Unit tests for the cycle engine's hot-path machinery: the indexed
 * issue queue's invariants, the generation-tagged instruction slab,
 * the per-PC decode cache, the timing-wheel event queue, and the
 * histogram-aware stats reset.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"
#include "core/decode_cache.hh"
#include "core/inst_slab.hh"
#include "core/issue_queue.hh"
#include "core/timing_wheel.hh"
#include "isa/program.hh"

namespace
{

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

std::vector<sb::SeqNum>
seqs(sb::IssueQueue &iq)
{
    std::vector<sb::SeqNum> out;
    for (sb::IqEntry *e : iq.inOrder())
        out.push_back(e->seq);
    return out;
}

// --- IssueQueue invariants -------------------------------------------

TEST(IssueQueueIndexed, WakeupViaConsumerListsSetsOnlyMatchingSources)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 10, 11);
    const auto b = makeAdd(slab, 2, 11, 12);
    iq.insert(a, slab.get(a), false, false);
    iq.insert(b, slab.get(b), false, false);

    iq.wakeup(11);
    auto order = iq.inOrder();
    EXPECT_FALSE(order[0]->src1Ready); // a waits on 10.
    EXPECT_TRUE(order[0]->src2Ready);  // a's 11 woke.
    EXPECT_TRUE(order[1]->src1Ready);  // b's 11 woke.
    EXPECT_FALSE(order[1]->src2Ready); // b waits on 12.
}

TEST(IssueQueueIndexed, WakeupOfUnknownRegisterIsANoop)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(4);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 10, 11);
    iq.insert(a, slab.get(a), false, false);
    iq.wakeup(500); // Never registered anywhere.
    EXPECT_FALSE(iq.inOrder()[0]->src1Ready);
    EXPECT_FALSE(iq.inOrder()[0]->src2Ready);
}

TEST(IssueQueueIndexed, StaleConsumerRefsDoNotWakeRecycledSlots)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(2);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 5, 5);
    iq.insert(a, slab.get(a), false, false);
    iq.remove(slab.get(a)); // Leaves stale refs for preg 5 behind.

    const auto b = makeAdd(slab, 2, 6, 7); // Reuses a's IQ slot.
    iq.insert(b, slab.get(b), false, false);
    iq.wakeup(5);
    EXPECT_FALSE(iq.inOrder()[0]->src1Ready);
    EXPECT_FALSE(iq.inOrder()[0]->src2Ready);

    iq.wakeup(6);
    EXPECT_TRUE(iq.inOrder()[0]->src1Ready);
}

TEST(IssueQueueIndexed, AgeOrderSurvivesInterleavedRemovals)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8);
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

    // Slots freed in the middle get reused; order must still hold.
    const auto late = makeAdd(slab, 7, 10, 11);
    iq.insert(late, slab.get(late), true, true);
    EXPECT_EQ(seqs(iq), (std::vector<sb::SeqNum>{2, 4, 5, 7}));
    EXPECT_GE(slab.get(late).iqSlot, 0);
}

TEST(IssueQueueIndexed, SquashCutsYoungEndAndStaleHandles)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8);
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
    EXPECT_EQ(iq.size(), 2u);
}

TEST(IssueQueueIndexed, InOrderViewIsStableBetweenMutations)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(4);
    iq.attachSlab(&slab);
    const auto a = makeAdd(slab, 1, 10, 11);
    iq.insert(a, slab.get(a), false, false);
    const auto &v1 = iq.inOrder();
    const auto &v2 = iq.inOrder();
    EXPECT_EQ(&v1, &v2);
    EXPECT_EQ(v1.size(), 1u);
    // Wakeup mutates ready bits in place; the view needs no rebuild.
    iq.wakeup(10);
    EXPECT_TRUE(iq.inOrder()[0]->src1Ready);
}

TEST(IssueQueueIndexed, FillDrainRefillToCapacity)
{
    sb::InstSlab slab(64);
    sb::IssueQueue iq(3);
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
    // Unconditional jumps are statically taken.
    EXPECT_TRUE(cache.lookup(3).tmpl.predTaken);
    EXPECT_TRUE(cache.lookup(5).tmpl.predTaken);
    EXPECT_FALSE(cache.lookup(0).tmpl.predTaken);
}

TEST(DecodeCache, TemplateCarriesIdentityAndDefaults)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    const auto &d = cache.lookup(1);
    EXPECT_EQ(d.tmpl.pc, 1u);
    EXPECT_EQ(d.tmpl.uop.op, p.code[1].op);
    // Everything dynamic is default: stamping the template is the
    // slab record's reset.
    EXPECT_EQ(d.tmpl.seq, 0u);
    EXPECT_FALSE(d.tmpl.completed);
    EXPECT_FALSE(d.tmpl.squashed);
    EXPECT_EQ(d.tmpl.iqSlot, -1);
}

TEST(DecodeCache, InvalidateForcesRebuild)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    cache.lookup(0);
    cache.lookup(0);
    EXPECT_EQ(cache.misses(), 1u);

    cache.invalidate(0);
    cache.lookup(0); // Must rebuild.
    EXPECT_EQ(cache.misses(), 2u);

    // Other entries are untouched.
    cache.lookup(1);
    cache.invalidate(0);
    cache.lookup(1);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(DecodeCache, InvalidateAllDropsEverything)
{
    const sb::Program p = dc::tinyProgram();
    sb::DecodeCache cache;
    cache.attach(p);
    for (std::uint32_t pc = 0; pc < p.code.size(); ++pc)
        cache.lookup(pc);
    const auto misses_before = cache.misses();
    cache.invalidateAll();
    for (std::uint32_t pc = 0; pc < p.code.size(); ++pc)
        cache.lookup(pc);
    EXPECT_EQ(cache.misses(), 2 * misses_before);
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

// --- Stats reset -----------------------------------------------------

TEST(StatGroupReset, ClearsHistogramsAndCounters)
{
    sb::StatGroup g("test");
    g.counter("ctr") += 5;
    sb::Histogram &h = g.histogram("lat", 8, 2);
    h.sample(3);
    h.sample(9);
    ASSERT_EQ(h.count(), 2u);
    ASSERT_EQ(h.total(), 12u);

    g.reset();
    EXPECT_EQ(g.value("ctr"), 0u);
    EXPECT_EQ(h.count(), 0u);   // The warmup-pollution fix.
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (unsigned i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);
}

} // anonymous namespace
