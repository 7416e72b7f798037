/**
 * @file
 * Unit tests for the core's microarchitectural components: rename
 * map, issue queue, LSU, shadow tracker, and the contract shadow's
 * STT/NDA obligation checks.
 *
 * Components address instructions through InstSlab handles, so each
 * test owns a small slab and the helpers hand back handles.
 */

#include <gtest/gtest.h>

#include "core/contract_shadow.hh"
#include "core/inst_slab.hh"
#include "core/issue_queue.hh"
#include "core/lsu.hh"
#include "core/rename_map.hh"
#include "core/shadow_tracker.hh"
#include "iq_order.hh"

namespace
{

/** Wakeup-matrix rows for the issue queues below (every register
 *  the tests name is under it). */
constexpr unsigned physRegs = 512;

sb::InstHandle
makeInst(sb::InstSlab &slab, sb::SeqNum seq, sb::Op op)
{
    const sb::InstHandle h = slab.alloc();
    sb::DynInst &inst = slab.get(h);
    inst = sb::DynInst{};
    inst.seq = seq;
    inst.uop.op = op;
    return h;
}

sb::InstHandle
makeLoad(sb::InstSlab &slab, sb::SeqNum seq, sb::PhysReg dst = 10,
         sb::PhysReg base = 11)
{
    const sb::InstHandle h = makeInst(slab, seq, sb::Op::Load);
    sb::DynInst &inst = slab.get(h);
    inst.uop.dst = 1;
    inst.uop.src1 = 2;
    inst.pdst = dst;
    inst.psrc1 = base;
    return h;
}

sb::InstHandle
makeStore(sb::InstSlab &slab, sb::SeqNum seq, sb::PhysReg base = 12,
          sb::PhysReg data = 13)
{
    const sb::InstHandle h = makeInst(slab, seq, sb::Op::Store);
    sb::DynInst &inst = slab.get(h);
    inst.uop.src1 = 2;
    inst.uop.src2 = 3;
    inst.psrc1 = base;
    inst.psrc2 = data;
    return h;
}

// --- RenameMap -------------------------------------------------------

TEST(RenameMap, InitialIdentityMapping)
{
    sb::RenameMap map(sb::numArchRegs, 64);
    for (unsigned i = 0; i < sb::numArchRegs; ++i)
        EXPECT_EQ(map.lookup(i), i);
    EXPECT_EQ(map.freeCount(), 64u - sb::numArchRegs);
}

TEST(RenameMap, AllocateUpdatesMapping)
{
    sb::RenameMap map(sb::numArchRegs, 64);
    sb::PhysReg stale;
    const sb::PhysReg fresh = map.allocate(5, stale);
    EXPECT_EQ(stale, 5);
    EXPECT_EQ(map.lookup(5), fresh);
    EXPECT_NE(fresh, stale);
}

TEST(RenameMap, UnwindRestoresExactly)
{
    sb::RenameMap map(sb::numArchRegs, 64);
    sb::PhysReg stale1, stale2;
    const sb::PhysReg p1 = map.allocate(5, stale1);
    const sb::PhysReg p2 = map.allocate(5, stale2);
    EXPECT_EQ(stale2, p1);
    const unsigned free_before = map.freeCount();
    // Youngest-first walk-back.
    map.unwind(5, p2, stale2);
    EXPECT_EQ(map.lookup(5), p1);
    map.unwind(5, p1, stale1);
    EXPECT_EQ(map.lookup(5), 5);
    EXPECT_EQ(map.freeCount(), free_before + 2);
}

TEST(RenameMap, OutOfOrderUnwindDies)
{
    sb::RenameMap map(sb::numArchRegs, 64);
    sb::PhysReg stale1, stale2;
    const sb::PhysReg p1 = map.allocate(5, stale1);
    map.allocate(5, stale2);
    EXPECT_DEATH(map.unwind(5, p1, stale1), "unwind out of order");
}

TEST(RenameMap, ExhaustsFreeList)
{
    sb::RenameMap map(sb::numArchRegs, sb::numArchRegs + 2);
    sb::PhysReg stale;
    map.allocate(0, stale);
    map.allocate(1, stale);
    EXPECT_EQ(map.freeCount(), 0u);
}

// --- IssueQueue ------------------------------------------------------

TEST(IssueQueue, InsertNormalisesMissingSources)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(4, physRegs);
    iq.attachSlab(&slab);
    const auto h = makeInst(slab, 1, sb::Op::MovImm);
    slab.get(h).uop.dst = 1;
    iq.insert(h, slab.get(h), false, false);
    auto order = sb_test::byAge(iq);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_TRUE(order[0]->src1Ready);
    EXPECT_TRUE(order[0]->src2Ready);
}

TEST(IssueQueue, WakeupSetsMatchingSources)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(4, physRegs);
    iq.attachSlab(&slab);
    const auto h = makeInst(slab, 1, sb::Op::Add);
    sb::DynInst &inst = slab.get(h);
    inst.uop.dst = 1;
    inst.uop.src1 = 2;
    inst.uop.src2 = 3;
    inst.psrc1 = 21;
    inst.psrc2 = 22;
    iq.insert(h, inst, false, false);
    iq.wakeup(21);
    auto order = sb_test::byAge(iq);
    EXPECT_TRUE(order[0]->src1Ready);
    EXPECT_FALSE(order[0]->src2Ready);
    iq.wakeup(22);
    EXPECT_TRUE(sb_test::byAge(iq)[0]->src2Ready);
}

TEST(IssueQueue, CandidateListSortsBySeq)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    // The core dispatches in program order; the list must not rely on
    // it.
    const auto c = makeLoad(slab, 30);
    const auto a = makeLoad(slab, 10);
    const auto b = makeLoad(slab, 20);
    iq.insert(c, slab.get(c), true, true);
    iq.insert(a, slab.get(a), true, true);
    iq.insert(b, slab.get(b), true, true);
    EXPECT_EQ(sb_test::candidates(iq),
              (std::vector<sb::SeqNum>{10, 20, 30}));
}

TEST(IssueQueue, SquashDropsYounger)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeLoad(slab, 10);
    const auto b = makeLoad(slab, 20);
    const auto c = makeLoad(slab, 30);
    iq.insert(a, slab.get(a), true, true);
    iq.insert(b, slab.get(b), true, true);
    iq.insert(c, slab.get(c), true, true);
    // The core frees squashed records before sweeping the queue.
    slab.free(b);
    slab.free(c);
    iq.squash(15);
    auto order = sb_test::byAge(iq);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0]->seq, 10u);
}

TEST(IssueQueue, SquashSweepsStaleHandlesOfSurvivingSeq)
{
    // A defensive property of the handle migration: even an entry
    // whose seq predates the squash point is dropped if its record
    // died (cannot happen in the core's flow, but the queue must not
    // keep a dangling handle).
    sb::InstSlab slab(16);
    sb::IssueQueue iq(8, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeLoad(slab, 10);
    iq.insert(a, slab.get(a), true, true);
    slab.free(a);
    iq.squash(100);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IssueQueue, FullAndRemove)
{
    sb::InstSlab slab(16);
    sb::IssueQueue iq(2, physRegs);
    iq.attachSlab(&slab);
    const auto a = makeLoad(slab, 1);
    const auto b = makeLoad(slab, 2);
    iq.insert(a, slab.get(a), true, true);
    iq.insert(b, slab.get(b), true, true);
    EXPECT_TRUE(iq.full());
    iq.remove(slab.get(a));
    EXPECT_FALSE(iq.full());
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_EQ(slab.get(a).iqSlot, -1);
}

// --- LSU -------------------------------------------------------------

namespace lsu_detail
{

/** Set a store's generated address and publish it to the SQ. */
void
storeAddr(sb::Lsu &lsu, sb::DynInst &st, sb::Addr addr)
{
    st.effAddr = addr;
    st.effAddrValid = true;
    lsu.storeAddrReady(st);
}

} // namespace lsu_detail

TEST(Lsu, ForwardFromYoungestOlderStore)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    std::vector<sb::InstHandle> woken;
    const auto st1 = makeStore(slab, 1);
    const auto st2 = makeStore(slab, 2);
    const auto ld = makeLoad(slab, 3);
    lsu.allocateStore(slab.get(st1));
    lsu.allocateStore(slab.get(st2));
    lsu.allocateLoad(ld, slab.get(ld));

    lsu_detail::storeAddr(lsu, slab.get(st1), 0x1000);
    lsu.storeDataReady(slab.get(st1), 111, woken);
    lsu_detail::storeAddr(lsu, slab.get(st2), 0x1000);
    lsu.storeDataReady(slab.get(st2), 222, woken);

    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    const auto out = lsu.checkForwarding(slab.get(ld));
    EXPECT_EQ(out.kind, sb::ForwardOutcome::Kind::Forward);
    EXPECT_EQ(out.data, 222u);
    EXPECT_EQ(out.source, 2u);
}

TEST(Lsu, StallWhenStoreDataMissing)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    // Address known, data not ready.
    lsu_detail::storeAddr(lsu, slab.get(st), 0x1000);
    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    EXPECT_EQ(lsu.checkForwarding(slab.get(ld)).kind,
              sb::ForwardOutcome::Kind::StallData);
}

TEST(Lsu, ForwardWaitersRideTheSqEntry)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    lsu_detail::storeAddr(lsu, slab.get(st), 0x1000);

    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    const auto out = lsu.checkForwarding(slab.get(ld));
    ASSERT_EQ(out.kind, sb::ForwardOutcome::Kind::StallData);
    lsu.addForwardWaiter(out, ld);

    // The data half hands the waiter list back.
    std::vector<sb::InstHandle> woken;
    lsu.storeDataReady(slab.get(st), 77, woken);
    ASSERT_EQ(woken.size(), 1u);
    EXPECT_EQ(woken[0], ld);

    // A second data-ready (cannot happen in the core, but the list
    // must have been consumed) wakes nobody.
    woken.clear();
    lsu.storeDataReady(slab.get(st), 77, woken);
    EXPECT_TRUE(woken.empty());
}

TEST(Lsu, SquashedStoreTakesItsWaitersWithIt)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 5);
    const auto ld = makeLoad(slab, 6);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    lsu_detail::storeAddr(lsu, slab.get(st), 0x1000);
    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    lsu.addForwardWaiter(lsu.checkForwarding(slab.get(ld)), ld);
    // Squashing the store drops its SQ entry and, with it, the waiter
    // list — no separate cleanup structure to maintain.
    lsu.squash(4);
    EXPECT_EQ(lsu.sqSize(), 0u);
    EXPECT_EQ(lsu.lqSize(), 0u);
}

TEST(Lsu, BypassUnknownStoreAddressIsFlagged)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    const auto out = lsu.checkForwarding(slab.get(ld));
    EXPECT_EQ(out.kind, sb::ForwardOutcome::Kind::NoMatch);
    EXPECT_TRUE(out.bypassedUnknown);
}

TEST(Lsu, ViolationDetectedOnLateStoreAddress)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));

    // Load executes first, reading memory (bypassing the store).
    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    lsu.loadDataReturned(slab.get(ld), sb::invalidSeqNum);

    // Store address resolves later and overlaps: violation.
    slab.get(st).effAddr = 0x1000;
    slab.get(st).effAddrValid = true;
    lsu.storeAddrReady(slab.get(st));
    const sb::LqEntry *victim = lsu.checkViolation(slab.get(st));
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->seq, 2u);
    EXPECT_EQ(victim->handle, ld);
}

TEST(Lsu, NoViolationWhenLoadForwardedFromThatStore)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    slab.get(ld).effAddr = 0x1000;
    slab.get(ld).effAddrValid = true;
    lsu.loadDataReturned(slab.get(ld), slab.get(st).seq);
    slab.get(st).effAddr = 0x1000;
    slab.get(st).effAddrValid = true;
    lsu.storeAddrReady(slab.get(st));
    EXPECT_EQ(lsu.checkViolation(slab.get(st)), nullptr);
}

TEST(Lsu, NoViolationOnDisjointAddresses)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto st = makeStore(slab, 1);
    const auto ld = makeLoad(slab, 2);
    lsu.allocateStore(slab.get(st));
    lsu.allocateLoad(ld, slab.get(ld));
    slab.get(ld).effAddr = 0x2000;
    slab.get(ld).effAddrValid = true;
    lsu.loadDataReturned(slab.get(ld), sb::invalidSeqNum);
    slab.get(st).effAddr = 0x1000;
    slab.get(st).effAddrValid = true;
    lsu.storeAddrReady(slab.get(st));
    EXPECT_EQ(lsu.checkViolation(slab.get(st)), nullptr);
}

TEST(Lsu, DrainLifecycle)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    std::vector<sb::InstHandle> woken;
    const auto st = makeStore(slab, 1);
    lsu.allocateStore(slab.get(st));
    lsu_detail::storeAddr(lsu, slab.get(st), 0x1000);
    lsu.storeDataReady(slab.get(st), 5, woken);
    EXPECT_EQ(lsu.drainableStore(), nullptr);
    lsu.markStoreCommitted(slab.get(st));
    // The drain works from the entry's cached fields alone — the
    // record can be gone, as it is after a real commit.
    slab.free(st);
    ASSERT_NE(lsu.drainableStore(), nullptr);
    EXPECT_EQ(lsu.drainableStore()->data, 5u);
    EXPECT_EQ(lsu.drainableStore()->addr, 0x1000u);
    lsu.popDrainedStore();
    EXPECT_EQ(lsu.sqSize(), 0u);
}

TEST(Lsu, SquashDropsYoungerEntries)
{
    sb::InstSlab slab(16);
    sb::Lsu lsu(8, 8);
    const auto s1 = makeStore(slab, 1);
    const auto l2 = makeLoad(slab, 2);
    const auto s3 = makeStore(slab, 3);
    const auto l4 = makeLoad(slab, 4);
    lsu.allocateStore(slab.get(s1));
    lsu.allocateLoad(l2, slab.get(l2));
    lsu.allocateStore(slab.get(s3));
    lsu.allocateLoad(l4, slab.get(l4));
    lsu.squash(2);
    EXPECT_EQ(lsu.sqSize(), 1u);
    EXPECT_EQ(lsu.lqSize(), 1u);
}

// --- ShadowTracker ---------------------------------------------------

TEST(ShadowTracker, VisibilityPointTracksOldestShadow)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;

    const auto br = makeInst(slab, 5, sb::Op::Beq);
    st.onRename(br, slab.get(br));
    st.update(6, safe);
    EXPECT_EQ(st.visibilityPoint(), 5u);
    EXPECT_TRUE(st.isSpeculative(6));
    EXPECT_FALSE(st.isSpeculative(4));

    slab.get(br).resolved = true;
    st.update(6, safe);
    EXPECT_EQ(st.visibilityPoint(), 6u);
}

TEST(ShadowTracker, StoresCastDShadowsUntilAddressKnown)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    const auto store = makeStore(slab, 3);
    st.onRename(store, slab.get(store));
    st.update(10, safe);
    EXPECT_EQ(st.visibilityPoint(), 3u);
    slab.get(store).effAddrValid = true;
    st.update(10, safe);
    EXPECT_EQ(st.visibilityPoint(), 10u);
}

TEST(ShadowTracker, SpeculativeLoadsReleasedInOrder)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    const auto br = makeInst(slab, 1, sb::Op::Beq);
    st.onRename(br, slab.get(br));
    st.update(2, safe);

    const auto ld1 = makeLoad(slab, 2);
    const auto ld2 = makeLoad(slab, 3);
    st.onRename(ld1, slab.get(ld1));
    st.onRename(ld2, slab.get(ld2));
    EXPECT_TRUE(slab.get(ld1).specAtRename);
    EXPECT_TRUE(slab.get(ld2).specAtRename);

    slab.get(br).resolved = true;
    st.update(4, safe);
    ASSERT_EQ(safe.size(), 2u);
    EXPECT_EQ(safe[0], ld1);
    EXPECT_EQ(safe[1], ld2);
}

TEST(ShadowTracker, LoadWithNoOlderShadowIsNeverSpeculative)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    st.update(5, safe);
    const auto ld = makeLoad(slab, 5);
    st.onRename(ld, slab.get(ld));
    EXPECT_FALSE(slab.get(ld).specAtRename);
}

TEST(ShadowTracker, SquashedShadowsAreSkipped)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    const auto br1 = makeInst(slab, 1, sb::Op::Beq);
    const auto br2 = makeInst(slab, 2, sb::Op::Beq);
    st.onRename(br1, slab.get(br1));
    st.onRename(br2, slab.get(br2));
    st.update(3, safe);
    EXPECT_EQ(st.visibilityPoint(), 1u);
    slab.get(br1).resolved = true;
    // A squash frees the record; the stale handle marks the shadow.
    slab.free(br2);
    st.update(3, safe);
    EXPECT_EQ(st.visibilityPoint(), 3u);
}

TEST(ShadowTracker, SquashedSpeculativeLoadIsNotReleased)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    const auto br = makeInst(slab, 1, sb::Op::Beq);
    st.onRename(br, slab.get(br));
    st.update(2, safe);
    const auto ld = makeLoad(slab, 2);
    st.onRename(ld, slab.get(ld));
    slab.free(ld); // Squashed.
    slab.get(br).resolved = true;
    st.update(3, safe);
    EXPECT_TRUE(safe.empty());
    EXPECT_EQ(st.visibilityPoint(), 3u);
}

TEST(ShadowTracker, PrevLatchLagsOneUpdate)
{
    sb::InstSlab slab(16);
    sb::ShadowTracker st;
    st.attachSlab(&slab);
    std::vector<sb::InstHandle> safe;
    const auto br = makeInst(slab, 1, sb::Op::Beq);
    st.onRename(br, slab.get(br));
    st.latchPrev();
    st.update(2, safe);
    EXPECT_EQ(st.visibilityPointPrev(), 0u);
    slab.get(br).resolved = true;
    st.latchPrev();
    st.update(5, safe);
    EXPECT_EQ(st.visibilityPointPrev(), 1u);
    EXPECT_EQ(st.visibilityPoint(), 5u);
}

// --- ContractShadow: STT/NDA obligations ----------------------------

sb::ContractShadow
activeShadow()
{
    sb::ContractShadow shadow(64, 8, 8);
    shadow.setActive(true);
    return shadow;
}

TEST(ContractShadow, TransmitterWithTaintedOperandViolates)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), true); // Spec load -> preg 20 tainted.

    const auto consumer = makeLoad(slab, 12, 21, 20); // Uses preg 20.
    shadow.onConsume(slab.get(consumer), 0, 5, true, false, true);
    EXPECT_EQ(shadow.transmitViolations(), 1u);
    EXPECT_EQ(shadow.consumeViolations(), 1u);
}

TEST(ContractShadow, NonTransmitterConsumptionOnlyFlagsNda)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), true);
    const auto alu = makeInst(slab, 12, sb::Op::Add);
    sb::DynInst &a = slab.get(alu);
    a.uop.dst = 1;
    a.uop.src1 = 2;
    a.uop.src2 = 3;
    a.pdst = 22;
    a.psrc1 = 20;
    a.psrc2 = 21;
    shadow.onConsume(a, 0, 5, true, true, false);
    EXPECT_EQ(shadow.transmitViolations(), 0u);
    EXPECT_EQ(shadow.consumeViolations(), 1u);
}

TEST(ContractShadow, TaintPropagatesTransitively)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), true);
    // alu: preg 22 = f(preg 20) while root still speculative.
    const auto alu = makeInst(slab, 11, sb::Op::Add);
    sb::DynInst &a = slab.get(alu);
    a.uop.dst = 1;
    a.uop.src1 = 2;
    a.pdst = 22;
    a.psrc1 = 20;
    shadow.onConsume(a, 0, 5, true, false, false);
    // Transmitter consuming preg 22: indirect taint. Only the alu
    // consumed the load's value directly.
    const auto br = makeInst(slab, 12, sb::Op::Beq);
    sb::DynInst &b = slab.get(br);
    b.uop.src1 = 2;
    b.psrc1 = 22;
    shadow.onConsume(b, 0, 5, true, false, true);
    EXPECT_EQ(shadow.transmitViolations(), 1u);
    EXPECT_EQ(shadow.consumeViolations(), 1u);
}

TEST(ContractShadow, RootsExpireAtVisibilityPoint)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), true);
    const auto br = makeInst(slab, 12, sb::Op::Beq);
    sb::DynInst &b = slab.get(br);
    b.uop.src1 = 2;
    b.psrc1 = 20;
    // Visibility point has passed the load: data is public now.
    shadow.onConsume(b, 0, 11, true, false, true);
    EXPECT_EQ(shadow.transmitViolations(), 0u);
    EXPECT_EQ(shadow.consumeViolations(), 0u);
}

TEST(ContractShadow, NonSpeculativeLoadProducesCleanData)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), false);
    const auto br = makeInst(slab, 12, sb::Op::Beq);
    sb::DynInst &b = slab.get(br);
    b.uop.src1 = 2;
    b.psrc1 = 20;
    shadow.onConsume(b, 0, 5, true, false, true);
    EXPECT_EQ(shadow.transmitViolations(), 0u);
}

TEST(ContractShadow, AllocationClearsOldState)
{
    sb::InstSlab slab(16);
    sb::ContractShadow shadow = activeShadow();
    const auto ld = makeLoad(slab, 10, 20);
    shadow.onLoadData(slab.get(ld), true);
    shadow.onAllocate(20); // Register reallocated to a new producer.
    const auto br = makeInst(slab, 12, sb::Op::Beq);
    sb::DynInst &b = slab.get(br);
    b.uop.src1 = 2;
    b.psrc1 = 20;
    shadow.onConsume(b, 0, 5, true, false, true);
    EXPECT_EQ(shadow.transmitViolations(), 0u);
}

TEST(ContractShadow, TaintAndSecretRootsStayDistinct)
{
    sb::InstSlab slab(16);
    const sb::Addr secret = 0x1000;
    const auto branchOn = [&](sb::PhysReg reg) {
        const auto br = makeInst(slab, 12, sb::Op::Beq);
        sb::DynInst &b = slab.get(br);
        b.uop.src1 = 2;
        b.psrc1 = reg;
        return br;
    };

    // A public value from a still-speculative load: the STT and NDA
    // obligations fire, neither secret contract does.
    sb::ContractShadow spec = activeShadow();
    spec.markSecretRegion(secret, 64);
    sb::DynInst &pub = slab.get(makeLoad(slab, 10, 20));
    pub.effAddr = secret + 64;
    pub.effAddrValid = true;
    spec.onLoadValue(pub, sb::invalidSeqNum, 0);
    spec.onLoadData(pub, true);
    spec.onConsume(slab.get(branchOn(20)), 0, 5, true, false, true);
    EXPECT_EQ(spec.transmitViolations(), 1u);
    EXPECT_EQ(spec.consumeViolations(), 1u);
    EXPECT_EQ(spec.sandboxViolations(), 0u);
    EXPECT_EQ(spec.ctViolations(), 0u);

    // A secret acquired architecturally (the load is bound to
    // commit): only constant-time fires.
    sb::ContractShadow arch = activeShadow();
    arch.markSecretRegion(secret, 64);
    sb::DynInst &sec = slab.get(makeLoad(slab, 10, 20));
    sec.effAddr = secret;
    sec.effAddrValid = true;
    arch.onLoadValue(sec, sb::invalidSeqNum, 0);
    arch.onLoadData(sec, false);
    arch.onConsume(slab.get(branchOn(20)), 0, 5, true, false, true);
    EXPECT_EQ(arch.ctViolations(), 1u);
    EXPECT_EQ(arch.transmitViolations(), 0u);
    EXPECT_EQ(arch.sandboxViolations(), 0u);
    EXPECT_EQ(arch.consumeViolations(), 0u);
}

// --- ContractShadow: ticket-indexed label storage ---------------------

/** A load of the word at @p addr, stamped with its LQ ticket. */
sb::DynInst &
ticketedLoad(sb::InstSlab &slab, sb::SeqNum seq, std::uint32_t ticket,
             sb::Addr addr, sb::PhysReg dst)
{
    sb::DynInst &ld = slab.get(makeLoad(slab, seq, dst));
    ld.lqTicket = ticket;
    ld.effAddr = addr;
    ld.effAddrValid = true;
    return ld;
}

TEST(ContractShadow, LabelsSurviveTicketWraps)
{
    // Three-entry queues (slots rounded up to four), with tickets that
    // wrap the 32-bit counters while three loads and three stores are
    // in flight. Each keeps its own label.
    sb::InstSlab slab(32);
    const sb::Addr secret = 0x1000;
    sb::ContractShadow shadow(64, 3, 3);
    shadow.setActive(true);
    shadow.markSecretRegion(secret, 64, 3);

    const std::uint32_t tickets[3] = {0xFFFFFFFFu, 0, 1};
    // Memory loads: only the middle one reads a secret word.
    sb::DynInst *loads[3];
    for (int i = 0; i < 3; ++i) {
        loads[i] = &ticketedLoad(slab, 10 + i, tickets[i],
                                 i == 1 ? secret : secret + 64,
                                 static_cast<sb::PhysReg>(20 + i));
        shadow.onLoadValue(*loads[i], sb::invalidSeqNum, 0);
    }
    for (int i = 2; i >= 0; --i) // Writeback out of order.
        shadow.onLoadData(*loads[i], false);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(shadow.regLabel(20 + i).secret, i == 1) << i;
    EXPECT_EQ(shadow.regLabel(21).owner, 3u);

    // Stores: only the last one's data (preg 21) is secret.
    sb::DynInst *stores[3];
    for (int i = 0; i < 3; ++i) {
        stores[i] = &slab.get(makeStore(slab, 20 + i, 12,
                                        i == 2 ? 21 : 20));
        stores[i]->sqTicket = tickets[i];
        shadow.onStoreData(*stores[i]);
    }
    for (int i = 0; i < 3; ++i) {
        sb::DynInst &ld = ticketedLoad(slab, 30 + i, 5 + i, secret + 128,
                                       static_cast<sb::PhysReg>(30 + i));
        shadow.onLoadValue(ld, stores[i]->seq, tickets[i]);
        shadow.onLoadData(ld, false);
        EXPECT_EQ(shadow.regLabel(30 + i).secret, i == 2) << i;
    }
}

TEST(ContractShadow, SquashedLoadsStaleSlotNeverMatches)
{
    sb::InstSlab slab(16);
    const sb::Addr secret = 0x1000;
    sb::ContractShadow shadow(64, 8, 8);
    shadow.setActive(true);
    shadow.markSecretRegion(secret, 64);

    // A load captures a secret label at ticket 5, then is squashed
    // before writeback. The younger load reissued ticket 5 writes back
    // without a capture of its own: it must not inherit the secret.
    sb::DynInst &squashed = ticketedLoad(slab, 10, 5, secret, 20);
    shadow.onLoadValue(squashed, sb::invalidSeqNum, 0);
    sb::DynInst &younger = ticketedLoad(slab, 14, 5, secret + 64, 21);
    shadow.onLoadData(younger, false);
    EXPECT_FALSE(shadow.regLabel(21).secret);

    // Likewise a squashed store's captured data label: the younger
    // store on its SQ ticket never captured one, so a forward from it
    // and its commit both see clean data.
    sb::DynInst &secret_ld = ticketedLoad(slab, 15, 6, secret, 22);
    shadow.onLoadValue(secret_ld, sb::invalidSeqNum, 0);
    shadow.onLoadData(secret_ld, false);
    ASSERT_TRUE(shadow.regLabel(22).secret);
    sb::DynInst &old_store = slab.get(makeStore(slab, 16, 12, 22));
    old_store.sqTicket = 2;
    shadow.onStoreData(old_store); // Secret data (preg 22).
    sb::DynInst &new_store = slab.get(makeStore(slab, 18, 12, 22));
    new_store.sqTicket = 2;
    new_store.effAddr = secret + 128;
    new_store.effAddrValid = true;
    sb::DynInst &fwd = ticketedLoad(slab, 19, 7, secret + 128, 23);
    shadow.onLoadValue(fwd, new_store.seq, new_store.sqTicket);
    shadow.onLoadData(fwd, false);
    EXPECT_FALSE(shadow.regLabel(23).secret);
    shadow.onStoreCommit(new_store);
    sb::DynInst &reader = ticketedLoad(slab, 20, 0, secret + 128, 24);
    shadow.onLoadValue(reader, sb::invalidSeqNum, 0);
    shadow.onLoadData(reader, false);
    EXPECT_FALSE(shadow.regLabel(24).secret);
}

TEST(ContractShadow, ForwardReadsTheLiveStoresLabelByTicket)
{
    sb::InstSlab slab(16);
    const sb::Addr secret = 0x1000;
    const sb::Addr pub = 0x2000;
    sb::ContractShadow shadow(64, 8, 8);
    shadow.setActive(true);
    shadow.markSecretRegion(secret, 64);
    shadow.onLoadData(ticketedLoad(slab, 1, 0, secret, 20), false);
    ASSERT_FALSE(shadow.regLabel(20).secret); // No capture: clean.
    sb::DynInst &src = ticketedLoad(slab, 2, 1, secret, 20);
    shadow.onLoadValue(src, sb::invalidSeqNum, 0);
    shadow.onLoadData(src, false);
    ASSERT_TRUE(shadow.regLabel(20).secret);

    // Two live stores to the public word: secret data at SQ ticket 3,
    // clean data (preg 21) at ticket 4.
    sb::DynInst &secret_st = slab.get(makeStore(slab, 5, 12, 20));
    secret_st.sqTicket = 3;
    secret_st.effAddr = pub;
    secret_st.effAddrValid = true;
    sb::DynInst &clean_st = slab.get(makeStore(slab, 6, 12, 21));
    clean_st.sqTicket = 4;
    clean_st.effAddr = pub;
    clean_st.effAddrValid = true;
    shadow.onStoreData(secret_st);
    shadow.onStoreData(clean_st);

    const auto forwardFrom = [&](const sb::DynInst &st, sb::SeqNum seq,
                                 sb::PhysReg dst) {
        sb::DynInst &ld = ticketedLoad(slab, seq, 2, pub, dst);
        shadow.onLoadValue(ld, st.seq, st.sqTicket);
        shadow.onLoadData(ld, false);
        return shadow.regLabel(dst).secret;
    };
    EXPECT_TRUE(forwardFrom(secret_st, 7, 30));
    EXPECT_FALSE(forwardFrom(clean_st, 8, 31));
    EXPECT_TRUE(forwardFrom(secret_st, 9, 32)); // Forwards do not consume.

    // Commit moves the label into memory and drops the captured one,
    // so a forward from the committed (not yet drained) store reads
    // clean data: the known under-approximation, kept as it was.
    shadow.onStoreCommit(secret_st);
    EXPECT_FALSE(forwardFrom(secret_st, 10, 33));
    sb::DynInst &reader = ticketedLoad(slab, 11, 3, pub, 34);
    shadow.onLoadValue(reader, sb::invalidSeqNum, 0);
    shadow.onLoadData(reader, false);
    EXPECT_TRUE(shadow.regLabel(34).secret);
}

} // anonymous namespace
