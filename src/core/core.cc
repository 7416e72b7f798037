#include "core/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sb
{

Core::Core(const CoreConfig &config, const SchemeConfig &,
           std::unique_ptr<SecureScheme> scheme, const Program &prog)
    : cfg(config),
      schemePtr(scheme ? std::move(scheme)
                       : std::make_unique<SecureScheme>()),
      program(&prog),
      mem(config),
      predictor(10),
      renameMap(numArchRegs, config.numPhysRegs),
      cshadow(config.numPhysRegs, config.ldqEntries,
              config.stqEntries),
      workingMem(prog.memory),
      // Exact by construction: a live record is in the fetch queue,
      // the decode queue, or the ROB (dispatch-queue entries are also
      // ROB entries), whose capacities bound it; the slack covers the
      // decode queue (capped at 4*coreWidth) plus same-cycle handoffs.
      slab(config.fetchBufferEntries + 4 * config.coreWidth
           + config.robEntries + 8),
      regVal(config.numPhysRegs, 0),
      wakeupDone(config.numPhysRegs, 1),
      pregEpoch(config.numPhysRegs, 0),
      fetchQueue(config.fetchBufferEntries),
      decodeQueue(4 * config.coreWidth),
      dispatchQueue(2 * config.coreWidth),
      rob(config.robEntries),
      iq(config.iqEntries, config.numPhysRegs),
      lsu(config.ldqEntries, config.stqEntries),
      // Pool: one completion per ROB entry plus one broadcast per
      // physical register covers the common case; squashed events
      // that are still pending may push it past that, and it doubles.
      events(eventHorizon(), config.robEntries + config.numPhysRegs),
      retryLoads(config.ldqEntries),
      pc(prog.entry),
      statGroup("core"),
      st(statGroup)
{
    sb_assert(cfg.coreWidth >= 1 && cfg.issueWidth >= 1
                  && cfg.memPorts >= 1,
              "core widths must be positive");
    frontendExtraDelay =
        cfg.frontendStages > 5 ? cfg.frontendStages - 5 : 0;
    iq.attachSlab(&slab);
    shadows.attachSlab(&slab);
    dcache.attach(prog);
    // One reading of SB_INVARIANTS (and one warning about a malformed
    // value) serves both observers.
    cshadow.setActive(inv.on());
    for (const SecretRegion &region : prog.secretRegions)
        cshadow.markSecretRegion(region.base, region.bytes,
                                 region.tenant);
    for (const SwitchPoint &sp : prog.switchPoints)
        switchAt[sp.pc] = sp.to;
    for (const TenantEntry &te : prog.tenantEntries)
        tenantEntry[te.tenant] = te.pc;
    for (const auto &kv : statGroup.counters())
        counterRefs.push_back(&statGroup.counter(kv.first));
    counterSnap.resize(counterRefs.size());
    schemePtr->attach(*this);
    speculativeScheduling = schemePtr->allowsSpeculativeScheduling();
}

unsigned
Core::eventHorizon() const
{
    // Longest completion delay: an L2+DRAM round trip observed
    // through a hit-under-miss L1 probe, plus the slowest functional
    // unit. Wakeups ride at most one cycle behind completions, and
    // anything a scheme schedules further out spills into the
    // wheel's overflow lane, so this only has to bound the common
    // case.
    unsigned fu = cfg.aluLatency;
    for (unsigned lat : {cfg.mulLatency, cfg.divLatency, cfg.fpLatency,
                         cfg.fpDivLatency, cfg.branchResolveLatency})
        fu = std::max(fu, lat);
    return 2 * cfg.l1d.latency + 2 * cfg.l2.latency + cfg.memLatency
           + fu + 8;
}

unsigned
Core::opLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::Nop:
      case OpClass::IntAlu:
        return cfg.aluLatency;
      case OpClass::IntMul:
        return cfg.mulLatency;
      case OpClass::IntDiv:
        return cfg.divLatency;
      case OpClass::FpAlu:
      case OpClass::FpMul:
        return cfg.fpLatency;
      case OpClass::FpDiv:
        return cfg.fpDivLatency;
      case OpClass::Branch:
        return cfg.branchResolveLatency;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return 1; // Address generation; memory adds its own latency.
    }
    sb_panic("unknown op class");
}

Word
Core::readArchReg(ArchReg reg) const
{
    return regVal[renameMap.lookup(reg)];
}

void
Core::scheduleWakeup(PhysReg preg, Cycle at)
{
    tickActive = true;
    applyWakeup(preg, at);
}

void
Core::applyWakeup(PhysReg preg, Cycle at)
{
    if (at <= cycle) {
        // Immediate broadcasts come straight from a live producer
        // (completion drain or schedule time), so no staleness check
        // is needed.
        wakeupDone[preg] = 1;
        iq.wakeup(preg);
        return;
    }
    // A queued broadcast can outlive its producer (squash). It is
    // valid exactly while the register has not been re-allocated: the
    // epoch captured here is compared at drain time.
    events.push(at, cycle,
                CoreEvent{invalidInstHandle, preg, pregEpoch[preg]});
}

RunResult
Core::run(std::uint64_t max_insts, std::uint64_t max_cycles)
{
    const std::uint64_t target = committedCount + max_insts;
    const Cycle limit = cycle + max_cycles;
    stopRequestedFlag = false;
    // The stop check is polled every 4096 cycles: cheap enough to
    // vanish in the run loop, frequent enough that a wedged or
    // interrupted cell ends within milliseconds.
    const bool checked = static_cast<bool>(stopCheck);
    unsigned untilCheck = untilStopPoll;
    // Idle skip (see the declaration): `measure` says the last tick
    // was quiet, so this one's counter changes are the per-cycle
    // change of the whole quiet stretch.
    const bool may_skip = !traceHook;
    bool measure = false;
    while (!haltedFlag && !watchdogTrippedFlag && committedCount < target
           && cycle < limit) {
        if (measure) {
            for (std::size_t i = 0; i < counterRefs.size(); ++i)
                counterSnap[i] = counterRefs[i]->value();
        }
        tick();
        if (checked && --untilCheck == 0) {
            untilCheck = 4096;
            if (stopCheck()) {
                stoppedFlag = true;
                watchdogTrippedFlag = true;
            }
        }
        if (stopRequestedFlag)
            break;
        if (measure && !tickActive && !watchdogTrippedFlag) {
            // The poll is a trigger too, so the check fires on the
            // same cycle as in a stepped run.
            const Cycle next = quietUntil(
                checked ? std::min<Cycle>(limit, cycle + untilCheck)
                        : limit);
            if (next > cycle + 1) {
                const Cycle n = next - 1 - cycle;
                for (std::size_t i = 0; i < counterRefs.size(); ++i)
                    *counterRefs[i] +=
                        (counterRefs[i]->value() - counterSnap[i]) * n;
                cycle += n;
                skippedCount += n;
                if (checked)
                    untilCheck -= static_cast<unsigned>(n);
            }
        }
        measure = may_skip && !tickActive;
    }
    untilStopPoll = untilCheck;
    // After a halt, keep ticking until committed stores have drained
    // to memory, so the functional image reflects all committed work.
    while (haltedFlag && lsu.sqSize() > 0 && cycle < limit)
        tick();
    syncEngineStats();
    RunResult r;
    r.cycles = cycle;
    r.instructions = committedCount;
    r.halted = haltedFlag;
    r.watchdogTripped = watchdogTrippedFlag;
    return r;
}

void
Core::syncEngineStats()
{
    // The decode cache and the slab own their counters; publish them
    // into the core's StatGroup as deltas since the last publication,
    // so a harness that resets the group between a warmup and a
    // measurement run() gets window-local values like for every other
    // core counter.
    const std::uint64_t dh = dcache.hits();
    const std::uint64_t dm = dcache.misses();
    const std::uint64_t rc = slab.recycled();
    st.decodeCacheHits += dh - lastPubDcacheHits;
    st.decodeCacheMisses += dm - lastPubDcacheMisses;
    st.handlesRecycled += rc - lastPubRecycled;
    lastPubDcacheHits = dh;
    lastPubDcacheMisses = dm;
    lastPubRecycled = rc;
    // High water is a level, not a flow: always the absolute value.
    st.slabHighWater.reset();
    st.slabHighWater += slab.highWater();
}

Cycle
Core::quietUntil(Cycle bound) const
{
    // The timed triggers are the pipeline's comparisons against
    // `cycle`. Divider busy windows need none of their own: each ends
    // on the cycle of its divide's completion event. Nor do schemes,
    // which keep no timer that no core event covers
    // (SecureScheme::tick()): NDA-Strict's broadcast readyAt is the
    // cycle of a completion event or the one after it, and the tick
    // after an active tick is never skipped.
    if (!decodeQueue.empty() && decodeQueue.front().readyAt > cycle)
        bound = std::min(bound, decodeQueue.front().readyAt);
    if (fetchStallUntil > cycle)
        bound = std::min(bound, fetchStallUntil);
    if (!rob.empty())
        bound = std::min(bound, lastCommitCycle + stallLimit() + 1);
    return events.nextDue(cycle, bound);
}

void
Core::tick()
{
    ++cycle;
    ++st.cycles;
    memPortsUsed = 0;
    tickActive = false;
    shadows.latchPrev();

    commitPhase();
    writebackPhase();
    executePhase();
    shadowPhase();
    schemePtr->tick();
    selectPhase();
    dispatchPhase();
    renamePhase();
    decodePhase();
    fetchPhase();

    std::swap(execNow, execNext);
    execNext.clear();

    // Monotonicity of the *published* visibility point across ticks.
    // The tracker's own update() hard-asserts the per-step invariant
    // (and would abort before this observer sees it); this check
    // covers what that assert cannot — tracker state rebuilt
    // mid-run, or a future tracker rewrite publishing stale values.
    if (inv.on())
        inv.onVisibilityPoint(shadows.visibilityPoint());

    // Forward-progress watchdog: a stuck pipeline is a simulator bug.
    // In soft mode (fuzz harness) the run ends with a liveness flag
    // instead of aborting, so the failing seed can be reported.
    if (!haltedFlag && !rob.empty()
        && cycle - lastCommitCycle > stallLimit()) {
        if (softWatchdogCycles) {
            watchdogTrippedFlag = true;
            return;
        }
        const DynInst &head = slab.get(rob.front());
        sb_panic("no commit for 100000 cycles; head seq=", head.seq,
                 " pc=", head.pc, " op=", head.uop.disassemble(),
                 " completed=", head.completed,
                 " iqSlot=", head.iqSlot, " vp=",
                 shadows.visibilityPoint());
    }
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
Core::commitPhase()
{
    drainStores();

    unsigned n = 0;
    while (n < cfg.coreWidth && !rob.empty()) {
        const InstHandle h = rob.front();
        DynInst &inst = slab.get(h);
        if (!inst.completed)
            break;
        if (inv.on())
            inv.onCommit(inst);

        if (inst.isStore()) {
            lsu.markStoreCommitted(inst);
            if (cshadow.on())
                cshadow.onStoreCommit(inst);
        }
        if (inst.isLoad()) {
            lsu.releaseLoad(inst);
            ++st.committedLoads;
            if (observing) {
                observations.push_back(LoadObservation{
                    inst.pc, cycle, inst.completeAt, inst.l1Hit});
            }
        }
        if (inst.isBranch()) {
            sb_assert(branchesInFlight > 0, "branch count underflow");
            --branchesInFlight;
            if (inst.uop.op == Op::JmpReg) {
                btb.train(inst.pc, inst.actualTarget);
            } else if (inst.uop.op != Op::Jmp
                       && inst.uop.op != Op::JmpRegRet) {
                // JmpRegRet is the retpoline indirect: it trains
                // neither the BTB nor the direction predictor.
                predictor.update(inst.pc, inst.histSnapshot,
                                 inst.actualTaken);
            }
            ++st.committedBranches;
        }
        if (inst.isStore())
            ++st.committedStores;
        if (inst.stalePdst != invalidPhysReg)
            renameMap.release(inst.stalePdst);

        ++committedCount;
        ++st.committedInsts;
        lastCommitCycle = cycle;
        if (commitHook)
            commitHook(inst, cycle);

        rob.pop_front();
        ++n;
        tickActive = true;

        // The record dies with its ROB entry; the store drain below
        // commit works entirely from the SQ entry's cached fields.
        const bool is_halt = inst.uop.isHalt();
        const SeqNum seq = inst.seq;
        const std::uint32_t inst_pc = inst.pc;
        slab.free(h);

        if (is_halt) {
            haltedFlag = true;
            break;
        }

        // A committed context-switch marker hands the core to the
        // next protection domain; commit stops for this cycle (the
        // squash empties the ROB anyway).
        if (!switchAt.empty()) {
            auto sw = switchAt.find(inst_pc);
            if (sw != switchAt.end()) {
                performContextSwitch(seq, inst_pc, sw->second);
                break;
            }
        }
    }
}

void
Core::drainStores()
{
    while (memPortsUsed < cfg.memPorts) {
        SqEntry *entry = lsu.drainableStore();
        if (!entry)
            break;
        tickActive = true;
        MemAccessResult res =
            mem.access(entry->addr, entry->pc, cycle, true);
        if (!res.accepted)
            break;
        workingMem.write(entry->addr, entry->data);
        lsu.popDrainedStore();
        ++memPortsUsed;
        ++st.storeDrains;
    }
}

// ---------------------------------------------------------------------
// Writeback: wakeup broadcasts and completions
// ---------------------------------------------------------------------

void
Core::writebackPhase()
{
    // A cycle's broadcasts and completions drain interleaved, in push
    // order. The two handlers commute: a broadcast sets one register's
    // wakeupDone bit and links entries into the seq-ordered candidate
    // list (where arrival order cannot show), and a completion touches
    // only its own record and its own register. Completions keep
    // their FIFO order among themselves, and only they emit trace
    // events.
    events.drainDue(cycle, [this](CoreEvent &ev) {
        tickActive = true;
        if (ev.inst == invalidInstHandle) {
            // Stale epoch: the register was re-allocated, so the
            // producer that scheduled this broadcast was squashed.
            if (pregEpoch[ev.preg] != ev.epoch)
                return;
            wakeupDone[ev.preg] = 1;
            iq.wakeup(ev.preg);
            return;
        }
        DynInst *inst = slab.tryGet(ev.inst);
        if (!inst)
            return; // Squashed (record freed) before completion.
        inst->completed = true;
        trace("complete", *inst);
        if (inst->isLoad()) {
            if (cshadow.on()) {
                cshadow.onLoadData(*inst,
                                   shadows.isSpeculative(inst->seq));
            }
            regVal[inst->pdst] = inst->result;
            const Cycle ready = speculativeScheduling ? cycle : cycle + 1;
            if (!schemePtr->deferBroadcast(ev.inst, *inst, ready)) {
                applyWakeup(inst->pdst, ready);
            } else {
                ++st.deferredBroadcasts;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Execute (instructions selected last cycle)
// ---------------------------------------------------------------------

void
Core::executePhase()
{
    if (!execNow.empty())
        tickActive = true;
    // Oldest first so an older mispredict squashes younger work
    // before it takes effect. Select filled the list in candidate-list
    // (age) order, so it needs no sort. Handles may be stale: a
    // context-switch marker committing this cycle squashes every
    // in-flight younger instruction during the commit phase, and an
    // older branch may squash the rest of the list mid-phase, so each
    // element is revalidated.
    SeqNum prev_seq = 0;
    for (InstHandle h : execNow) {
        DynInst *instp = slab.tryGet(h);
        if (!instp)
            continue; // Squashed (commit-time switch or older branch).
        DynInst &inst = *instp;
        if (inv.on()) {
            inv.onExecute(inst, prev_seq);
            prev_seq = inst.seq;
        }
        trace("execute", inst);
        if (inst.isBranch()) {
            executeBranch(inst);
        } else if (inst.isLoad()) {
            executeLoadAddr(h, inst);
        } else if (inst.isStore()) {
            // A store may have both halves scheduled this cycle.
            if (inst.addrIssued && !inst.effAddrValid)
                executeStoreAddr(inst);
            if (inst.dataIssued && !inst.storeDataDone)
                executeStoreData(inst);
        } else {
            sb_panic("unexpected op in execute: ",
                     inst.uop.disassemble());
        }
    }
}

void
Core::executeBranch(DynInst &inst)
{
    const Word s1 = inst.uop.hasSrc1() ? regVal[inst.psrc1] : 0;
    const Word s2 = inst.uop.hasSrc2() ? regVal[inst.psrc2] : 0;
    if (cshadow.on()) {
        cshadow.onConsume(inst, cycle, shadows.visibilityPoint(), true,
                          true, true);
    }

    inst.actualTaken = evalBranch(inst.uop, s1, s2);
    inst.resolved = true;
    inst.completed = true;

    // An indirect jump's destination is its operand value; direct
    // branches take the static target or fall through. JmpRegRet is
    // fetched as a fall-through (predTaken false, no BTB lookup), so
    // its generic predicted_next is pc + 1: the capture pad.
    const std::uint32_t correct_next =
        inst.uop.isIndirect()
            ? static_cast<std::uint32_t>(s1)
            : (inst.actualTaken ? inst.uop.target : inst.pc + 1);
    const std::uint32_t predicted_next =
        inst.uop.op == Op::JmpReg
            ? inst.predTarget
            : (inst.predTaken ? inst.uop.target : inst.pc + 1);
    inst.actualTarget = correct_next;
    if (correct_next != predicted_next) {
        ++st.branchMispredicts;
        trace("mispredict", inst);
        squash(inst.seq, correct_next);
        if (inst.uop.op != Op::Jmp && !inst.uop.isIndirect()) {
            ghist = (inst.histSnapshot << 1)
                    | (inst.actualTaken ? 1u : 0u);
        }
    }
}

void
Core::executeLoadAddr(InstHandle h, DynInst &inst)
{
    inst.effAddr = regVal[inst.psrc1] + static_cast<Word>(inst.uop.imm);
    inst.effAddrValid = true;
    if (cshadow.on()) {
        cshadow.onConsume(inst, cycle, shadows.visibilityPoint(), true,
                          false, true);
    }
    loadMemoryStage(h, inst);
}

void
Core::loadMemoryStage(InstHandle h, DynInst &inst)
{
    const ForwardOutcome fwd = lsu.checkForwarding(inst);
    if (fwd.kind == ForwardOutcome::Kind::StallData) {
        // Sleep until the matching store's data half executes (the
        // waiter list lives on that store's SQ entry).
        ++st.forwardStalls;
        lsu.addForwardWaiter(fwd, h);
        return;
    }
    if (fwd.bypassedUnknown)
        ++st.disambiguationBypasses;
    if (fwd.kind == ForwardOutcome::Kind::Forward) {
        inst.l1Hit = true;
        ++st.loadForwards;
        finishLoad(h, inst, cycle + cfg.l1d.latency, fwd.data, fwd);
        return;
    }
    // Delay-on-Miss interposition: the scheme may park the demand
    // access instead of launching it (it probes L1 residency itself;
    // store forwarding above is in-core and never delayed). The
    // memory port charged at select is wasted, like an issue kill.
    if (schemePtr->delayLoadMiss(h, inst)) {
        ++st.schemeMissDelays;
        trace("delay-miss", inst);
        return;
    }
    MemAccessResult res = mem.access(inst.effAddr, inst.pc, cycle,
                                     false);
    if (!res.accepted) {
        ++st.mshrRetries;
        retryLoads.push_back(h);
        return;
    }
    inst.l1Hit = res.l1Hit;
    if (!res.l1Hit)
        ++st.loadL1Misses;
    // NoMatch: no older store with a known address holds this word,
    // so committed memory has the value.
    finishLoad(h, inst, res.completeAt, workingMem.read(inst.effAddr),
               fwd);
}

void
Core::finishLoad(InstHandle h, DynInst &inst, Cycle complete_at,
                 Word value, const ForwardOutcome &fwd)
{
    if (inv.on())
        inv.onForward(inst, fwd.source);
    if (cshadow.on())
        cshadow.onLoadValue(inst, fwd.source, fwd.sourceTicket);
    inst.result = value;
    inst.completeAt = complete_at;
    lsu.loadDataReturned(inst, fwd.source);
    events.push(complete_at, cycle, CoreEvent{h, invalidPhysReg, 0});
}

void
Core::executeStoreAddr(DynInst &inst)
{
    inst.effAddr = regVal[inst.psrc1] + static_cast<Word>(inst.uop.imm);
    inst.effAddrValid = true;
    // Publish the address to the SQ entry before anything can scan it.
    lsu.storeAddrReady(inst);
    if (cshadow.on()) {
        cshadow.onConsume(inst, cycle, shadows.visibilityPoint(), true,
                          false, true);
    }

    if (const LqEntry *victim = lsu.checkViolation(inst)) {
        // Memory-order violation (store-to-load forwarding error,
        // paper Sec. 9.2): flush from the load and refetch it. The
        // squash frees the victim's record and pops its LQ entry, so
        // everything needed afterwards is copied out first.
        const SeqNum victim_seq = victim->seq;
        const std::uint32_t victim_pc = victim->pc;
        ++st.memOrderViolations;
        trace("violation", slab.get(victim->handle));
        squash(victim_seq - 1, victim_pc);
    }
    if (inst.storeDataDone)
        inst.completed = true;
}

void
Core::executeStoreData(DynInst &inst)
{
    const Word data = regVal[inst.psrc2];
    inst.storeDataDone = true;
    if (cshadow.on()) {
        cshadow.onConsume(inst, cycle, shadows.visibilityPoint(), false,
                          true, false);
        cshadow.onStoreData(inst);
    }
    wokenScratch.clear();
    lsu.storeDataReady(inst, data, wokenScratch);
    if (inst.effAddrValid)
        inst.completed = true;
    // Wake loads that stalled on this store's data.
    for (InstHandle waiter : wokenScratch) {
        if (slab.alive(waiter))
            retryLoads.push_back(waiter);
    }
}

// ---------------------------------------------------------------------
// Shadow tracking
// ---------------------------------------------------------------------

void
Core::shadowPhase()
{
    const SeqNum vp = shadows.visibilityPoint();
    safeScratch.clear();
    shadows.update(lastRenamedSeq + 1, safeScratch);
    if (shadows.visibilityPoint() != vp || !safeScratch.empty())
        tickActive = true;
    // Schemes observe the visibility point directly (and drain their
    // own pending queues in tick()); the contract shadow is handed it
    // at every consume, so it needs no callback either.
    st.loadsBecameSafe += safeScratch.size();
}

// ---------------------------------------------------------------------
// Select / issue
// ---------------------------------------------------------------------

void
Core::selectPhase()
{
    // Retry loads stalled on MSHRs or forwarding data first: they
    // already own an issue, only the memory port is re-arbitrated.
    if (!retryLoads.empty())
        tickActive = true;
    std::size_t retries = retryLoads.size();
    while (retries-- > 0 && !retryLoads.empty()
           && memPortsUsed < cfg.memPorts) {
        const InstHandle h = retryLoads.front();
        retryLoads.pop_front();
        DynInst *load = slab.tryGet(h);
        if (!load)
            continue; // Squashed while parked.
        ++memPortsUsed;
        loadMemoryStage(h, *load);
    }

    unsigned slots = cfg.issueWidth;
    unsigned fp_slots = cfg.fpPorts;
    std::vector<InstHandle> &fully_issued = issuedScratch;
    fully_issued.clear();

    // Every IQ entry references a live record: squashes sweep the
    // queue synchronously. The scan walks the queue's candidate list
    // (entries with a ready, unissued half) in age order instead of
    // the whole queue — entries it no longer visits are exactly the
    // ones the full scan skipped without side effects. Issued entries
    // are batched in fully_issued and removed after the scan, and no
    // same-cycle wakeup fires from inside it (every execution latency
    // is at least one cycle), so the links cannot move underneath it.
    for (std::int32_t idx = iq.firstReady(); idx >= 0;
         idx = iq.nextReady(idx)) {
        IqEntry *entry = &iq.entryAt(idx);
        if (slots == 0)
            break;

        if (entry->isStore) {
            DynInst &inst = slab.get(entry->handle);
            bool addr_ready = entry->src1Ready && !inst.addrIssued;
            bool data_ready = entry->src2Ready && !inst.dataIssued;
            if (addr_ready && schemePtr->selectVeto(inst, true)) {
                addr_ready = false;
                ++st.schemeSelectBlocks;
                trace("block-addr", inst);
            }
            if (data_ready && schemePtr->selectVeto(inst, false)) {
                data_ready = false;
                ++st.schemeSelectBlocks;
                trace("block-data", inst);
            }
            if (addr_ready && memPortsUsed >= cfg.memPorts)
                addr_ready = false;
            if (!addr_ready && !data_ready)
                continue;

            --slots;
            if (inv.on()) {
                inv.onIssue(inst,
                            !addr_ready || wakeupDone[inst.psrc1],
                            !data_ready || wakeupDone[inst.psrc2]);
            }
            bool killed = false;
            bool scheduled = false;
            if (addr_ready) {
                ++memPortsUsed;
                if (schemePtr->onSelect(inst, true)) {
                    inst.addrIssued = true;
                    scheduled = true;
                    trace("issue-addr", inst);
                } else {
                    trace("kill", inst);
                    // Taint unit killed the issue: the slot and the
                    // memory port are wasted this cycle (Fig. 4).
                    killed = true;
                    ++st.schemeIssueKills;
                }
            }
            if (data_ready && !killed) {
                if (schemePtr->onSelect(inst, false)) {
                    inst.dataIssued = true;
                    scheduled = true;
                    trace("issue-data", inst);
                } else {
                    trace("kill", inst);
                    ++st.schemeIssueKills;
                }
            }
            if (scheduled)
                execNext.push_back(entry->handle);
            if (inst.addrIssued && inst.dataIssued)
                fully_issued.push_back(entry->handle);
            continue;
        }

        // Non-store instructions.
        if (!entry->ready())
            continue;
        DynInst &inst = slab.get(entry->handle);
        const OpClass cls = inst.uop.opClass();
        if (schemePtr->selectVeto(inst, inst.isLoad())) {
            ++st.schemeSelectBlocks;
            trace("block", inst);
            continue;
        }
        if (cls == OpClass::MemRead && memPortsUsed >= cfg.memPorts)
            continue;
        if (cls == OpClass::IntDiv && divBusyUntil > cycle)
            continue;
        if (cls == OpClass::FpDiv && fdivBusyUntil > cycle)
            continue;
        const bool is_fp = cls == OpClass::FpAlu || cls == OpClass::FpMul
                           || cls == OpClass::FpDiv;
        if (is_fp && fp_slots == 0)
            continue;

        --slots;
        if (inv.on()) {
            inv.onIssue(inst,
                        !inst.uop.hasSrc1() || wakeupDone[inst.psrc1],
                        !inst.uop.hasSrc2() || wakeupDone[inst.psrc2]);
        }
        if (is_fp)
            --fp_slots;
        if (cls == OpClass::MemRead)
            ++memPortsUsed;
        if (!schemePtr->onSelect(inst, inst.isLoad())) {
            ++st.schemeIssueKills;
            trace("kill", inst);
            continue; // Entry stays; ready is masked by the scheme.
        }
        trace("issue", inst);
        if (cls == OpClass::IntDiv)
            divBusyUntil = cycle + cfg.divLatency;
        if (cls == OpClass::FpDiv)
            fdivBusyUntil = cycle + cfg.fpDivLatency;

        inst.addrIssued = true;
        if (inst.isLoad() || inst.isBranch()) {
            execNext.push_back(entry->handle);
        } else {
            executeAluAtSelect(entry->handle, inst);
        }
        fully_issued.push_back(entry->handle);
    }

    // Every issue or kill took a slot; a veto or a busy unit did not
    // and changes nothing.
    if (slots != cfg.issueWidth)
        tickActive = true;
    for (InstHandle h : fully_issued)
        iq.remove(slab.get(h));
}

void
Core::executeAluAtSelect(InstHandle h, DynInst &inst)
{
    const Word s1 = inst.uop.hasSrc1() ? regVal[inst.psrc1] : 0;
    const Word s2 = inst.uop.hasSrc2() ? regVal[inst.psrc2] : 0;
    if (cshadow.on()) {
        cshadow.onConsume(inst, cycle, shadows.visibilityPoint(), true,
                          true, false);
    }
    inst.result = evalAlu(inst.uop, s1, s2);
    if (inst.pdst != invalidPhysReg)
        regVal[inst.pdst] = inst.result;

    const unsigned lat = opLatency(inst.uop.opClass());
    events.push(cycle + lat, cycle, CoreEvent{h, invalidPhysReg, 0});
    if (inst.pdst != invalidPhysReg) {
        if (!schemePtr->deferBroadcast(h, inst, cycle + lat)) {
            applyWakeup(inst.pdst, cycle + lat);
        } else {
            ++st.deferredBroadcasts;
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch and rename
// ---------------------------------------------------------------------

void
Core::dispatchPhase()
{
    unsigned n = 0;
    while (n < cfg.coreWidth && !dispatchQueue.empty()) {
        const InstHandle h = dispatchQueue.front();
        if (iq.full()) {
            ++st.iqFullStalls;
            break;
        }
        DynInst &inst = slab.get(h);
        const bool s1 = !inst.uop.hasSrc1() || wakeupDone[inst.psrc1];
        const bool s2 = !inst.uop.hasSrc2() || wakeupDone[inst.psrc2];
        iq.insert(h, inst, s1, s2);
        dispatchQueue.pop_front();
        ++n;
        tickActive = true;
    }
}

void
Core::renamePhase()
{
    std::vector<DynInst *> &group = renameScratch;
    group.clear();
    unsigned n = 0;
    while (n < cfg.coreWidth && !decodeQueue.empty()) {
        DecodeSlot &slot = decodeQueue.front();
        if (slot.readyAt > cycle)
            break;
        const InstHandle h = slot.inst;
        DynInst &inst = slab.get(h);

        if (rob.size() >= cfg.robEntries) {
            ++st.robFullStalls;
            break;
        }
        if (dispatchQueue.size() >= 2 * cfg.coreWidth)
            break;
        if (inst.uop.hasDst() && renameMap.freeCount() == 0) {
            ++st.freelistStalls;
            break;
        }
        if (inst.isBranch() && branchesInFlight >= cfg.maxBranches) {
            ++st.branchCapStalls;
            break;
        }
        if (inst.isLoad() && lsu.lqFull()) {
            ++st.lsuFullStalls;
            break;
        }
        if (inst.isStore() && lsu.sqFull()) {
            ++st.lsuFullStalls;
            break;
        }
        if (inst.uop.op == Op::Fence && !rob.empty()) {
            // Speculation barrier: serialize at rename until every
            // older instruction has committed. Older in-flight
            // instructions are already renamed (rename is in-order),
            // so they drain independently; a wrong-path fence is
            // removed by the squash of its shadowing branch.
            ++st.fenceStalls;
            break;
        }

        if (inst.uop.hasSrc1())
            inst.psrc1 = renameMap.lookup(inst.uop.src1);
        if (inst.uop.hasSrc2())
            inst.psrc2 = renameMap.lookup(inst.uop.src2);
        if (inst.uop.hasDst()) {
            inst.pdst = renameMap.allocate(inst.uop.dst,
                                           inst.stalePdst);
            wakeupDone[inst.pdst] = 0;
            // New allocation epoch: any wakeup still queued for this
            // register (from a squashed former owner) is now stale.
            ++pregEpoch[inst.pdst];
            if (cshadow.on())
                cshadow.onAllocate(inst.pdst);
        }
        lastRenamedSeq = inst.seq;
        trace("rename", inst);

        rob.push_back(h);
        if (inst.isLoad())
            lsu.allocateLoad(h, inst);
        if (inst.isStore())
            lsu.allocateStore(inst);
        shadows.onRename(h, inst);
        if (inst.isBranch())
            ++branchesInFlight;

        if (inst.uop.op == Op::Nop || inst.uop.op == Op::Fence
            || inst.uop.isHalt()) {
            // A fence that reaches this point renamed into an empty
            // ROB; it completes immediately, like a Nop.
            inst.completed = true;
        } else {
            dispatchQueue.push_back(h);
        }
        group.push_back(&inst);
        decodeQueue.pop_front();
        ++n;
        tickActive = true;
    }
    if (!group.empty())
        schemePtr->onRenameGroup(group);
}

void
Core::decodePhase()
{
    unsigned n = 0;
    const std::size_t cap = 4 * cfg.coreWidth;
    while (n < cfg.coreWidth && !fetchQueue.empty()
           && decodeQueue.size() < cap) {
        DecodeSlot slot;
        slot.inst = fetchQueue.front();
        slot.readyAt = cycle + 1 + frontendExtraDelay;
        decodeQueue.push_back(slot);
        fetchQueue.pop_front();
        ++n;
        tickActive = true;
    }
}

void
Core::fetchPhase()
{
    if (haltedFlag || fetchHalted || cycle < fetchStallUntil)
        return;
    unsigned n = 0;
    while (n < cfg.fetchWidth
           && fetchQueue.size() < cfg.fetchBufferEntries) {
        tickActive = true;
        if (pc >= program->code.size()) {
            // Wrong-path runoff past the program end: wait for the
            // inevitable squash.
            fetchHalted = true;
            break;
        }
        // The decode cache says which front-end path the op takes;
        // the freshly allocated slot is reset and stamped with its
        // identity here.
        const DecodedOp &d = dcache.lookup(pc);
        const InstHandle h = slab.alloc();
        DynInst &inst = slab.get(h);
        inst = DynInst{};
        inst.pc = pc;
        inst.uop = program->code[pc];
        inst.seq = nextSeq++;
        inst.tenant = currentTenant;

        if (d.kind == FetchKind::JmpReg) {
            // Always taken; the BTB supplies the target. An untrained
            // entry predicts fall-through, so laying the preferred
            // target right after the jr makes a cold BTB harmless.
            inst.predTaken = true;
            inst.predTarget = btb.predict(pc);
            fetchQueue.push_back(h);
            ++n;
            pc = inst.predTarget;
            break; // Redirect: resume at the target next cycle.
        }
        if (d.kind == FetchKind::Jmp) {
            inst.predTaken = true;
            fetchQueue.push_back(h);
            ++n;
            pc = inst.uop.target;
            break; // Redirect: resume at the target next cycle.
        }
        if (d.kind == FetchKind::CondBranch) {
            inst.histSnapshot = ghist;
            inst.predTaken = predictor.predict(pc, ghist);
            ghist = (ghist << 1) | (inst.predTaken ? 1u : 0u);
            fetchQueue.push_back(h);
            ++n;
            if (inst.predTaken) {
                pc = inst.uop.target;
                break; // Redirect: resume at the target next cycle.
            }
            ++pc;
            continue;
        }
        if (d.kind == FetchKind::Halt) {
            fetchQueue.push_back(h);
            fetchHalted = true;
            break;
        }
        fetchQueue.push_back(h);
        ++pc;
        ++n;
    }
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

void
Core::squash(SeqNum from_seq, std::uint32_t new_pc)
{
    std::uint64_t count = 0;

    // Front-end queues hold the only reference to their records:
    // free directly.
    for (InstHandle h : fetchQueue) {
        slab.free(h);
        ++count;
    }
    fetchQueue.clear();
    for (const DecodeSlot &slot : decodeQueue) {
        slab.free(slot.inst);
        ++count;
    }
    decodeQueue.clear();
    // Dispatch-queue instructions are renamed, so they also sit in
    // the ROB: count them here (matching the engine's historical
    // squash accounting) but leave the free to the ROB walk.
    for (InstHandle h : dispatchQueue) {
        sb_assert(slab.get(h).seq > from_seq,
                  "dispatch queue squash overlap");
        ++count;
    }
    dispatchQueue.clear();

    std::uint64_t ghist_restore = ghist;
    while (!rob.empty()) {
        const InstHandle h = rob.back();
        DynInst &inst = slab.get(h);
        if (inst.seq <= from_seq)
            break;
        inst.squashed = true;
        schemePtr->onSquashWalk(inst);
        if (inst.pdst != invalidPhysReg) {
            renameMap.unwind(inst.uop.dst, inst.pdst,
                             inst.stalePdst);
        }
        if (inst.isBranch()) {
            sb_assert(branchesInFlight > 0, "branch count underflow");
            --branchesInFlight;
            if (inst.uop.op != Op::Jmp && !inst.uop.isIndirect())
                ghist_restore = inst.histSnapshot;
        }
        rob.pop_back();
        slab.free(h); // Every handle to this instruction is now stale.
        ++count;
    }
    lsu.squash(from_seq);
    iq.squash(from_seq);
    schemePtr->onSquash(from_seq);

    // Every sequence number below nextSeq is now renamed, committed,
    // or squashed, so the visibility-point cap may advance to the
    // next instruction to be fetched (monotonicity is preserved
    // because nextSeq only grows).
    lastRenamedSeq = nextSeq - 1;

    ghist = ghist_restore;
    pc = new_pc;
    fetchStallUntil = cycle + 1;
    fetchHalted = false;
    st.squashedInsts += count;
    ++st.squashes;
}

// ---------------------------------------------------------------------
// Context switch (protection domains)
// ---------------------------------------------------------------------

void
Core::performContextSwitch(SeqNum marker_seq, std::uint32_t marker_pc,
                           TenantId to)
{
    // Kill every in-flight instruction younger than the committed
    // marker. The walk-back restores the committed RAT, so the
    // renameMap lookups below read architectural state.
    squash(marker_seq, marker_pc + 1);

    // Bank out the outgoing tenant's architectural registers (and
    // their shadow labels, so taint does not bleed across domains
    // through physical-register reuse).
    TenantCtx &out = tenantCtxs[currentTenant];
    out.archRegs.assign(numArchRegs, 0);
    out.archLabels.assign(numArchRegs, ContractShadow::Label{});
    for (unsigned r = 0; r < numArchRegs; ++r) {
        const PhysReg p = renameMap.lookup(static_cast<ArchReg>(r));
        out.archRegs[r] = regVal[p];
        if (cshadow.on())
            out.archLabels[r] = cshadow.regLabel(p);
    }
    out.resumePc = marker_pc + 1;
    out.started = true;

    // Bank in the incoming tenant. A tenant never scheduled before
    // starts at its recorded entry point with zeroed registers:
    // domain setup is the tenant's own architectural code.
    TenantCtx &in = tenantCtxs[to];
    std::uint32_t resume;
    if (in.started) {
        for (unsigned r = 0; r < numArchRegs; ++r) {
            const PhysReg p =
                renameMap.lookup(static_cast<ArchReg>(r));
            regVal[p] = in.archRegs[r];
            if (cshadow.on())
                cshadow.setRegLabel(p, in.archLabels[r]);
        }
        resume = in.resumePc;
    } else {
        for (unsigned r = 0; r < numArchRegs; ++r) {
            const PhysReg p =
                renameMap.lookup(static_cast<ArchReg>(r));
            regVal[p] = 0;
            if (cshadow.on())
                cshadow.setRegLabel(p, ContractShadow::Label{});
        }
        auto e = tenantEntry.find(to);
        resume = e != tenantEntry.end() ? e->second : marker_pc + 1;
    }
    currentTenant = to;

    // Predictor hygiene policy: flush models hardware with
    // cross-domain prediction isolation; keep models shared predictor
    // state — the Spectre v2 / swapgs training channel.
    if (cfg.flushPredictorsOnSwitch) {
        predictor.flushSpeculativeState();
        btb.flush();
        ghist = 0;
    }

    pc = resume;
    fetchHalted = false;
    // The squash charged its one-cycle redirect; the switch charges
    // the full pipeline-refill + state-swap cost on top.
    fetchStallUntil = cycle + cfg.contextSwitchPenalty;
    ++switchCount;
    ++st.contextSwitches;
}

} // namespace sb
