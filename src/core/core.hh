/**
 * @file
 * BOOM-class out-of-order core model.
 *
 * A cycle-level model of the SonicBOOM pipeline with the structures
 * the paper's microarchitectures modify made explicit:
 *
 *   fetch -> decode -> rename (RAT/free list) -> dispatch -> unified
 *   issue queue (wakeup/select) -> execute / LSU -> writeback ->
 *   in-order commit (ROB)
 *
 * including speculative L1-hit scheduling, partial store issue,
 * optimistic memory disambiguation with violation flushes, branch
 * mispredict recovery by exact walk-back, and C/D-shadow tracking
 * with an in-order visibility point. Secure speculation schemes plug
 * in through the SecureScheme hook interface.
 *
 * Stages are evaluated back-to-front each tick so an instruction
 * advances at most one stage per cycle and same-cycle wakeup/select
 * behaves like hardware. run() jumps over stretches of quiet ticks
 * (ticks in which no stage does work) with exactly the results of
 * ticking through them; see run().
 *
 * In-flight instructions live in a fixed-capacity, generation-tagged
 * slab (core/inst_slab.hh); every pipeline structure stores 32-bit
 * InstHandles. Records are allocated at fetch, freed at commit or
 * during the squash walk; structures that can outlive an instruction
 * revalidate handles through the slab. Each static op's fetch
 * classification is memoized per PC (core/decode_cache.hh).
 * Completions and delayed wakeup broadcasts are timed events on one
 * timing wheel (core/timing_wheel.hh), whose next non-empty bucket is
 * also the idle skip's event trigger.
 */

#ifndef SB_CORE_CORE_HH
#define SB_CORE_CORE_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/btb.hh"
#include "branch/tage.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/contract_shadow.hh"
#include "core/decode_cache.hh"
#include "core/dyn_inst.hh"
#include "core/inst_slab.hh"
#include "core/invariants.hh"
#include "core/issue_queue.hh"
#include "core/timing_wheel.hh"
#include "core/lsu.hh"
#include "core/rename_map.hh"
#include "core/ring.hh"
#include "core/scheme_iface.hh"
#include "core/shadow_tracker.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"

namespace sb
{

/**
 * Cached handles to the core's counters, resolved once at
 * construction. The per-cycle paths increment through these
 * references; the string-keyed StatGroup registry stays authoritative
 * for harvesting (ExperimentRunner reads `stats().counters()`).
 */
struct CoreStats
{
    explicit CoreStats(StatGroup &g)
        : cycles(g.counter("cycles")),
          committedInsts(g.counter("committed_insts")),
          committedLoads(g.counter("committed_loads")),
          committedStores(g.counter("committed_stores")),
          committedBranches(g.counter("committed_branches")),
          storeDrains(g.counter("store_drains")),
          deferredBroadcasts(g.counter("deferred_broadcasts")),
          branchMispredicts(g.counter("branch_mispredicts")),
          forwardStalls(g.counter("forward_stalls")),
          disambiguationBypasses(g.counter("disambiguation_bypasses")),
          loadForwards(g.counter("load_forwards")),
          mshrRetries(g.counter("mshr_retries")),
          loadL1Misses(g.counter("load_l1_misses")),
          memOrderViolations(g.counter("mem_order_violations")),
          loadsBecameSafe(g.counter("loads_became_safe")),
          schemeSelectBlocks(g.counter("scheme_select_blocks")),
          schemeIssueKills(g.counter("scheme_issue_kills")),
          schemeMissDelays(g.counter("scheme_miss_delays")),
          iqFullStalls(g.counter("iq_full_stalls")),
          robFullStalls(g.counter("rob_full_stalls")),
          freelistStalls(g.counter("freelist_stalls")),
          branchCapStalls(g.counter("branch_cap_stalls")),
          lsuFullStalls(g.counter("lsu_full_stalls")),
          fenceStalls(g.counter("fence_stalls")),
          squashedInsts(g.counter("squashed_insts")),
          squashes(g.counter("squashes")),
          decodeCacheHits(g.counter("decode_cache_hits")),
          decodeCacheMisses(g.counter("decode_cache_misses")),
          slabHighWater(g.counter("slab_high_water")),
          handlesRecycled(g.counter("handles_recycled")),
          contextSwitches(g.counter("context_switches"))
    {
    }

    Counter &cycles;
    Counter &committedInsts;
    Counter &committedLoads;
    Counter &committedStores;
    Counter &committedBranches;
    Counter &storeDrains;
    Counter &deferredBroadcasts;
    Counter &branchMispredicts;
    Counter &forwardStalls;
    Counter &disambiguationBypasses;
    Counter &loadForwards;
    Counter &mshrRetries;
    Counter &loadL1Misses;
    Counter &memOrderViolations;
    Counter &loadsBecameSafe;
    Counter &schemeSelectBlocks;
    Counter &schemeIssueKills;
    Counter &schemeMissDelays;
    Counter &iqFullStalls;
    Counter &robFullStalls;
    Counter &freelistStalls;
    Counter &branchCapStalls;
    Counter &lsuFullStalls;
    /** Cycles rename held a Fence back waiting for the ROB to drain. */
    Counter &fenceStalls;
    Counter &squashedInsts;
    Counter &squashes;
    /** Engine health: decode-cache effectiveness + slab churn. */
    Counter &decodeCacheHits;
    Counter &decodeCacheMisses;
    Counter &slabHighWater;
    Counter &handlesRecycled;
    /** Protection-domain switches performed (commit-time markers). */
    Counter &contextSwitches;
};

/**
 * One attacker-visible memory observation, recorded at commit time.
 * The sequence of these records over a run is the core's observation
 * trace: everything a same-address-space timing adversary can measure
 * about the committed loads (program point, when the value committed,
 * how long memory took, and whether it hit in the L1). The
 * differential leakage verifier (src/harness/verify.hh) runs paired
 * executions that differ only in a secret byte and requires the two
 * traces to be identical under a secure scheme.
 */
struct LoadObservation
{
    std::uint32_t pc = 0;   ///< Static code index of the load.
    Cycle commitCycle = 0;  ///< Cycle the load committed.
    Cycle completeCycle = 0;///< Cycle the data became available.
    bool l1Hit = false;     ///< Demand access hit in the L1.

    bool
    operator==(const LoadObservation &o) const
    {
        return pc == o.pc && commitCycle == o.commitCycle
               && completeCycle == o.completeCycle && l1Hit == o.l1Hit;
    }
};

/** Result of a simulation run. */
struct RunResult
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    bool halted = false;
    /** The soft watchdog detected a commit-less stall (liveness
     *  failure) and ended the run; see Core::setSoftWatchdog. */
    bool watchdogTripped = false;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions)
                                 / static_cast<double>(cycles);
    }
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param config core geometry (Table 1 presets in CoreConfig).
     * @param scheme_config the knobs @p scheme was made from
     *        (makeScheme); the core reads them only through @p scheme.
     * @param scheme hook implementation; nullptr = unsafe baseline.
     * @param program the program to run (copied functionally).
     */
    Core(const CoreConfig &config, const SchemeConfig &scheme_config,
         std::unique_ptr<SecureScheme> scheme, const Program &program);

    /**
     * Run until @p max_insts commits, @p max_cycles, a halt, or a
     * stop: requestStop(), the soft watchdog or the stop check.
     *
     * Skips idle cycles bit-identically. A quiet tick, one in which
     * no pipeline phase did work, leaves the core at a fixed point:
     * every later tick repeats it exactly, stall counters and select
     * vetoes included, until a timed trigger fires (quietUntil()).
     * After a quiet tick run() measures each counter's change across
     * the next one and, if that tick is quiet too, jumps to the cycle
     * before the trigger, adding change x skipped cycles. Cycles,
     * counters, commits and observations all match a stepped run.
     * Never skips with a trace hook attached, and the post-halt store
     * drain always steps.
     */
    RunResult run(std::uint64_t max_insts, std::uint64_t max_cycles);

    /** Advance exactly one cycle (never skips). */
    void tick();

    /**
     * End the current run() after the tick in progress, without an
     * idle skip after it; the next run() carries on from there. For
     * hooks (a commit hook pausing at a PC); run() drops a request
     * made outside it.
     */
    void requestStop() { stopRequestedFlag = true; }

    // --- Accessors ------------------------------------------------------
    Cycle now() const { return cycle; }
    bool halted() const { return haltedFlag; }
    std::uint64_t committedInstructions() const { return committedCount; }
    /** Cycles run() jumped over instead of ticking (idle skip). An
     *  engine diagnostic: now() and the counters already count them. */
    std::uint64_t skippedCycles() const { return skippedCount; }
    const CoreConfig &config() const { return cfg; }
    StatGroup &stats() { return statGroup; }
    MemorySystem &memorySystem() { return mem; }
    SecureScheme &scheme() { return *schemePtr; }

    /** The in-flight instruction slab (engine-health diagnostics). */
    const InstSlab &instSlab() const { return slab; }

    /** Does @p h still address a live in-flight instruction? */
    bool slabAlive(InstHandle h) const { return slab.alive(h); }

    /** Visibility point (oldest unresolved C/D shadow). */
    SeqNum visibilityPoint() const
    {
        return shadows.visibilityPoint();
    }

    /** Visibility point as of the previous cycle (rename-broadcast
     *  latency: STT-Rename sees untaints one cycle late, Sec. 9.1). */
    SeqNum visibilityPointPrev() const
    {
        return shadows.visibilityPointPrev();
    }

    /** Is @p seq younger than an open shadow? */
    bool isSpeculative(SeqNum seq) const
    {
        return shadows.isSpeculative(seq);
    }

    /**
     * Schedule a wakeup broadcast of @p preg at cycle @p at (used by
     * schemes that own deferred broadcasts, e.g. NDA). The broadcast
     * is dropped if @p preg is re-allocated before it fires.
     */
    void scheduleWakeup(PhysReg preg, Cycle at);

    /**
     * Re-inject a load the scheme took ownership of through
     * SecureScheme::delayLoadMiss(): it re-arbitrates for a memory
     * port like an MSHR-rejected retry (scheme tick() runs before the
     * select phase, so a load released there retries the same cycle).
     */
    void
    retryLoad(InstHandle load)
    {
        retryLoads.push_back(load);
        tickActive = true;
    }

    /** Per-commit observer (used by examples, e.g. the attack PoC). */
    using CommitHook = std::function<void(const DynInst &, Cycle)>;
    void setCommitHook(CommitHook hook) { commitHook = std::move(hook); }

    /**
     * Record a LoadObservation for every committed load from now on
     * (the observation hook the differential leakage verifier runs
     * on). Off by default: the recording branch costs one predictable
     * test per commit, and perf runs never enable it.
     */
    void enableObservationTrace() { observing = true; }

    /** Committed-load observations recorded so far (program order). */
    const std::vector<LoadObservation> &observationTrace() const
    {
        return observations;
    }

    /**
     * Pipeline-event observer (the stand-in for the paper's
     * TraceDoctor instrumentation): called with an event name at
     * rename / block / kill / issue / execute / complete / squash.
     * `block` events fire on every cycle a select veto holds an
     * instruction back, so while a hook is attached run() steps every
     * cycle instead of skipping idle ones (skippedCycles() stays put).
     */
    using TraceHook =
        std::function<void(const char *, const DynInst &, Cycle)>;
    void setTraceHook(TraceHook hook) { traceHook = std::move(hook); }

    /** Protection domain instructions are currently fetched under. */
    TenantId activeTenant() const { return currentTenant; }

    /** Context switches performed so far. */
    std::uint64_t contextSwitchCount() const { return switchCount; }

    /** Read an architectural register (through the RAT; for tests). */
    Word readArchReg(ArchReg reg) const;

    /** Read functional memory (committed state; for tests/examples). */
    Word readMemory(Addr addr) const { return workingMem.read(addr); }

    /** The committed functional memory image (conformance oracle). */
    const MemoryImage &memoryImage() const { return workingMem; }

    /** In-core invariant checkers (pure observers; see invariants.hh). */
    const InvariantChecker &invariants() const { return inv; }

    /** Force the invariant checkers on/off, overriding the
     *  build/environment default (the fuzz harness always enables). */
    void setInvariantsEnabled(bool enable) { inv.setActive(enable); }

    /** Contract shadow engine verdicts, including the STT transmit
     *  and NDA consume obligation counts (pure observer; see
     *  contract_shadow.hh). */
    const ContractShadow &contractShadow() const { return cshadow; }

    /** Force the contract shadow engine on/off, overriding the
     *  build/environment default (the attack, conformance and tenant
     *  harnesses always enable). */
    void setContractShadowEnabled(bool enable)
    {
        cshadow.setActive(enable);
    }

    /**
     * Replace the hard 100k-cycle commit-stall panic with a soft
     * watchdog: after @p stall_cycles without a commit the run ends
     * with RunResult::watchdogTripped set instead of aborting the
     * process, so a fuzz harness can report the failing seed. 0
     * restores the hard panic (the default).
     */
    void setSoftWatchdog(Cycle stall_cycles)
    {
        softWatchdogCycles = stall_cycles;
    }

    /** True once the soft watchdog ended the run. */
    bool watchdogTripped() const { return watchdogTrippedFlag; }

    /**
     * run() polls @p check every 4096 cycles, counted across run()
     * calls; an idle skip never jumps a poll. Once it returns true,
     * this run() and every later one end with
     * RunResult::watchdogTripped set and stopped() true. Why it fired
     * is the caller's to know.
     */
    void setStopCheck(std::function<bool()> check)
    {
        stopCheck = std::move(check);
    }

    /** True once the stop check ended the run. */
    bool stopped() const { return stoppedFlag; }

  private:
    // --- Pipeline phases (called back-to-front from tick()) -----------
    void commitPhase();
    void drainStores();
    void writebackPhase();
    void executePhase();
    void shadowPhase();
    void selectPhase();
    void dispatchPhase();
    void renamePhase();
    void decodePhase();
    void fetchPhase();

    // --- Helpers ----------------------------------------------------------
    void executeLoadAddr(InstHandle h, DynInst &inst);
    void loadMemoryStage(InstHandle h, DynInst &inst);
    void executeStoreAddr(DynInst &inst);
    void executeStoreData(DynInst &inst);
    void executeBranch(DynInst &inst);
    void executeAluAtSelect(InstHandle h, DynInst &inst);
    /** Complete a load's memory stage with @p value; @p fwd names the
     *  forwarding store (NoMatch: the value came from memory). */
    void finishLoad(InstHandle h, DynInst &inst, Cycle complete_at,
                    Word value, const ForwardOutcome &fwd);

    /** Latency of an op class from the configuration. */
    unsigned opLatency(OpClass cls) const;

    /** Apply (or enqueue) a wakeup broadcast of @p preg. */
    void applyWakeup(PhysReg preg, Cycle at);

    /** Publish slab/decode-cache health into CoreStats (delta-based,
     *  so mid-run StatGroup resets keep window semantics). */
    void syncEngineStats();

    /**
     * Squash everything younger than @p from_seq and refetch at
     * @p new_pc. Restores RAT/free-list/taint by walk-back and frees
     * the squashed slab records.
     */
    void squash(SeqNum from_seq, std::uint32_t new_pc);

    /**
     * Switch to protection domain @p to: squash every in-flight
     * instruction younger than the committed marker at (@p marker_seq,
     * @p marker_pc), bank out the outgoing tenant's architectural
     * registers (and shadow labels), bank in the incoming tenant's,
     * flush predictor state per CoreConfig::flushPredictorsOnSwitch,
     * and charge CoreConfig::contextSwitchPenalty of fetch stall.
     */
    void performContextSwitch(SeqNum marker_seq,
                              std::uint32_t marker_pc, TenantId to);

    /** Commit-less cycles the forward-progress watchdog allows. */
    Cycle
    stallLimit() const
    {
        return softWatchdogCycles ? softWatchdogCycles : 100000;
    }

    /**
     * After a quiet tick: the first cycle after now() whose tick may
     * differ from it (the earliest timed trigger), or @p bound if no
     * trigger comes before it.
     */
    Cycle quietUntil(Cycle bound) const;

    // --- Configuration -----------------------------------------------------
    CoreConfig cfg;
    std::unique_ptr<SecureScheme> schemePtr;
    /** schemePtr->allowsSpeculativeScheduling(), read once at attach. */
    bool speculativeScheduling = true;
    const Program *program;

    // --- Substrate ----------------------------------------------------------
    MemorySystem mem;
    TagePredictor predictor;
    RenameMap renameMap;
    ShadowTracker shadows;
    ContractShadow cshadow;
    MemoryImage workingMem;   ///< Committed functional memory.

    /**
     * In-flight instruction storage. Capacity is exact by
     * construction: every live record sits in exactly one of the
     * fetch queue, the decode queue, or the ROB (dispatch-queue
     * entries are already in the ROB), so the sum of those bounds
     * (plus slack for same-cycle handoffs) can never overflow.
     */
    InstSlab slab;
    DecodeCache dcache;       ///< Per-PC decoded micro-op cache.

    // --- Register state --------------------------------------------------
    std::vector<Word> regVal;
    std::vector<std::uint8_t> wakeupDone;
    /** Allocation epoch per physical register; a queued wakeup fires
     *  only if its register has not been re-allocated since. */
    std::vector<std::uint32_t> pregEpoch;

    // --- Pipeline buffers ---------------------------------------------------
    /** Rings sized from the geometry bound each stage enforces. */
    struct DecodeSlot
    {
        InstHandle inst = invalidInstHandle;
        Cycle readyAt = 0;
    };
    Ring<InstHandle> fetchQueue;    ///< <= fetchBufferEntries.
    Ring<DecodeSlot> decodeQueue;   ///< <= 4 * coreWidth.
    Ring<InstHandle> dispatchQueue; ///< <= 2 * coreWidth.
    Ring<InstHandle> rob;           ///< <= robEntries.
    IssueQueue iq;
    Lsu lsu;

    // --- Event machinery ------------------------------------------------------
    /** A timed event: the completion of @ref inst, or, when @ref inst
     *  is invalidInstHandle, the wakeup broadcast of @ref preg. */
    struct CoreEvent
    {
        InstHandle inst;
        PhysReg preg;
        std::uint32_t epoch; ///< pregEpoch[preg] at scheduling time.
    };
    /** Longest possible event delay, from the configured latencies. */
    unsigned eventHorizon() const;
    TimingWheel<CoreEvent> events;
    std::vector<InstHandle> execNow;   ///< Executing this cycle.
    std::vector<InstHandle> execNext;  ///< Selected, executes next cycle.
    /** MSHR-reject and forwarding retries. Stale handles stay until
     *  popped, so no bound holds: the ring doubles when full. */
    Ring<InstHandle> retryLoads;
    /** Per-cycle scratch buffers (members so their capacity is kept
     *  across cycles: the steady-state hot path never allocates). */
    std::vector<InstHandle> issuedScratch;
    std::vector<DynInst *> renameScratch;
    std::vector<InstHandle> safeScratch;
    std::vector<InstHandle> wokenScratch;

    // --- Front-end state -------------------------------------------------------
    std::uint32_t pc = 0;
    std::uint64_t ghist = 0;
    /** Branch target buffer for indirect jumps (JmpReg): fixed
     *  set-associative table of last committed targets per static PC.
     *  Trained at commit so wrong-path execution cannot pollute it
     *  (keeps runs deterministic); flushed on a context switch under
     *  CoreConfig::flushPredictorsOnSwitch. */
    BranchTargetBuffer btb;
    Cycle fetchStallUntil = 0;
    bool fetchHalted = false;
    unsigned frontendExtraDelay = 0;

    // --- Protection-domain state ------------------------------------------------
    /** Banked architectural state of a descheduled tenant. */
    struct TenantCtx
    {
        std::vector<Word> archRegs;
        std::vector<ContractShadow::Label> archLabels;
        std::uint32_t resumePc = 0;
        bool started = false; ///< Has run before (resumePc is valid).
    };
    /** Commit-time switch markers: marker pc -> incoming tenant. */
    std::unordered_map<std::uint32_t, TenantId> switchAt;
    /** First-dispatch entry pc per tenant (Program::tenantEntries). */
    std::unordered_map<TenantId, std::uint32_t> tenantEntry;
    std::unordered_map<TenantId, TenantCtx> tenantCtxs;
    TenantId currentTenant = 0;
    std::uint64_t switchCount = 0;

    // --- Execution state ---------------------------------------------------------
    Cycle cycle = 0;
    SeqNum nextSeq = 1;
    SeqNum lastRenamedSeq = 0;
    unsigned branchesInFlight = 0;
    unsigned memPortsUsed = 0;
    Cycle divBusyUntil = 0;
    Cycle fdivBusyUntil = 0;
    bool haltedFlag = false;
    std::uint64_t committedCount = 0;
    Cycle lastCommitCycle = 0;
    Cycle softWatchdogCycles = 0;   ///< 0 = hard panic on stall.
    /** Set by every phase that does work in the current tick; a tick
     *  that leaves it clear is quiet (see run()). */
    bool tickActive = false;
    std::uint64_t skippedCount = 0; ///< Cycles skipped by run().
    bool watchdogTrippedFlag = false;
    bool stopRequestedFlag = false; ///< requestStop() during run().
    /** Polled from run(), never from tick(), so the pipeline loop
     *  is untouched. */
    std::function<bool()> stopCheck;
    bool stoppedFlag = false;
    /** Cycles until the next poll, kept across run() calls. */
    unsigned untilStopPoll = 4096;
    InvariantChecker inv;

    /** Emit a trace event if a hook is attached. */
    void
    trace(const char *event, const DynInst &inst)
    {
        if (traceHook)
            traceHook(event, inst, cycle);
    }

    /** syncEngineStats() watermarks (deltas survive group resets). */
    std::uint64_t lastPubDcacheHits = 0;
    std::uint64_t lastPubDcacheMisses = 0;
    std::uint64_t lastPubRecycled = 0;

    StatGroup statGroup;
    CoreStats st;           ///< Cached handles into statGroup.
    /** Every counter in statGroup, and its value before the tick run()
     *  measures for an idle skip. */
    std::vector<Counter *> counterRefs;
    std::vector<std::uint64_t> counterSnap;
    CommitHook commitHook;
    TraceHook traceHook;
    bool observing = false; ///< Record LoadObservations at commit.
    std::vector<LoadObservation> observations;
};

} // namespace sb

#endif // SB_CORE_CORE_HH
