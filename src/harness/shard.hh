/**
 * @file
 * Shard dispatcher: fault-tolerant multi-process execution of a cell
 * batch across supervised worker processes.
 *
 * Each worker is a fork() of the dispatcher, with no exec: it
 * inherits the batch, so a `run` frame names a cell by its index and
 * the child simulates the RunSpec it already holds. The dispatcher
 * talks to every worker over its own socketpair and multiplexes all
 * of them from a single poll() loop; idle workers take cells from
 * one FIFO of pending cells (every cell that reaches the dispatcher
 * is a cache miss and unique in its batch, so no cell has a better
 * home than another).
 *
 * A child keeps what a fresh process would have given it: default
 * SIGINT/SIGTERM dispositions, SB_FAULT re-read with its counters at
 * zero, and a ResultCache of its own on the shared directory (flock
 * locks belong to the open file, which fork shares, so an inherited
 * cache would not exclude the siblings). It never returns into the
 * caller: it ends in _exit. Because run() forks, it must not be
 * entered while another thread is simulating; the engine never
 * starts its thread pool in shard mode.
 *
 * Supervision and failure semantics:
 *  - a worker that exits, breaks its stream, or never says hello is
 *    a CRASH; one that misses its per-cell kill deadline is a HANG
 *    and is SIGKILLed. Either way the in-flight cell is retried with
 *    capped exponential backoff (backoffDelayMs) and the slot is
 *    respawned;
 *  - a cell whose attempts exceed the cap is QUARANTINED: it gets a
 *    stub outcome (stats["quarantined"] = 1) and lands on the
 *    report's poisoned-cell list instead of aborting the batch;
 *  - a slot whose respawns keep dying without completing a single
 *    cell is abandoned; when every slot is abandoned the dispatcher
 *    DEGRADES: it stops and hands its unfinished cells back
 *    (unfinished()) for the engine to run in-process, so workers that
 *    never finish a cell can slow a batch down but never fail it;
 *  - SIGINT/SIGTERM (common/signals.hh) stops it the same way; the
 *    engine then stubs the handed-back cells as interrupted.
 *
 * The dispatcher handles process faults only: what becomes of a cell
 * no worker finished is the engine's decision, for both backends.
 *
 * Workers persist their results through the shared crash-safe
 * ResultCache before replying, so a worker killed between store and
 * reply loses nothing: the retry is served from the cache, and
 * aggregates stay bit-identical to an in-process run.
 */

#ifndef SB_HARNESS_SHARD_HH
#define SB_HARNESS_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace sb
{

/**
 * Retry delay before attempt @p attempt (1-based: the delay after
 * the first failure is attempt 1): base * 2^(attempt-1), capped.
 */
unsigned backoffDelayMs(unsigned attempt, unsigned baseMs,
                        unsigned capMs);

struct ShardOptions
{
    /** Worker processes. */
    unsigned shards = 2;
    /** Shared result-cache directory the workers store into; empty
     *  runs the workers uncached. */
    std::string cacheDir;
    /** Per-cell wall-clock budget in seconds; 0 = a generous default.
     *  Workers get it as their deadline; the dispatcher kills at a
     *  slightly larger deadline (the backstop for wedged workers). */
    double cellTimeoutSec = 0;
    /** Attempts per cell before quarantine. */
    unsigned maxAttemptsPerCell = 3;
    /** Consecutive respawns of one slot without a completed cell
     *  before the slot is abandoned. */
    unsigned maxBarrenSpawns = 3;
    /** Backoff schedule (see backoffDelayMs). */
    unsigned backoffBaseMs = 25;
    unsigned backoffCapMs = 2000;
};

/** What happened while executing one batch (folded into EngineStats
 *  and the operator-facing grid summary). */
struct ShardReport
{
    unsigned workersSpawned = 0;
    std::uint64_t crashes = 0;   ///< Worker exits / broken streams.
    std::uint64_t hangs = 0;     ///< Kill-deadline SIGKILLs.
    std::uint64_t retries = 0;   ///< Cells re-dispatched after failure.
    bool degraded = false;       ///< Every slot abandoned; cells handed back.
    /** specKeys of quarantined cells (poisoned-cell list). */
    std::vector<std::string> quarantinedKeys;
};

class ShardDispatcher
{
  public:
    explicit ShardDispatcher(ShardOptions options);
    ~ShardDispatcher();

    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    /**
     * Execute the cells the workers can; results match the input
     * order. @p keys parallels @p specs (a cell's cache address, or
     * "" for uncacheable cells). A quarantined cell comes back as a
     * stub marked stats["quarantined"], an unfinished() one empty.
     * Forks the workers: no other thread may be simulating meanwhile.
     */
    std::vector<RunOutcome> run(const std::vector<RunSpec> &specs,
                                const std::vector<std::string> &keys);

    /** Cells the last run() handed back (it degraded or was
     *  interrupted), in input order. */
    const std::vector<std::size_t> &unfinished() const
    {
        return unfinishedCells;
    }

    /** Per cell: a worker ran it without persisting the result (its
     *  cache was off or unusable), so the caller should store it. */
    const std::vector<bool> &unpersisted() const
    {
        return unpersistedCells;
    }

    const ShardReport &report() const { return rep; }

  private:
    struct Worker;
    struct Batch;

    void spawnWorker(Worker &worker, const Batch &batch);
    void killWorker(Worker &worker);
    void reapWorker(Worker &worker);
    void shutdownWorkers();
    void onWorkerDeath(Worker &worker, Batch &batch, bool hang);
    void assignWork(Worker &worker, Batch &batch);
    bool handleFrames(Worker &worker, Batch &batch);

    ShardOptions opt;
    ShardReport rep;
    std::vector<Worker> workers;
    std::vector<std::size_t> unfinishedCells;
    std::vector<bool> unpersistedCells;
};

} // namespace sb

#endif // SB_HARNESS_SHARD_HH
