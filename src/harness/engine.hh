/**
 * @file
 * ExperimentEngine: runs batches of cells, each through
 * ExperimentRunner::runOne, with three things on top:
 *  - a persistent worker pool (threads live for the engine's
 *    lifetime, not per batch), sized by resolveJobs() so SB_JOBS and
 *    --jobs bound simulation parallelism everywhere. The thread that
 *    calls run() is one of the workers: it serves cells of its own
 *    batch through the same per-cell code (supervision hooks,
 *    interrupt stubs, the per-cell cache store) next to jobs - 1
 *    pool threads, so a one-job engine starts no thread at all.
 *    Cells a shard dispatcher hands back (harness/shard.hh) run
 *    through the same code on the calling thread;
 *  - in-batch deduplication: specs with the same specKey() are
 *    simulated once and fanned back out, so scenarios sharing grid
 *    cells (fig7 / fig8 / table3 / ...) pay for each cell once;
 *  - an optional content-addressed on-disk result cache
 *    (ResultCache), making warm reruns of the whole reproduction
 *    near-instant and letting one figure reuse another's cells across
 *    process lifetimes.
 *
 * Results are returned in input order and are bit-identical to
 * ExperimentRunner::runOne whichever path (simulated, deduped,
 * cached) served them.
 */

#ifndef SB_HARNESS_ENGINE_HH
#define SB_HARNESS_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"

namespace sb
{

class ResultCache;

/** Grid accounting accumulated over every run() batch of one engine. */
struct EngineStats
{
    std::uint64_t requested = 0;  ///< Specs passed to run().
    std::uint64_t simulated = 0;  ///< Cells actually simulated.
    std::uint64_t dedupHits = 0;  ///< Duplicates of an in-batch cell.
    std::uint64_t cacheHits = 0;  ///< Unique cells served from disk.
    double wallSeconds = 0.0;     ///< Wall-clock spent inside run().

    // Shard-tier accounting (all zero / false for in-process runs).
    std::uint64_t workersSpawned = 0; ///< Worker processes started.
    std::uint64_t shardCrashes = 0;   ///< Worker exits / broken streams.
    std::uint64_t shardHangs = 0;     ///< Kill-deadline SIGKILLs.
    std::uint64_t shardRetries = 0;   ///< Cells re-dispatched.
    std::uint64_t interruptedCells = 0; ///< Cells stubbed by SIGINT/TERM.
    bool shardDegraded = false; ///< Batch fell back to in-process.
    bool interrupted = false;   ///< A batch was cut short by a signal.
    /** Poisoned-cell list: specKeys quarantined after repeated
     *  worker-killing failures. */
    std::vector<std::string> quarantinedKeys;
};

class ExperimentEngine
{
  public:
    struct Options
    {
        /** Workers, the calling thread included (N - 1 pool
         *  threads); 0 defers to SB_JOBS then hardware. */
        unsigned jobs = 0;
        /** Result-cache directory; empty disables the disk cache. */
        std::string cacheDir;
        /** Worker processes for the sharded tier (forks of this
         *  process; see harness/shard.hh); 0 = in-process threads
         *  only (the default). A sharded engine never starts its
         *  thread pool. */
        unsigned shards = 0;
        /** Per-cell wall-clock budget in seconds; 0 = unlimited.
         *  Overruns come back marked stats["watchdog_tripped"] and
         *  are not cached. */
        double cellTimeoutSec = 0;
    };

    ExperimentEngine();
    explicit ExperimentEngine(Options options);
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Execute every spec; results match the input order. Duplicate
     * specs and cache hits are not re-simulated.
     */
    std::vector<RunOutcome> run(const std::vector<RunSpec> &specs);

    const EngineStats &stats() const { return accounting; }
    unsigned jobs() const { return numJobs; }
    /** Null when caching is disabled. */
    const ResultCache *cache() const { return diskCache.get(); }

  private:
    /** A pool thread: serve every published batch until shutdown. */
    void workerLoop();
    /** Serve @p specs (cache addresses @p keys) into @p results with
     *  this thread and the pool, if any. */
    void serve(const std::vector<RunSpec> &specs,
               const std::vector<std::string> &keys,
               std::vector<RunOutcome> &results);
    /** Claim and run cells of the published batch until none is left
     *  (pool threads and run()'s caller; @p lock holds poolMutex).
     *  A cell that throws ends the process on either kind of worker:
     *  the batch lives in run()'s frame, which pool threads may still
     *  be reading. */
    void serveBatch(std::unique_lock<std::mutex> &lock) noexcept;

    unsigned numJobs;
    Options opt;
    std::unique_ptr<ResultCache> diskCache;
    EngineStats accounting;

    // Persistent-pool state, all guarded by poolMutex. A batch is
    // published by pointing batchSpecs/batchKeys/batchResults at
    // run()-local vectors; workers (the caller too) claim indices via
    // nextIndex.
    std::mutex poolMutex;
    std::condition_variable workReady;
    std::condition_variable batchDone;
    bool shuttingDown = false;
    const std::vector<RunSpec> *batchSpecs = nullptr;
    const std::vector<std::string> *batchKeys = nullptr;
    std::vector<RunOutcome> *batchResults = nullptr;
    std::size_t nextIndex = 0;
    std::size_t completedCount = 0;
    std::vector<std::thread> pool;
};

} // namespace sb

#endif // SB_HARNESS_ENGINE_HH
