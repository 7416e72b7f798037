/**
 * @file
 * ExperimentEngine: runs batches of cells, each through serveCell
 * (ExperimentRunner::runOne behind the result cache), with three
 * things on top:
 *  - parallelism per batch: run() serves its cells on the calling
 *    thread plus min(jobs, cells) - 1 threads that it starts for the
 *    batch and joins before it returns, so no engine thread outlives
 *    run() and a one-job engine starts none. jobs comes from
 *    resolveJobs(), so SB_JOBS and --jobs bound simulation
 *    parallelism everywhere. Cells a shard dispatcher hands back
 *    (harness/shard.hh) are served the same way;
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

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace sb
{

class ResultCache;

/**
 * Serve one cell: a hit under @p key in @p cache that matches @p spec
 * is returned as it is (a cell a crashed shard worker stored before
 * it could reply); otherwise the cell runs under @p hooks, and a
 * cacheable result is stored. An empty @p key or a null @p cache
 * keeps the cell out of the cache. Returns whether @p out is now
 * persisted in @p cache. Both backends serve their cells here.
 */
bool serveCell(const RunSpec &spec, const std::string &key,
               ResultCache *cache, const RunHooks &hooks, RunOutcome &out);

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
        /** Workers, the calling thread included (a batch starts at
         *  most N - 1 threads); 0 defers to SB_JOBS then hardware. */
        unsigned jobs = 0;
        /** Result-cache directory; empty disables the disk cache. */
        std::string cacheDir;
        /** Worker processes for the sharded tier (forks of this
         *  process; see harness/shard.hh); 0 = in-process threads
         *  only (the default). Cells the dispatcher hands back run
         *  in-process on jobs workers. */
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
    /** Serve @p specs (cache addresses @p keys) into @p results on
     *  this thread and threads started for this call alone. */
    void serve(const std::vector<RunSpec> &specs,
               const std::vector<std::string> &keys,
               std::vector<RunOutcome> &results);

    unsigned numJobs;
    Options opt;
    std::unique_ptr<ResultCache> diskCache;
    EngineStats accounting;
};

} // namespace sb

#endif // SB_HARNESS_ENGINE_HH
