#include "harness/engine.hh"

#include <chrono>
#include <unordered_map>

#include "common/logging.hh"
#include "common/signals.hh"
#include "harness/result_cache.hh"
#include "harness/shard.hh"

namespace sb
{

ExperimentEngine::ExperimentEngine() : ExperimentEngine(Options{}) {}

ExperimentEngine::ExperimentEngine(Options options)
    : numJobs(resolveJobs(options.jobs)), opt(options)
{
    if (!options.cacheDir.empty()) {
        diskCache = std::make_unique<ResultCache>(options.cacheDir);
        // An unusable directory already warned; run uncached.
        if (!diskCache->ok())
            diskCache.reset();
    }
    // Pool threads are spawned lazily on the first batch with work,
    // so an engine that only ever serves cached/model-only requests
    // never parks idle threads.
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        shuttingDown = true;
    }
    workReady.notify_all();
    for (auto &t : pool)
        t.join();
}

void
ExperimentEngine::workerLoop()
{
    std::unique_lock<std::mutex> lock(poolMutex);
    while (true) {
        workReady.wait(lock, [this] {
            return shuttingDown
                   || (batchSpecs && nextIndex < batchSpecs->size());
        });
        if (shuttingDown)
            return;
        serveBatch(lock);
    }
}

void
ExperimentEngine::serveBatch(std::unique_lock<std::mutex> &lock) noexcept
{
    while (batchSpecs && nextIndex < batchSpecs->size()) {
        const std::size_t idx = nextIndex++;
        const RunSpec &spec = (*batchSpecs)[idx];
        const std::string &key = (*batchKeys)[idx];
        std::vector<RunOutcome> *results = batchResults;
        lock.unlock();
        RunOutcome out;
        if (interruptRequested()) {
            // Drain the batch with stubs instead of simulating: run()
            // still sees every cell complete, the caller gets partial
            // results and a nonzero exit.
            out = outcomeHeader(spec, "interrupted");
        } else {
            RunHooks hooks;
            hooks.wallDeadlineSec = opt.cellTimeoutSec;
            hooks.interruptible = true;
            out = ExperimentRunner::runOne(spec, hooks);
        }
        // Flush to disk as cells complete so an interrupted grid run
        // keeps its progress (empty key: cell is banned from the cache
        // after a collision; timed-out / interrupted stubs are
        // supervision artifacts, not results).
        if (diskCache && !key.empty() && outcomeIsCacheable(out))
            diskCache->store(key, out);
        lock.lock();
        (*results)[idx] = std::move(out);
        if (++completedCount == results->size())
            batchDone.notify_all();
    }
}

std::vector<RunOutcome>
ExperimentEngine::run(const std::vector<RunSpec> &specs)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    accounting.requested += specs.size();

    // Collapse the request onto unique cells (content-addressed).
    struct Cell
    {
        std::string key;
        const RunSpec *spec;
        std::vector<std::size_t> users; ///< Input indices served.
        bool cacheable = true;
        bool resolved = false;
        RunOutcome outcome;
    };
    std::vector<Cell> cells;
    std::unordered_map<std::string, std::size_t> cellByKey;
    cells.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::string key = specs[i].specKey();
        auto it = cellByKey.find(key);
        if (it != cellByKey.end()) {
            Cell &prior = cells[it->second];
            // Dedup only on identical content, not the 64-bit hash
            // alone: a key collision between distinct specs keeps
            // both cells and bans the shared cache address.
            if (prior.spec->canonical() == specs[i].canonical()) {
                prior.users.push_back(i);
                ++accounting.dedupHits;
                continue;
            }
            sb_warn("specKey collision (", key, "): '",
                    prior.spec->canonical(), "' vs '",
                    specs[i].canonical(), "'; not caching either");
            prior.cacheable = false;
            cells.push_back(Cell{std::move(key), &specs[i], {i}, false,
                                 false, RunOutcome{}});
            continue;
        }
        cellByKey.emplace(key, cells.size());
        cells.push_back(Cell{std::move(key), &specs[i], {i}, true,
                             false, RunOutcome{}});
    }

    // Serve what the disk cache already knows. A hit must also match
    // the spec on the fields the outcome carries, so a cross-process
    // key collision (or a hand-edited cache) re-simulates instead of
    // silently serving another spec's numbers.
    std::vector<RunSpec> toRun;
    std::vector<std::string> toRunKeys;
    std::vector<std::size_t> toRunCell;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        Cell &cell = cells[c];
        if (diskCache && cell.cacheable
            && diskCache->lookup(cell.key, cell.outcome)) {
            if (outcomeMatchesSpec(cell.outcome, *cell.spec)) {
                cell.resolved = true;
                ++accounting.cacheHits;
                continue;
            }
            // Leave the cell cacheable: the fresh result overwrites
            // the bad entry (last line wins on load), so a corrupt
            // entry self-heals instead of re-warning forever.
            sb_warn("cache entry ", cell.key,
                    " does not match its spec ('",
                    cell.spec->canonical(), "'); re-simulating");
        }
        toRun.push_back(*cell.spec);
        // An empty key tells the worker not to store this cell.
        toRunKeys.push_back(cell.cacheable ? cell.key : std::string());
        toRunCell.push_back(c);
    }

    // Simulate the remainder: sharded worker processes when
    // requested, the persistent in-process pool otherwise.
    std::vector<RunOutcome> ran(toRun.size());
    if (!toRun.empty() && opt.shards > 0) {
        ShardOptions shardOpt;
        shardOpt.shards = opt.shards;
        shardOpt.cacheDir = diskCache ? opt.cacheDir : std::string();
        shardOpt.cellTimeoutSec = opt.cellTimeoutSec;
        ShardDispatcher dispatcher(std::move(shardOpt));
        ran = dispatcher.run(toRun, toRunKeys);
        // Workers persist their results before replying; store only
        // what nobody persisted (the degraded / uncached-worker
        // paths), and never supervision stubs.
        const std::vector<bool> &persisted =
            dispatcher.persistedByWorker();
        for (std::size_t j = 0; j < ran.size(); ++j)
            if (diskCache && !toRunKeys[j].empty() && !persisted[j]
                && outcomeIsCacheable(ran[j]))
                diskCache->store(toRunKeys[j], ran[j]);
        const ShardReport &report = dispatcher.report();
        accounting.workersSpawned += report.workersSpawned;
        accounting.shardCrashes += report.crashes;
        accounting.shardHangs += report.hangs;
        accounting.shardRetries += report.retries;
        accounting.shardDegraded |= report.degraded;
        accounting.interrupted |= report.interrupted;
        accounting.quarantinedKeys.insert(
            accounting.quarantinedKeys.end(),
            report.quarantinedKeys.begin(),
            report.quarantinedKeys.end());
        accounting.simulated += toRun.size();
    } else if (!toRun.empty()) {
        // The calling thread is one of the workers: jobs = N starts
        // N - 1 pool threads, so a one-job engine hands nothing off.
        if (pool.empty()) {
            pool.reserve(numJobs - 1);
            for (unsigned i = 1; i < numJobs; ++i)
                pool.emplace_back([this] { workerLoop(); });
        }
        std::unique_lock<std::mutex> lock(poolMutex);
        batchSpecs = &toRun;
        batchKeys = &toRunKeys;
        batchResults = &ran;
        nextIndex = 0;
        completedCount = 0;
        workReady.notify_all();
        serveBatch(lock);
        batchDone.wait(lock, [this, &toRun] {
            return completedCount == toRun.size();
        });
        batchSpecs = nullptr;
        batchKeys = nullptr;
        batchResults = nullptr;
        lock.unlock();
        accounting.simulated += toRun.size();
        accounting.interrupted |= interruptRequested();
    }
    for (std::size_t j = 0; j < toRunCell.size(); ++j) {
        cells[toRunCell[j]].outcome = std::move(ran[j]);
        cells[toRunCell[j]].resolved = true;
    }

    // Fan unique cells back out to the input order.
    std::vector<RunOutcome> results(specs.size());
    for (const Cell &cell : cells) {
        sb_assert(cell.resolved, "engine: unresolved cell");
        if (cell.outcome.stat("interrupted") != 0)
            ++accounting.interruptedCells;
        for (const std::size_t user : cell.users)
            results[user] = cell.outcome;
    }

    accounting.wallSeconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    return results;
}

} // namespace sb
