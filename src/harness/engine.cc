#include "harness/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "common/signals.hh"
#include "harness/result_cache.hh"
#include "harness/shard.hh"

namespace sb
{

bool
serveCell(const RunSpec &spec, const std::string &key, ResultCache *cache,
          const RunHooks &hooks, RunOutcome &out)
{
    if (cache && !key.empty() && cache->lookup(key, out)
        && outcomeMatchesSpec(out, spec))
        return true;
    out = ExperimentRunner::runOne(spec, hooks);
    // Timed-out and interrupted outcomes are supervision artifacts,
    // not results: they stay out of the cache.
    if (!cache || key.empty() || !outcomeIsCacheable(out))
        return false;
    cache->store(key, out);
    return true;
}

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
}

ExperimentEngine::~ExperimentEngine() = default;

void
ExperimentEngine::serve(const std::vector<RunSpec> &specs,
                        const std::vector<std::string> &keys,
                        std::vector<RunOutcome> &results)
{
    // Every worker claims the next unserved index. A cell that throws
    // ends the process on any of them: the batch lives in this frame,
    // which the other workers may still be reading.
    std::atomic<std::size_t> next{0};
    const auto work = [&]() noexcept {
        for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
            if (interruptRequested()) {
                // Drain the batch with stubs instead of simulating:
                // run() still sees every cell complete, the caller
                // gets partial results and a nonzero exit.
                results[i] = outcomeHeader(specs[i], "interrupted");
                continue;
            }
            RunHooks hooks;
            hooks.wallDeadlineSec = opt.cellTimeoutSec;
            hooks.interruptible = true;
            // Stored as each cell completes, so an interrupted grid
            // run keeps its progress.
            serveCell(specs[i], keys[i], diskCache.get(), hooks,
                      results[i]);
        }
    };
    // The calling thread is one of the workers, so a one-job engine,
    // or a one-cell batch, starts no thread.
    const std::size_t workers = std::min<std::size_t>(numJobs, specs.size());
    std::vector<std::thread> helpers;
    helpers.reserve(workers);
    try {
        for (std::size_t t = 1; t < workers; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // No thread to be had: the ones started and this one still
        // serve every cell.
    }
    work();
    for (std::thread &helper : helpers)
        helper.join();
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
    // requested, in-process workers otherwise.
    std::vector<RunOutcome> ran(toRun.size());
    if (!toRun.empty() && opt.shards > 0) {
        ShardOptions shardOpt;
        shardOpt.shards = opt.shards;
        shardOpt.cacheDir = diskCache ? opt.cacheDir : std::string();
        shardOpt.cellTimeoutSec = opt.cellTimeoutSec;
        ShardDispatcher dispatcher(std::move(shardOpt));
        ran = dispatcher.run(toRun, toRunKeys);
        // Workers persist their results before replying; store only
        // what a worker ran without persisting, and never supervision
        // stubs. Handed-back cells are stored as they are served.
        const std::vector<bool> &unpersisted = dispatcher.unpersisted();
        for (std::size_t j = 0; j < ran.size(); ++j)
            if (diskCache && !toRunKeys[j].empty() && unpersisted[j]
                && outcomeIsCacheable(ran[j]))
                diskCache->store(toRunKeys[j], ran[j]);
        const ShardReport &report = dispatcher.report();
        accounting.workersSpawned += report.workersSpawned;
        accounting.shardCrashes += report.crashes;
        accounting.shardHangs += report.hangs;
        accounting.shardRetries += report.retries;
        accounting.shardDegraded |= report.degraded;
        accounting.quarantinedKeys.insert(
            accounting.quarantinedKeys.end(),
            report.quarantinedKeys.begin(),
            report.quarantinedKeys.end());
        // What the dispatcher handed back (it degraded, or was
        // interrupted) is served like any in-process batch.
        const std::vector<std::size_t> &left = dispatcher.unfinished();
        std::vector<RunSpec> leftSpecs;
        std::vector<std::string> leftKeys;
        for (const std::size_t j : left) {
            leftSpecs.push_back(toRun[j]);
            leftKeys.push_back(toRunKeys[j]);
        }
        std::vector<RunOutcome> leftRan(left.size());
        serve(leftSpecs, leftKeys, leftRan);
        for (std::size_t k = 0; k < left.size(); ++k)
            ran[left[k]] = std::move(leftRan[k]);
    } else if (!toRun.empty()) {
        serve(toRun, toRunKeys, ran);
    }
    accounting.simulated += toRun.size();
    if (!toRun.empty())
        accounting.interrupted |= interruptRequested();
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
