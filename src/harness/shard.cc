#include "harness/shard.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/signals.hh"
#include "harness/protocol.hh"
#include "harness/reporting.hh"
#include "harness/result_cache.hh"

namespace sb
{

namespace
{

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Grace for a fresh worker to say hello (covers its cache load). */
constexpr int helloTimeoutMs = 20000;

/** Kill deadline when no cell timeout is configured: generous enough
 *  for any legitimate cell, finite so a wedged worker cannot hold a
 *  slot forever. */
constexpr double defaultKillDeadlineSec = 300.0;

int
toMsClamped(TimePoint deadline, TimePoint now)
{
    if (deadline <= now)
        return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
    return static_cast<int>(std::min<long long>(ms, 500));
}

/** Worker exit code for a protocol/stream failure (vs 0 at EOF, how
 *  the dispatcher stops a worker). */
constexpr int workerStreamError = 3;

/** SB_FAULT=crash exit code; distinctive in waitpid status. */
constexpr int workerFaultExit = 70;

/**
 * The body of a forked worker: announce readiness on @p fd, then
 * answer each `run` frame (a cell index into @p specs) with a `done`
 * frame until the dispatcher closes the stream. Returns the exit
 * code; the caller _exits with it.
 */
int
serveCells(int fd, const std::vector<RunSpec> &specs,
           const std::vector<std::string> &keys,
           const ShardOptions &opt)
{
    // What a fresh process would have: the dispatcher supervises, so
    // an operator's ^C to the process group ends a worker outright;
    // SB_FAULT counts from zero in every worker generation; and the
    // cache is opened anew, since the flock on an inherited lock file
    // would be shared with the dispatcher and every sibling. SIGPIPE
    // stays ignored (the dispatcher set it), so a dispatcher gone
    // mid-reply is an EPIPE, not a death while holding the lock.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    faultReset();
    std::unique_ptr<ResultCache> cache;
    if (!opt.cacheDir.empty()) {
        cache = std::make_unique<ResultCache>(opt.cacheDir);
        if (!cache->ok())
            cache.reset(); // Already warned; run uncached.
    }

    if (!writeFrame(fd, makeHelloMsg().dump()))
        return workerStreamError;

    FrameReader reader;
    std::string payload;
    while (true) {
        // Block indefinitely: an idle worker costs nothing, and the
        // dispatcher ends it by closing the stream (or by dying).
        const RecvStatus status = readFrame(fd, reader, payload);
        if (status == RecvStatus::Closed)
            return 0; // Nothing left to serve.
        if (status != RecvStatus::Ok)
            return workerStreamError;

        Json msg;
        if (!Json::parse(payload, msg))
            return workerStreamError;
        if (messageCmd(msg) != "run" || !msg.has("id")
            || msg.at("id").kind() != Json::Kind::Uint
            || msg.at("id").asUint() >= specs.size())
            return workerStreamError;
        const std::uint64_t id = msg.at("id").asUint();
        const RunSpec &spec = specs[id];
        const std::string &key = keys[id];

        // Injected fault: a poisoned cell crashes every worker that
        // touches it, on every attempt — the quarantine trigger.
        if (faultPoisoned(spec.workload))
            _exit(workerFaultExit);

        RunOutcome outcome;
        bool cached = false;
        if (cache && !key.empty() && cache->lookup(key, outcome)
            && outcomeMatchesSpec(outcome, spec)) {
            cached = true;
        } else {
            RunHooks hooks;
            // The dispatcher's kill deadline backs this up; the
            // worker-side deadline lets a slow cell end cleanly with
            // a watchdog outcome instead of a SIGKILL.
            hooks.wallDeadlineSec = opt.cellTimeoutSec;
            outcome = ExperimentRunner::runOne(spec, hooks);
            if (cache && !key.empty() && outcomeIsCacheable(outcome)) {
                // Persist before replying: a crash in the gap costs
                // nothing (the retry is served from the cache), while
                // the reverse order could lose a computed cell.
                cache->store(key, outcome);
                cached = true;
            }
        }

        // Injected faults at the reply boundary: the work (and any
        // cache store) is done, the dispatcher never hears about it.
        if (faultPoint("crash"))
            _exit(workerFaultExit);
        if (faultPoint("hang")) {
            sb_warn("SB_FAULT hang: shard worker wedging");
            while (true)
                ::pause();
        }

        if (!writeFrame(fd, makeDoneMsg(id, outcome, cached).dump()))
            return workerStreamError;
    }
}

} // anonymous namespace

unsigned
backoffDelayMs(unsigned attempt, unsigned baseMs, unsigned capMs)
{
    if (attempt == 0 || baseMs == 0)
        return 0;
    std::uint64_t delay = baseMs;
    for (unsigned i = 1; i < attempt && delay < capMs; ++i)
        delay *= 2;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(delay, capMs));
}

// --- Dispatcher internals ----------------------------------------------

struct ShardDispatcher::Worker
{
    enum class State
    {
        Dead,     ///< Slot abandoned (or never started).
        Spawning, ///< Waiting for hello.
        Idle,     ///< Ready for a cell.
        Busy,     ///< A cell is in flight.
    };

    pid_t pid = -1;
    int fd = -1;
    FrameReader reader;
    State state = State::Dead;
    TimePoint deadline{};        ///< Hello or kill deadline.
    std::size_t cell = npos;     ///< In-flight cell (Busy).
    unsigned slot = 0;           ///< Index in workers (diagnostics).
    unsigned cellsSinceSpawn = 0;
    unsigned barrenSpawns = 0;   ///< Consecutive spawns with no work done.
};

struct ShardDispatcher::Batch
{
    enum class CellState
    {
        Pending, ///< In the pending FIFO.
        Delayed, ///< Failed; waiting out its backoff.
        Running, ///< In flight on a worker.
        Done,    ///< Resolved (result or quarantine stub).
    };

    const std::vector<RunSpec> *specs = nullptr;
    const std::vector<std::string> *keys = nullptr;
    std::vector<RunOutcome> results;
    std::vector<CellState> state;
    std::vector<unsigned> attempts;
    std::vector<TimePoint> notBefore;
    std::deque<std::size_t> pending; ///< Cells ready to dispatch.
    std::size_t remaining = 0;
};

ShardDispatcher::ShardDispatcher(ShardOptions options)
    : opt(std::move(options))
{
    if (opt.shards == 0)
        opt.shards = 1;
    // A worker that died mid-frame must surface as EPIPE, not kill
    // the dispatcher (installSignalHandlers also arranges this, but
    // the dispatcher must be safe standalone, e.g. under a test
    // harness that did not install handlers).
    ::signal(SIGPIPE, SIG_IGN);
}

ShardDispatcher::~ShardDispatcher()
{
    shutdownWorkers();
}

void
ShardDispatcher::spawnWorker(Worker &worker, const Batch &batch)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        sb_warn("shard: socketpair failed (", std::strerror(errno),
                "); abandoning slot ", worker.slot);
        worker.state = Worker::State::Dead;
        return;
    }
    // Flush before forking, or a child that ends in std::exit (an
    // sb_fatal) would write the dispatcher's buffered output again.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        sb_warn("shard: fork failed (", std::strerror(errno),
                "); abandoning slot ", worker.slot);
        ::close(sv[0]);
        ::close(sv[1]);
        worker.state = Worker::State::Dead;
        return;
    }
    if (pid == 0) {
        // Child. Drop every parent-side descriptor we inherited so a
        // sibling's EOF detection is not defeated by our copy of its
        // stream, serve the inherited batch, and never return into
        // the dispatcher's frames.
        ::close(sv[0]);
        for (const Worker &other : workers)
            if (other.fd >= 0)
                ::close(other.fd);
        int code = workerStreamError; // Also for anything thrown.
        try {
            code = serveCells(sv[1], *batch.specs, *batch.keys, opt);
        } catch (...) {
        }
        _exit(code);
    }
    ::close(sv[1]);
    ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
    worker.pid = pid;
    worker.fd = sv[0];
    worker.reader = FrameReader{};
    worker.state = Worker::State::Spawning;
    worker.deadline =
        Clock::now() + std::chrono::milliseconds(helloTimeoutMs);
    worker.cell = npos;
    worker.cellsSinceSpawn = 0;
    ++rep.workersSpawned;
}

void
ShardDispatcher::killWorker(Worker &worker)
{
    if (worker.pid > 0)
        ::kill(worker.pid, SIGKILL);
}

void
ShardDispatcher::reapWorker(Worker &worker)
{
    if (worker.fd >= 0) {
        ::close(worker.fd);
        worker.fd = -1;
    }
    if (worker.pid > 0) {
        int status = 0;
        while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
        }
        worker.pid = -1;
    }
}

void
ShardDispatcher::shutdownWorkers()
{
    // Closing its stream ends an idle worker (it exits 0 on EOF); a
    // busy one gets a moment to finish its cell, then is killed.
    bool anyAlive = false;
    for (Worker &worker : workers) {
        if (worker.fd >= 0) {
            ::close(worker.fd);
            worker.fd = -1;
        }
        worker.state = Worker::State::Dead;
        anyAlive |= worker.pid > 0;
    }
    if (!anyAlive)
        return;
    const TimePoint patience =
        Clock::now() + std::chrono::milliseconds(500);
    for (Worker &worker : workers) {
        if (worker.pid <= 0)
            continue;
        int status = 0;
        while (true) {
            const pid_t got = ::waitpid(worker.pid, &status, WNOHANG);
            if (got == worker.pid || (got < 0 && errno != EINTR))
                break;
            if (Clock::now() >= patience) {
                ::kill(worker.pid, SIGKILL);
                while (::waitpid(worker.pid, &status, 0) < 0
                       && errno == EINTR) {
                }
                break;
            }
            ::usleep(10000);
        }
        worker.pid = -1;
    }
}

void
ShardDispatcher::onWorkerDeath(Worker &worker, Batch &batch, bool hang)
{
    reapWorker(worker);
    if (hang)
        ++rep.hangs;
    else
        ++rep.crashes;

    const std::size_t cell = worker.cell;
    worker.cell = npos;
    if (cell != npos) {
        Batch::CellState &st = batch.state[cell];
        unsigned &attempts = batch.attempts[cell];
        ++attempts;
        if (attempts >= opt.maxAttemptsPerCell) {
            // Poisoned cell: it keeps taking workers down with it.
            // Stub it out and report it instead of aborting the batch
            // (or retrying forever).
            const std::string &key = (*batch.keys)[cell];
            sb_warn("shard: quarantining cell ",
                    (*batch.specs)[cell].workload, " (key ",
                    key.empty() ? "<uncacheable>" : key, ") after ",
                    attempts, " failed attempt(s)");
            rep.quarantinedKeys.push_back(
                key.empty() ? (*batch.specs)[cell].specKey() : key);
            batch.results[cell] =
                outcomeHeader((*batch.specs)[cell], "quarantined");
            st = Batch::CellState::Done;
            --batch.remaining;
        } else {
            ++rep.retries;
            st = Batch::CellState::Delayed;
            batch.notBefore[cell] =
                Clock::now()
                + std::chrono::milliseconds(backoffDelayMs(
                    attempts, opt.backoffBaseMs, opt.backoffCapMs));
        }
    }

    worker.barrenSpawns =
        worker.cellsSinceSpawn == 0 ? worker.barrenSpawns + 1 : 0;
    if (worker.barrenSpawns >= opt.maxBarrenSpawns) {
        sb_warn("shard: slot ", worker.slot, " abandoned after ",
                worker.barrenSpawns,
                " consecutive spawns with no completed cell");
        worker.state = Worker::State::Dead;
        return;
    }
    spawnWorker(worker, batch);
}

void
ShardDispatcher::assignWork(Worker &worker, Batch &batch)
{
    if (batch.pending.empty())
        return; // Nothing runnable right now.
    const std::size_t cell = batch.pending.front();
    batch.pending.pop_front();

    if (!writeFrame(worker.fd, makeRunCmd(cell).dump())) {
        // The worker died between frames; requeue the cell untouched
        // (this is a worker failure, not a cell failure) and handle
        // the death.
        batch.pending.push_front(cell);
        onWorkerDeath(worker, batch, false);
        return;
    }
    batch.state[cell] = Batch::CellState::Running;
    worker.cell = cell;
    worker.state = Worker::State::Busy;
    const double killSec = opt.cellTimeoutSec > 0
                               ? opt.cellTimeoutSec + 2.0
                               : defaultKillDeadlineSec;
    worker.deadline =
        Clock::now()
        + std::chrono::milliseconds(
            static_cast<long long>(killSec * 1000.0));
}

bool
ShardDispatcher::handleFrames(Worker &worker, Batch &batch)
{
    char chunk[16384];
    while (true) {
        const ssize_t n = ::read(worker.fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        if (n == 0)
            return false; // EOF: the worker is gone.
        worker.reader.feed(chunk, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk))
            break;
    }

    std::string payload;
    while (worker.reader.next(payload)) {
        Json msg;
        if (!Json::parse(payload, msg))
            return false;
        const std::string cmd = messageCmd(msg);
        if (cmd == "hello") {
            if (worker.state != Worker::State::Spawning) {
                sb_warn("shard: unexpected hello from slot ", worker.slot);
                return false;
            }
            worker.state = Worker::State::Idle;
            continue;
        }
        if (cmd == "done") {
            if (worker.state != Worker::State::Busy || !msg.has("id")
                || msg.at("id").kind() != Json::Kind::Uint
                || msg.at("id").asUint() != worker.cell
                || !msg.has("cached")
                || msg.at("cached").kind() != Json::Kind::Bool
                || !msg.has("outcome"))
                return false;
            RunOutcome outcome;
            if (!outcomeFromJson(msg.at("outcome"), outcome))
                return false;
            const std::size_t cell = worker.cell;
            batch.results[cell] = std::move(outcome);
            batch.state[cell] = Batch::CellState::Done;
            unpersistedCells[cell] = !msg.at("cached").asBool();
            --batch.remaining;
            worker.cell = npos;
            worker.state = Worker::State::Idle;
            ++worker.cellsSinceSpawn;
            worker.barrenSpawns = 0;
            continue;
        }
        sb_warn("shard: unexpected '", cmd, "' from slot ",
                worker.slot);
        return false;
    }
    return !worker.reader.corrupt();
}

std::vector<RunOutcome>
ShardDispatcher::run(const std::vector<RunSpec> &specs,
                     const std::vector<std::string> &keys)
{
    sb_assert(specs.size() == keys.size(), "shard: specs/keys skew");

    Batch batch;
    batch.specs = &specs;
    batch.keys = &keys;
    batch.results.resize(specs.size());
    batch.state.assign(specs.size(), Batch::CellState::Pending);
    batch.attempts.assign(specs.size(), 0);
    batch.notBefore.assign(specs.size(), TimePoint{});
    batch.remaining = specs.size();
    unpersistedCells.assign(specs.size(), false);
    unfinishedCells.clear();
    if (specs.empty())
        return {};

    for (std::size_t i = 0; i < specs.size(); ++i)
        batch.pending.push_back(i);

    const unsigned slots = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, opt.shards), specs.size()));
    workers.clear();
    workers.resize(slots);
    for (unsigned s = 0; s < slots; ++s) {
        workers[s].slot = s;
        spawnWorker(workers[s], batch);
    }

    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfdWorker;
    while (batch.remaining > 0 && !interruptRequested()) {
        // Promote delayed cells whose backoff has elapsed.
        const TimePoint now = Clock::now();
        TimePoint nextEvent = now + std::chrono::milliseconds(500);
        for (std::size_t cell = 0; cell < batch.state.size(); ++cell) {
            if (batch.state[cell] != Batch::CellState::Delayed)
                continue;
            if (batch.notBefore[cell] <= now) {
                batch.state[cell] = Batch::CellState::Pending;
                batch.pending.push_back(cell);
            } else {
                nextEvent = std::min(nextEvent, batch.notBefore[cell]);
            }
        }

        for (Worker &worker : workers)
            if (worker.state == Worker::State::Idle)
                assignWork(worker, batch);

        bool anyLive = false;
        pfds.clear();
        pfdWorker.clear();
        for (std::size_t w = 0; w < workers.size(); ++w) {
            Worker &worker = workers[w];
            if (worker.state == Worker::State::Dead)
                continue;
            anyLive = true;
            if (worker.state != Worker::State::Idle)
                nextEvent = std::min(nextEvent, worker.deadline);
            pollfd pfd;
            pfd.fd = worker.fd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            pfds.push_back(pfd);
            pfdWorker.push_back(w);
        }
        if (!anyLive) {
            // No worker can be kept alive: the architecture degrades,
            // the batch does not fail.
            sb_warn("shard: no live workers; handing ", batch.remaining,
                    " cell(s) back for in-process execution");
            rep.degraded = true;
            break;
        }

        const int ready =
            ::poll(pfds.data(), pfds.size(), toMsClamped(nextEvent, now));
        if (ready < 0 && errno != EINTR)
            sb_panic("shard: poll failed: ", std::strerror(errno));

        for (std::size_t p = 0; p < pfds.size(); ++p) {
            if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Worker &worker = workers[pfdWorker[p]];
            if (worker.state == Worker::State::Dead)
                continue;
            if (!handleFrames(worker, batch))
                onWorkerDeath(worker, batch, false);
        }

        // Kill-deadline sweep: a worker that blew its hello or cell
        // deadline is wedged; SIGKILL it and retry the cell elsewhere.
        const TimePoint after = Clock::now();
        for (Worker &worker : workers) {
            if (worker.state == Worker::State::Dead
                || worker.state == Worker::State::Idle
                || worker.deadline > after)
                continue;
            sb_warn("shard: slot ", worker.slot,
                    worker.state == Worker::State::Spawning
                        ? " never said hello"
                        : " missed its cell deadline",
                    "; killing pid ", worker.pid);
            killWorker(worker);
            onWorkerDeath(worker, batch,
                          worker.state != Worker::State::Spawning);
        }
    }

    for (std::size_t cell = 0; cell < batch.state.size(); ++cell)
        if (batch.state[cell] != Batch::CellState::Done)
            unfinishedCells.push_back(cell);
    shutdownWorkers();
    return std::move(batch.results);
}

} // namespace sb
