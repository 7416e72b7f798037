/**
 * @file
 * Shard-tier tests: wire-protocol framing, the crash-safe
 * result-cache framing (torn tails, corrupt records, two concurrent
 * writer processes), the per-cell wall-clock deadline, and the
 * supervised dispatcher end-to-end with its forked workers under
 * deterministic SB_FAULT injection: crashes, hangs, poisoned cells,
 * workers that never finish a cell, and SIGINT-driven graceful
 * interruption. The load-bearing property throughout: whatever is
 * killed, aggregates stay bit-identical to an in-process run.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fault.hh"
#include "common/signals.hh"
#include "harness/conformance.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/protocol.hh"
#include "harness/reporting.hh"
#include "harness/result_cache.hh"
#include "harness/shard.hh"
#include "harness/tenant.hh"
#include "harness/verify.hh"

namespace
{

sb::RunSpec
quickSpec(const std::string &bench, sb::Scheme scheme)
{
    sb::RunSpec s;
    s.core = sb::CoreConfig::medium();
    sb::SchemeConfig scfg;
    scfg.scheme = scheme;
    s.scheme = scfg;
    s.workload = bench;
    s.warmupInsts = 5000;
    s.measureInsts = 15000;
    return s;
}

std::vector<sb::RunSpec>
smallBatch()
{
    return {
        quickSpec("557.xz", sb::Scheme::Baseline),
        quickSpec("557.xz", sb::Scheme::SttIssue),
        quickSpec("541.leela", sb::Scheme::Baseline),
        quickSpec("541.leela", sb::Scheme::Nda),
        quickSpec("503.bwaves", sb::Scheme::SttRename),
        quickSpec("525.x264", sb::Scheme::Baseline),
    };
}

std::vector<std::string>
keysOf(const std::vector<sb::RunSpec> &specs)
{
    std::vector<std::string> keys;
    for (const auto &s : specs)
        keys.push_back(s.specKey());
    return keys;
}

void
expectSameOutcome(const sb::RunOutcome &a, const sb::RunOutcome &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.coreName, b.coreName);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.transmitViolations, b.transmitViolations);
    EXPECT_EQ(a.consumeViolations, b.consumeViolations);
    EXPECT_EQ(a.stats, b.stats);
}

std::string
freshDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** RAII SB_FAULT setting: arms for children, restores and re-parses
 *  the parent's view on scope exit. */
class ScopedFault
{
  public:
    explicit ScopedFault(const char *value)
    {
        ::setenv("SB_FAULT", value, 1);
        sb::faultReset();
    }
    ~ScopedFault()
    {
        ::unsetenv("SB_FAULT");
        sb::faultReset();
    }
};

sb::ShardOptions
shardOpts(unsigned shards, const std::string &cacheDir)
{
    sb::ShardOptions opt;
    opt.shards = shards;
    opt.cacheDir = cacheDir;
    return opt;
}

// --- Wire protocol ------------------------------------------------------

TEST(Protocol, FrameRoundTripOverPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"cmd\":\"hello\"}";
    ASSERT_TRUE(sb::writeFrame(fds[1], payload));
    std::string got;
    ASSERT_EQ(sb::readFrame(fds[0], got, 1000), sb::RecvStatus::Ok);
    EXPECT_EQ(got, payload);

    // EOF at a frame boundary reads as Closed, not an error.
    ::close(fds[1]);
    EXPECT_EQ(sb::readFrame(fds[0], got, 1000), sb::RecvStatus::Closed);
    ::close(fds[0]);
}

TEST(Protocol, FrameReaderReassemblesSplitFrames)
{
    // Three frames, fed one byte at a time: framing must never depend
    // on read() boundaries.
    std::string stream;
    const std::vector<std::string> payloads = {"a", "", "{\"x\":42}"};
    for (const auto &p : payloads) {
        const std::uint32_t len = static_cast<std::uint32_t>(p.size());
        char prefix[4] = {static_cast<char>(len & 0xff),
                          static_cast<char>((len >> 8) & 0xff),
                          static_cast<char>((len >> 16) & 0xff),
                          static_cast<char>((len >> 24) & 0xff)};
        stream.append(prefix, 4);
        stream.append(p);
    }

    sb::FrameReader reader;
    std::vector<std::string> got;
    std::string frame;
    for (const char c : stream) {
        reader.feed(&c, 1);
        while (reader.next(frame))
            got.push_back(frame);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_FALSE(reader.corrupt());
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(Protocol, OversizedFrameLengthMarksStreamCorrupt)
{
    sb::FrameReader reader;
    const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};
    reader.feed(huge, 4);
    std::string frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.corrupt());
}

TEST(Protocol, DoneMessageRoundTripsOutcome)
{
    sb::RunOutcome out;
    out.workload = "557.xz";
    out.coreName = "medium";
    out.scheme = sb::Scheme::SttIssue;
    out.cycles = 123456;
    out.instructions = 78901;
    // ipc is derived (instructions / cycles) on both ends of the
    // wire; a value consistent with the integers round-trips exactly.
    out.ipc = static_cast<double>(out.instructions)
              / static_cast<double>(out.cycles);
    out.transmitViolations = 3;
    out.consumeViolations = 1;
    out.stats["committed_insts"] = 78901;
    out.stats["squashes"] = 17;

    const sb::Json msg = sb::makeDoneMsg(42, out, true);
    sb::Json parsed;
    ASSERT_TRUE(sb::Json::parse(msg.dump(), parsed));
    EXPECT_EQ(sb::messageCmd(parsed), "done");
    EXPECT_EQ(parsed.at("id").asUint(), 42u);
    EXPECT_TRUE(parsed.at("cached").asBool());
    sb::RunOutcome back;
    ASSERT_TRUE(sb::outcomeFromJson(parsed.at("outcome"), back));
    expectSameOutcome(back, out);
}

// --- Scheduling policy --------------------------------------------------

TEST(ShardPolicy, BackoffDoublesAndCaps)
{
    EXPECT_EQ(sb::backoffDelayMs(0, 25, 2000), 0u);
    EXPECT_EQ(sb::backoffDelayMs(1, 25, 2000), 25u);
    EXPECT_EQ(sb::backoffDelayMs(2, 25, 2000), 50u);
    EXPECT_EQ(sb::backoffDelayMs(3, 25, 2000), 100u);
    EXPECT_EQ(sb::backoffDelayMs(8, 25, 2000), 2000u);
    EXPECT_EQ(sb::backoffDelayMs(64, 25, 2000), 2000u); // No overflow.
    EXPECT_EQ(sb::backoffDelayMs(3, 0, 2000), 0u);
}

// --- Cache framing and crash safety ------------------------------------

TEST(CacheFraming, FramedRecordRoundTripsAndRejectsBitRot)
{
    sb::RunOutcome out;
    out.workload = "541.leela";
    out.coreName = "large";
    out.scheme = sb::Scheme::Nda;
    out.cycles = 999;
    out.instructions = 1234;
    out.ipc = static_cast<double>(out.instructions)
              / static_cast<double>(out.cycles);
    out.stats["committed_insts"] = 1234;

    const std::string line = sb::frameCacheRecord("deadbeef01234567", out);
    std::string key;
    sb::RunOutcome back;
    ASSERT_TRUE(sb::parseCacheLine(line, key, back));
    EXPECT_EQ(key, "deadbeef01234567");
    expectSameOutcome(back, out);

    // Any single flipped payload byte must fail the checksum.
    std::string rotted = line;
    rotted[line.size() / 2] ^= 0x20;
    EXPECT_FALSE(sb::parseCacheLine(rotted, key, back));

    // A truncated tail (killed writer) must be rejected by length.
    EXPECT_FALSE(
        sb::parseCacheLine(line.substr(0, line.size() - 5), key, back));

    // An unframed record is damage too, not a result.
    sb::Json bare = sb::Json::object();
    bare.set("key", sb::Json::str("deadbeef01234567"));
    bare.set("outcome", sb::toJson(out));
    EXPECT_FALSE(sb::parseCacheLine(bare.dump(), key, back));
}

TEST(CacheFraming, TornTailIsRecoveredAndRepaired)
{
    const std::string dir = freshDir("sb_shard_torntail");
    sb::RunOutcome out;
    out.workload = "557.xz";
    out.coreName = "small";
    out.scheme = sb::Scheme::Baseline;
    out.cycles = 10;
    out.instructions = 20;

    {
        sb::ResultCache cache(dir);
        ASSERT_TRUE(cache.ok());
        cache.store("1111111111111111", out);
        cache.store("2222222222222222", out);
    }
    // Simulate a writer killed mid-append: a torn half record at the
    // tail of the file.
    {
        const std::string torn = sb::frameCacheRecord("333333333333", out);
        std::ofstream f(dir + "/results.jsonl",
                        std::ios::app | std::ios::binary);
        f.write(torn.data(),
                static_cast<std::streamsize>(torn.size() / 2));
    }

    sb::ResultCache reloaded(dir);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.damagedOnLoad(), 1u);
    sb::RunOutcome got;
    EXPECT_TRUE(reloaded.lookup("1111111111111111", got));
    EXPECT_TRUE(reloaded.lookup("2222222222222222", got));

    // Load compacts the damage away: every line in the repaired file
    // parses, and a third loader sees a clean file.
    sb::ResultCache clean(dir);
    EXPECT_EQ(clean.size(), 2u);
    EXPECT_EQ(clean.damagedOnLoad(), 0u);
}

TEST(CacheFraming, TornWriteFaultTearsExactlyOneRecord)
{
    const std::string dir = freshDir("sb_shard_tornfault");
    sb::RunOutcome out;
    out.workload = "557.xz";
    out.coreName = "small";
    out.scheme = sb::Scheme::Baseline;
    out.cycles = 10;
    out.instructions = 20;

    {
        ScopedFault fault("torn-write:2");
        sb::ResultCache cache(dir);
        ASSERT_TRUE(cache.ok());
        cache.store("aaaaaaaaaaaaaaaa", out); // Intact.
        cache.store("bbbbbbbbbbbbbbbb", out); // Torn mid-line.
    }

    // The torn record is unrecoverable, the intact one survives, and
    // reload repairs the file.
    sb::ResultCache reloaded(dir);
    ASSERT_TRUE(reloaded.ok());
    sb::RunOutcome got;
    EXPECT_TRUE(reloaded.lookup("aaaaaaaaaaaaaaaa", got));
    EXPECT_FALSE(reloaded.lookup("bbbbbbbbbbbbbbbb", got));
    EXPECT_GE(reloaded.damagedOnLoad(), 1u);
    sb::ResultCache clean(dir);
    EXPECT_EQ(clean.damagedOnLoad(), 0u);
}

TEST(CacheFraming, TwoWriterProcessesLoseNothing)
{
    // The acceptance criterion for the shared cache: two processes
    // appending concurrently (as two shard workers do) must not lose
    // or interleave a single record.
    const std::string dir = freshDir("sb_shard_twowriters");
    {
        sb::ResultCache create(dir); // Settle the directory/lock.
        ASSERT_TRUE(create.ok());
    }
    constexpr int perWriter = 200;

    const auto writer = [&dir](char tag) {
        sb::ResultCache cache(dir);
        if (!cache.ok())
            _exit(1);
        sb::RunOutcome out;
        out.workload = "557.xz";
        out.coreName = "small";
        out.scheme = sb::Scheme::Baseline;
        for (int i = 0; i < perWriter; ++i) {
            char key[17];
            std::snprintf(key, sizeof(key), "%c%015d", tag, i);
            out.cycles = static_cast<std::uint64_t>(i);
            cache.store(key, out);
        }
        _exit(0);
    };

    const pid_t a = ::fork();
    ASSERT_GE(a, 0);
    if (a == 0)
        writer('a');
    const pid_t b = ::fork();
    ASSERT_GE(b, 0);
    if (b == 0)
        writer('b');

    int statusA = 0, statusB = 0;
    ASSERT_EQ(::waitpid(a, &statusA, 0), a);
    ASSERT_EQ(::waitpid(b, &statusB, 0), b);
    ASSERT_TRUE(WIFEXITED(statusA) && WEXITSTATUS(statusA) == 0);
    ASSERT_TRUE(WIFEXITED(statusB) && WEXITSTATUS(statusB) == 0);

    sb::ResultCache merged(dir);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.damagedOnLoad(), 0u);
    EXPECT_EQ(merged.size(), 2u * perWriter);
    sb::RunOutcome got;
    for (int i = 0; i < perWriter; ++i) {
        for (const char tag : {'a', 'b'}) {
            char key[17];
            std::snprintf(key, sizeof(key), "%c%015d", tag, i);
            ASSERT_TRUE(merged.lookup(key, got)) << key;
            EXPECT_EQ(got.cycles, static_cast<std::uint64_t>(i));
        }
    }
}

// --- Per-cell wall-clock deadline --------------------------------------

TEST(CellTimeout, DeadlineOverrunIsMarkedAndUncacheable)
{
    // One cell of each kind: window, gadget, fuzz, multi-tenant.
    sb::RunSpec gadget =
        sb::gadgetSpec(sb::GadgetKind::SpectreV1, sb::CoreConfig::mega(),
                       sb::SchemeConfig{}, sb::verifySecretA);
    // Long enough to reach the first deadline check (4096 cycles).
    sb::RunSpec fuzz;
    fuzz.workload =
        sb::fuzzWorkloadName(sb::OpMixProfile::Mixed, 0xC0FFEE, 512);
    fuzz.maxCycles = sb::FuzzParams{}.maxCycles;
    sb::RunSpec mt;
    mt.workload = sb::tenantWorkloadName(sb::ServerMixParams{});
    mt.warmupInsts = 0;
    mt.measureInsts = 0;

    std::vector<sb::RunOutcome> tripped, normal;
    for (const sb::RunSpec &spec :
         {quickSpec("557.xz", sb::Scheme::Baseline), gadget, fuzz, mt}) {
        sb::RunHooks hooks;
        hooks.wallDeadlineSec = 1e-6; // Trips at the first deadline check.
        const auto out = sb::ExperimentRunner::runOne(spec, hooks);
        EXPECT_EQ(out.stat("watchdog_tripped"), 1u) << spec.workload;
        EXPECT_FALSE(sb::outcomeIsCacheable(out)) << spec.workload;
        // A timeout is not the fuzz oracle's (cacheable) deadlock.
        EXPECT_EQ(out.stat("fuzz_watchdog"), 0u) << spec.workload;
        tripped.push_back(out);

        // A generous deadline must not perturb the outcome at all.
        sb::RunHooks lenient;
        lenient.wallDeadlineSec = 3600;
        normal.push_back(sb::ExperimentRunner::runOne(spec));
        const auto watched = sb::ExperimentRunner::runOne(spec, lenient);
        expectSameOutcome(watched, normal.back());
        EXPECT_TRUE(sb::outcomeIsCacheable(watched)) << spec.workload;
    }

    // The gadget trips at the first poll, inside its victim phase,
    // which steps the core one commit at a time and alone runs past
    // that cycle: the poll countdown spans those run() calls.
    EXPECT_EQ(tripped[1].cycles, 4096u);

    // The folds report a cut-short cell as such, never judge its
    // partial stats: not a leak or a trace divergence...
    sb::RunSpec gadget_b = gadget;
    gadget_b.workload = sb::gadgetWorkloadName(
        sb::GadgetKind::SpectreV1, sb::verifySecretB, sb::verifyGadgetSeed);
    const sb::VerifyCell pair = sb::foldVerifyPair(
        tripped[1], sb::ExperimentRunner::runOne(gadget_b),
        sb::SecurityContract{});
    EXPECT_TRUE(pair.unfinished);
    EXPECT_FALSE(pair.leaked || pair.diverged || pair.pass());

    // ...nor a fuzz deadlock whose seed repro would not reproduce.
    sb::FuzzParams campaign;
    campaign.programs = 1;
    std::vector<sb::RunOutcome> cells(sb::allSchemeConfigs().size(),
                                      tripped[2]);
    cells.front() = normal[2]; // A healthy Baseline oracle.
    const sb::FuzzReport report = sb::foldFuzzOutcomes(campaign, cells);
    ASSERT_EQ(report.failures.size(), cells.size() - 1);
    for (const sb::FuzzFailure &f : report.failures)
        EXPECT_EQ(f.kind, "unfinished") << f.detail;
    cells.front() = tripped[2]; // No oracle: one failure, no verdicts.
    const sb::FuzzReport no_oracle = sb::foldFuzzOutcomes(campaign, cells);
    ASSERT_EQ(no_oracle.failures.size(), 1u);
    EXPECT_EQ(no_oracle.failures.front().kind, "unfinished");
}

// --- Dispatcher end-to-end with forked workers -------------------------

TEST(ShardDispatcher, MatchesInProcessBitExact)
{
    const auto specs = smallBatch();
    const std::string dir = freshDir("sb_shard_e2e");
    sb::ShardDispatcher dispatcher(shardOpts(2, dir));
    const auto results = dispatcher.run(specs, keysOf(specs));

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameOutcome(results[i],
                          sb::ExperimentRunner::runOne(specs[i]));

    const sb::ShardReport &report = dispatcher.report();
    EXPECT_EQ(report.workersSpawned, 2u);
    EXPECT_EQ(report.crashes, 0u);
    EXPECT_EQ(report.hangs, 0u);
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(report.quarantinedKeys.empty());
    // Workers persist before replying: every cell is already on disk.
    for (const bool persisted : dispatcher.persistedByWorker())
        EXPECT_TRUE(persisted);
    sb::ResultCache cache(dir);
    EXPECT_EQ(cache.size(), specs.size());
}

TEST(ShardDispatcher, CoreOffItsPresetMatchesRunOneAndItsCacheEntry)
{
    // Every core field is part of the cell's key, not only the
    // preset's name: a worker must run exactly the cell the
    // dispatcher addressed and store it under that key, or a later
    // in-process run is served the preset's result.
    const sb::RunSpec preset = quickSpec("557.xz", sb::Scheme::Baseline);
    sb::RunSpec spec = preset;
    spec.core.memLatency = 200;
    const std::vector<sb::RunSpec> specs = {spec};
    const sb::RunOutcome expected = sb::ExperimentRunner::runOne(spec);
    // The field moves the outcome, so running the preset is caught.
    ASSERT_NE(expected.cycles, sb::ExperimentRunner::runOne(preset).cycles);

    const std::string dir = freshDir("sb_shard_core");
    sb::ShardDispatcher dispatcher(shardOpts(1, dir));
    const auto results = dispatcher.run(specs, keysOf(specs));
    ASSERT_EQ(results.size(), 1u);
    expectSameOutcome(results[0], expected);
    EXPECT_TRUE(dispatcher.persistedByWorker()[0]);

    sb::ExperimentEngine::Options opt;
    opt.jobs = 1;
    opt.cacheDir = dir;
    sb::ExperimentEngine engine(opt);
    const auto served = engine.run(specs);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
    ASSERT_EQ(served.size(), 1u);
    expectSameOutcome(served[0], expected);
}

TEST(ShardDispatcher, WorkersKilledMidBatchStillBitExact)
{
    // Every worker is killed before its 2nd reply, over and over.
    // Store-before-reply plus retry must converge on exactly the
    // in-process aggregates; attempts are uncapped so quarantine
    // cannot mask a lost cell.
    ScopedFault fault("crash:2");
    const auto specs = smallBatch();
    const std::string dir = freshDir("sb_shard_crash");
    sb::ShardOptions opt = shardOpts(2, dir);
    opt.maxAttemptsPerCell = 1000;
    opt.backoffBaseMs = 1; // Keep the test fast.
    sb::ShardDispatcher dispatcher(opt);
    const auto results = dispatcher.run(specs, keysOf(specs));

    const sb::ShardReport &report = dispatcher.report();
    EXPECT_GE(report.crashes, 1u);
    EXPECT_GE(report.retries, 1u);
    EXPECT_GT(report.workersSpawned, 2u);
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(report.quarantinedKeys.empty());

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameOutcome(results[i],
                          sb::ExperimentRunner::runOne(specs[i]));
}

TEST(ShardDispatcher, HungWorkerIsKilledAndCellRetried)
{
    // Workers wedge instead of sending their 2nd reply; the
    // dispatcher's kill deadline (cellTimeout + grace) must SIGKILL
    // them and the batch must still converge bit-exactly.
    ScopedFault fault("hang:2");
    const auto specs = std::vector<sb::RunSpec>{
        quickSpec("557.xz", sb::Scheme::Baseline),
        quickSpec("541.leela", sb::Scheme::Baseline),
        quickSpec("503.bwaves", sb::Scheme::Baseline),
    };
    const std::string dir = freshDir("sb_shard_hang");
    sb::ShardOptions opt = shardOpts(2, dir);
    opt.cellTimeoutSec = 2; // Cells take ~ms; only hangs hit this.
    opt.maxAttemptsPerCell = 1000;
    opt.backoffBaseMs = 1;
    sb::ShardDispatcher dispatcher(opt);
    const auto results = dispatcher.run(specs, keysOf(specs));

    const sb::ShardReport &report = dispatcher.report();
    EXPECT_GE(report.hangs, 1u);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameOutcome(results[i],
                          sb::ExperimentRunner::runOne(specs[i]));
}

TEST(ShardDispatcher, PoisonedCellIsQuarantinedNotFatal)
{
    // One cell crashes every worker that touches it, on every
    // attempt. The batch must complete: healthy cells bit-exact, the
    // poisoned cell stubbed and reported.
    ScopedFault fault("poison:525.x264");
    const auto specs = smallBatch();
    const std::string dir = freshDir("sb_shard_poison");
    sb::ShardOptions opt = shardOpts(2, dir);
    opt.maxAttemptsPerCell = 2;
    opt.backoffBaseMs = 1;
    sb::ShardDispatcher dispatcher(opt);
    const auto results = dispatcher.run(specs, keysOf(specs));

    const sb::ShardReport &report = dispatcher.report();
    ASSERT_EQ(report.quarantinedKeys.size(), 1u);
    EXPECT_FALSE(report.degraded);

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].workload == "525.x264") {
            EXPECT_EQ(report.quarantinedKeys[0], specs[i].specKey());
            EXPECT_EQ(results[i].stat("quarantined"), 1u);
            EXPECT_FALSE(sb::outcomeIsCacheable(results[i]));
        } else {
            expectSameOutcome(results[i],
                              sb::ExperimentRunner::runOne(specs[i]));
        }
    }
}

TEST(ShardDispatcher, WorkersThatNeverFinishACellDegradeToInProcess)
{
    // Every worker dies before its first reply: each slot is
    // abandoned after its barren respawns and the dispatcher must
    // finish the batch itself, bit-exactly. Attempts are uncapped so
    // quarantine cannot take a cell away from the in-process tail.
    ScopedFault fault("crash:1");
    const auto specs = std::vector<sb::RunSpec>{
        quickSpec("557.xz", sb::Scheme::Baseline),
        quickSpec("541.leela", sb::Scheme::Nda),
    };
    sb::ShardOptions opt = shardOpts(2, "");
    opt.maxAttemptsPerCell = 1000;
    opt.maxBarrenSpawns = 2;
    opt.backoffBaseMs = 1;
    sb::ShardDispatcher dispatcher(opt);
    const auto results = dispatcher.run(specs, keysOf(specs));

    const sb::ShardReport &report = dispatcher.report();
    EXPECT_TRUE(report.degraded);
    EXPECT_EQ(report.inProcess, specs.size());
    EXPECT_GE(report.crashes, 1u);

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameOutcome(results[i],
                          sb::ExperimentRunner::runOne(specs[i]));
}

// --- Engine integration -------------------------------------------------

TEST(EngineShards, ShardedEngineMatchesInProcessEngine)
{
    const auto specs = smallBatch();

    sb::ExperimentEngine::Options inprocOpt;
    inprocOpt.jobs = 2;
    sb::ExperimentEngine inproc(inprocOpt);
    const auto expected = inproc.run(specs);

    const std::string dir = freshDir("sb_shard_engine");
    sb::ExperimentEngine::Options shardedOpt;
    shardedOpt.jobs = 2;
    shardedOpt.cacheDir = dir;
    shardedOpt.shards = 2;
    sb::ExperimentEngine sharded(shardedOpt);
    const auto got = sharded.run(specs);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameOutcome(got[i], expected[i]);
    EXPECT_EQ(sharded.stats().workersSpawned, 2u);
    EXPECT_EQ(sharded.stats().simulated, specs.size());

    // A warm rerun over the worker-written cache skips the workers
    // entirely (cache hits), still bit-exact.
    sb::ExperimentEngine warm(shardedOpt);
    const auto cached = warm.run(specs);
    EXPECT_EQ(warm.stats().cacheHits, specs.size());
    EXPECT_EQ(warm.stats().workersSpawned, 0u);
    for (std::size_t i = 0; i < cached.size(); ++i)
        expectSameOutcome(cached[i], expected[i]);
}

TEST(EngineShards, InterruptDrainsBatchWithPartialResults)
{
    // A pending interrupt makes the engine stub every remaining cell
    // instead of simulating: partial results, marked outcomes, stats
    // flagged — and nothing poisonous stored in the cache.
    sb::installSignalHandlers();
    ::raise(SIGTERM);
    ASSERT_TRUE(sb::interruptRequested());

    const std::string dir = freshDir("sb_shard_interrupt");
    sb::ExperimentEngine::Options opt;
    opt.jobs = 2;
    opt.cacheDir = dir;
    sb::ExperimentEngine engine(opt);
    const auto specs = smallBatch();
    const auto results = engine.run(specs);
    sb::clearInterruptForTesting();

    ASSERT_EQ(results.size(), specs.size());
    for (const auto &out : results) {
        EXPECT_EQ(out.stat("interrupted"), 1u);
        EXPECT_FALSE(sb::outcomeIsCacheable(out));
    }
    EXPECT_TRUE(engine.stats().interrupted);
    EXPECT_EQ(engine.stats().interruptedCells, specs.size());
    sb::ResultCache cache(dir);
    EXPECT_EQ(cache.size(), 0u);
}

} // anonymous namespace
