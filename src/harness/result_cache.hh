/**
 * @file
 * Content-addressed on-disk result cache, safe for concurrent
 * multi-process use (shard workers, parallel CI jobs).
 *
 * One JSONL file (`<dir>/results.jsonl`) holds one line per simulated
 * cell. Each line is a length+checksum-framed record:
 *
 *   {"len":N,"sum":"<16-hex fnv1a64>","rec":{"key":K,"outcome":O}}
 *
 * where N is the byte length of the serialized `rec` object exactly
 * as written and the checksum covers those same bytes. On load a
 * record is accepted only when the length matches and the payload
 * bytes hash to the checksum, so a torn tail (killed writer), a
 * spliced line, bit rot, or a line in any other format degrades to a
 * skipped record — never a wrong result.
 *
 * Concurrency protocol (N processes sharing one cache directory):
 *  - every append opens the data file fresh (O_APPEND) and writes the
 *    whole line with a single write() under a shared flock on a
 *    side lock file (`results.lock`);
 *  - compaction (shedding damaged or superseded lines) takes the lock
 *    exclusively around snapshot + write-temp + rename, so no append
 *    can slip between the snapshot and the rename and be lost with
 *    the old inode.
 * The lock file is never renamed, so its inode — and therefore the
 * flock — is stable; re-opening the data file per append means a
 * writer can never append to a stale pre-compaction inode. The file
 * is append-only between compactions and a later line for the same
 * key wins on load (last-writer-wins), so double stores of identical
 * content are harmless. A stale or damaged cache can only cause
 * extra simulation, never wrong results.
 */

#ifndef SB_HARNESS_RESULT_CACHE_HH
#define SB_HARNESS_RESULT_CACHE_HH

#include <map>
#include <mutex>
#include <string>

#include "harness/experiment.hh"

namespace sb
{

/** Serialize one framed cache record (exposed for tests). */
std::string frameCacheRecord(const std::string &key,
                             const RunOutcome &outcome);

/**
 * Parse one cache line into (@p key, @p out). Accepts only framed
 * records whose length and checksum verify; returns false on damage
 * of any kind.
 */
bool parseCacheLine(const std::string &line, std::string &key,
                    RunOutcome &out);

class ResultCache
{
  public:
    /**
     * Create @p dir if needed and load any existing results.jsonl.
     * An unusable directory leaves the cache disabled (see ok())
     * with a warning rather than aborting.
     */
    explicit ResultCache(const std::string &dir);
    ~ResultCache();

    /** False when the cache directory / lock file is unusable. */
    bool ok() const { return lockFd >= 0; }

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Fetch the outcome cached under @p key, if any. */
    bool lookup(const std::string &key, RunOutcome &out) const;

    /**
     * Persist @p out under @p key (thread-safe; one flock-guarded
     * write() per record, durable as soon as store returns). A no-op
     * beyond the in-memory map when !ok().
     */
    void store(const std::string &key, const RunOutcome &out);

    /** Number of distinct keys currently cached. */
    std::size_t size() const;

    /** Records skipped as damaged during load (telemetry/tests). */
    std::size_t damagedOnLoad() const { return damaged; }

    /** Path of the backing JSONL file. */
    const std::string &path() const { return filePath; }

  private:
    void loadAndRepair();

    std::string filePath;
    std::string lockPath;
    int lockFd = -1;
    mutable std::mutex mutex;
    std::map<std::string, RunOutcome> entries;
    std::size_t damaged = 0;
};

} // namespace sb

#endif // SB_HARNESS_RESULT_CACHE_HH
