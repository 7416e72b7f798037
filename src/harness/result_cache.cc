#include "harness/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "harness/protocol.hh"
#include "harness/reporting.hh"

namespace sb
{

namespace
{

/** flock() retrying on EINTR (signals must not skip the lock). */
bool
lockFile(int fd, int op)
{
    while (::flock(fd, op) != 0) {
        if (errno != EINTR)
            return false;
    }
    return true;
}

} // anonymous namespace

std::string
frameCacheRecord(const std::string &key, const RunOutcome &outcome)
{
    Json rec = Json::object();
    rec.set("key", Json::str(key));
    rec.set("outcome", toJson(outcome));
    const std::string payload = rec.dump();
    // The frame is laid out by hand so the checksum covers the exact
    // payload bytes on disk; a reader locates them by offset + length
    // and never depends on serializer round-trip stability (doubles!).
    std::string line;
    line.reserve(payload.size() + 48);
    line += "{\"len\":";
    line += std::to_string(payload.size());
    line += ",\"sum\":\"";
    line += hex16(fnv1aString(fnv1aBasis, payload));
    line += "\",\"rec\":";
    line += payload;
    line += "}";
    return line;
}

bool
parseCacheLine(const std::string &line, std::string &key,
               RunOutcome &out)
{
    static const std::string framedPrefix = "{\"len\":";
    if (line.compare(0, framedPrefix.size(), framedPrefix) != 0)
        return false;
    std::size_t pos = framedPrefix.size();
    std::size_t len = 0;
    const std::size_t lenStart = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
        len = len * 10 + static_cast<std::size_t>(line[pos++] - '0');
    if (pos == lenStart)
        return false;
    static const std::string sumTag = ",\"sum\":\"";
    if (line.compare(pos, sumTag.size(), sumTag) != 0)
        return false;
    pos += sumTag.size();
    if (pos + 16 > line.size())
        return false;
    const std::string sum = line.substr(pos, 16);
    pos += 16;
    static const std::string recTag = "\",\"rec\":";
    if (line.compare(pos, recTag.size(), recTag) != 0)
        return false;
    pos += recTag.size();
    // The payload must span exactly len bytes and leave only the
    // closing brace: a torn tail or a spliced next record fails here
    // before any checksum work.
    if (line.size() != pos + len + 1 || line.back() != '}')
        return false;
    const std::string payload = line.substr(pos, len);
    if (hex16(fnv1aString(fnv1aBasis, payload)) != sum)
        return false;
    Json rec;
    if (!Json::parse(payload, rec) || !rec.isObject() || !rec.has("key")
        || rec.at("key").kind() != Json::Kind::String
        || !rec.has("outcome")
        || !outcomeFromJson(rec.at("outcome"), out))
        return false;
    key = rec.at("key").asString();
    return true;
}

ResultCache::ResultCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    filePath = (std::filesystem::path(dir) / "results.jsonl").string();
    lockPath = (std::filesystem::path(dir) / "results.lock").string();
    if (ec) {
        sb_warn("cannot create cache directory '", dir,
                "': ", ec.message(), "; caching disabled");
        return;
    }

    // The lock file is a separate, never-renamed inode: flock()s on it
    // stay valid across compactions of the data file.
    lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (lockFd < 0) {
        sb_warn("cannot open '", lockPath, "': ", std::strerror(errno),
                "; caching disabled");
        return;
    }

    loadAndRepair();
}

void
ResultCache::loadAndRepair()
{
    // Exclusive: the load may compact (snapshot + rename), and no
    // append may land between the snapshot and the rename or it would
    // be stranded on the old inode.
    if (!lockFile(lockFd, LOCK_EX)) {
        sb_warn("cannot lock '", lockPath, "': ", std::strerror(errno),
                "; caching disabled");
        ::close(lockFd);
        lockFd = -1;
        return;
    }

    {
        std::ifstream in(filePath);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            std::string key;
            RunOutcome outcome;
            if (!parseCacheLine(line, key, outcome)) {
                ++damaged;
                continue;
            }
            entries[key] = std::move(outcome);
        }
    }

    if (damaged) {
        sb_warn("result cache ", filePath, ": skipped ", damaged,
                " damaged record(s), compacting");
        // Rewrite the file from the records that verified, so damage
        // is shed once instead of being re-skipped on every load. The
        // exclusive lock is already held; write-then-rename keeps the
        // file whole if we die mid-compaction.
        const std::string tmp = filePath + ".compact";
        std::string blob;
        for (const auto &kv : entries) {
            blob += frameCacheRecord(kv.first, kv.second);
            blob += '\n';
        }
        const int tmpFd =
            ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
        bool written = tmpFd >= 0
                       && writeAll(tmpFd, blob.data(), blob.size())
                       && ::fsync(tmpFd) == 0;
        if (tmpFd >= 0)
            ::close(tmpFd);
        std::error_code ec;
        if (!written) {
            sb_warn("result cache ", filePath,
                    ": compaction write failed; keeping damaged file");
            std::filesystem::remove(tmp, ec);
        } else {
            std::filesystem::rename(tmp, filePath, ec);
            if (ec)
                sb_warn("result cache ", filePath,
                        ": compaction rename failed: ", ec.message());
        }
    }

    lockFile(lockFd, LOCK_UN);
}

ResultCache::~ResultCache()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

bool
ResultCache::lookup(const std::string &key, RunOutcome &out) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end())
        return false;
    out = it->second;
    return true;
}

void
ResultCache::store(const std::string &key, const RunOutcome &out)
{
    std::string line = frameCacheRecord(key, out);
    line += '\n';

    std::lock_guard<std::mutex> lock(mutex);
    entries[key] = out;
    if (lockFd < 0)
        return;

    // Shared lock: appends may interleave with each other (each is a
    // single contiguous O_APPEND write) but never with a compaction.
    // The data file is re-opened per append so the write always lands
    // on the current inode, not one a concurrent compaction renamed
    // away; per-cell simulation cost dwarfs an open()+flock() pair.
    if (!lockFile(lockFd, LOCK_SH)) {
        sb_warn("result cache ", filePath, ": lock failed (",
                std::strerror(errno), "), entry not persisted");
        return;
    }
    const int fd = ::open(filePath.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        sb_warn("result cache ", filePath, ": open failed (",
                std::strerror(errno), "), entry not persisted");
        lockFile(lockFd, LOCK_UN);
        return;
    }
    if (faultPoint("torn-write")) {
        // Injected fault: behave like a writer killed mid-write and
        // leave a torn record. Loads must shed it (checksum framing)
        // and compaction must repair the file.
        sb_warn("SB_FAULT torn-write: tearing cache record for ", key);
        writeAll(fd, line.data(), line.size() / 2);
    } else if (!writeAll(fd, line.data(), line.size())) {
        sb_warn("result cache ", filePath, ": short write (",
                std::strerror(errno), "), entry may be torn");
    }
    ::close(fd);
    lockFile(lockFd, LOCK_UN);
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

} // namespace sb
