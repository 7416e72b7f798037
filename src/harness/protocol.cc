#include "harness/protocol.hh"

#include <unistd.h>

#include <cerrno>

#include "harness/reporting.hh"

namespace sb
{

namespace
{

void
encodeLen(std::uint32_t len, char out[4])
{
    out[0] = static_cast<char>(len & 0xff);
    out[1] = static_cast<char>((len >> 8) & 0xff);
    out[2] = static_cast<char>((len >> 16) & 0xff);
    out[3] = static_cast<char>((len >> 24) & 0xff);
}

std::uint32_t
decodeLen(const char *in)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0]))
           | static_cast<std::uint32_t>(static_cast<unsigned char>(in[1]))
                 << 8
           | static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
                 << 16
           | static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]))
                 << 24;
}

} // anonymous namespace

bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > maxFrameBytes)
        return false;
    char header[4];
    encodeLen(static_cast<std::uint32_t>(payload.size()), header);
    // One buffer, one stream: a short write interleaving with another
    // writer is not a concern (each stream has exactly one writer),
    // but coalescing saves a syscall per frame.
    std::string frame;
    frame.reserve(payload.size() + 4);
    frame.append(header, 4);
    frame += payload;
    return writeAll(fd, frame.data(), frame.size());
}

RecvStatus
readFrame(int fd, FrameReader &reader, std::string &payload)
{
    char chunk[4096];
    while (!reader.next(payload)) {
        if (reader.corrupt())
            return RecvStatus::Error;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return RecvStatus::Error;
        }
        if (n == 0)
            return RecvStatus::Closed;
        reader.feed(chunk, static_cast<std::size_t>(n));
    }
    return RecvStatus::Ok;
}

bool
FrameReader::next(std::string &payload)
{
    if (corruptFlag || buf.size() < 4)
        return false;
    const std::uint32_t len = decodeLen(buf.data());
    if (len > maxFrameBytes) {
        corruptFlag = true;
        return false;
    }
    if (buf.size() < 4u + len)
        return false;
    payload.assign(buf, 4, len);
    buf.erase(0, 4u + len);
    return true;
}

// --- Messages -----------------------------------------------------------

Json
makeHelloMsg()
{
    Json j = Json::object();
    j.set("cmd", Json::str("hello"));
    return j;
}

Json
makeRunCmd(std::uint64_t id)
{
    Json j = Json::object();
    j.set("cmd", Json::str("run"));
    j.set("id", Json::num(id));
    return j;
}

Json
makeDoneMsg(std::uint64_t id, const RunOutcome &outcome, bool cached)
{
    Json j = Json::object();
    j.set("cmd", Json::str("done"));
    j.set("id", Json::num(id));
    j.set("cached", Json::boolean(cached));
    j.set("outcome", toJson(outcome));
    return j;
}

std::string
messageCmd(const Json &msg)
{
    if (!msg.isObject() || !msg.has("cmd")
        || msg.at("cmd").kind() != Json::Kind::String)
        return std::string();
    return msg.at("cmd").asString();
}

} // namespace sb
