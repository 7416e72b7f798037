/**
 * @file
 * Wire protocol of the sharded experiment tier.
 *
 * The dispatcher (`sbsim run --shards N`) and each worker it forked
 * (harness/shard.hh) exchange length-prefixed JSON frames over a
 * socketpair: each frame is a 4-byte little-endian payload length
 * followed by exactly that many bytes of JSON text. Framing is
 * independent of JSON so a reader never has to scan for message
 * boundaries, a half-written frame from a crashed peer is detected by
 * length (not by parse luck), and the unparsed tail survives in the
 * reader for the next read.
 *
 * Messages (the `cmd` field discriminates):
 *   worker -> dispatcher  {"cmd":"hello"}
 *   dispatcher -> worker  {"cmd":"run","id":I}
 *   worker -> dispatcher  {"cmd":"done","id":I,"cached":B,
 *                          "outcome":{...}}
 *
 * There is no shutdown message: the dispatcher stops a worker by
 * closing its stream, and the worker exits 0 on EOF. A worker is a
 * fork of the dispatcher and holds the batch it was forked with, so
 * `run` names a cell by its index I in that batch; only the outcome
 * travels as data.
 */

#ifndef SB_HARNESS_PROTOCOL_HH
#define SB_HARNESS_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/json.hh"
#include "harness/experiment.hh"

namespace sb
{

/** Upper bound on one frame; larger lengths mean a corrupt stream. */
constexpr std::uint32_t maxFrameBytes = 64u << 20;

/**
 * write() all @p size bytes of @p data to @p fd, retrying EINTR and
 * partial writes. Returns false on error (EPIPE from a dead peer
 * included; install SIGPIPE ignore first).
 */
bool writeAll(int fd, const char *data, std::size_t size);

/** Write one frame (length prefix + @p payload) to @p fd with
 *  writeAll(). Returns false on error or an oversized payload. */
bool writeFrame(int fd, const std::string &payload);

enum class RecvStatus
{
    Ok,     ///< A complete frame was received.
    Closed, ///< Peer closed the stream (EOF) at a frame boundary
            ///< or mid-frame (a crashed peer looks the same).
    Error,  ///< read() error, or an oversized frame length.
};

/**
 * Incremental frame decoder for a stream: feed() raw bytes as they
 * arrive, next() extracts complete frames in order. One reader lives
 * as long as its stream, since one read() may carry the start of the
 * next frame.
 */
class FrameReader
{
  public:
    void feed(const char *data, std::size_t n) { buf.append(data, n); }

    /** Extract the next complete frame into @p payload. */
    bool next(std::string &payload);

    /** A frame length exceeded maxFrameBytes: the stream is garbage
     *  and the peer should be treated as crashed. */
    bool corrupt() const { return corruptFlag; }

    /** Bytes of an incomplete trailing frame (diagnostics). */
    std::size_t pendingBytes() const { return buf.size(); }

  private:
    std::string buf;
    bool corruptFlag = false;
};

/**
 * Blocking read of the next frame of @p fd's stream, whose bytes
 * read so far @p reader holds. Used by the worker (one request at a
 * time); the dispatcher multiplexes many workers, feeding each
 * worker's FrameReader from a nonblocking stream.
 */
RecvStatus readFrame(int fd, FrameReader &reader, std::string &payload);

// --- Message builders ---------------------------------------------------

Json makeHelloMsg();
Json makeRunCmd(std::uint64_t id);
Json makeDoneMsg(std::uint64_t id, const RunOutcome &outcome,
                 bool cached);

/** The `cmd` field of a parsed message ("" when absent/malformed). */
std::string messageCmd(const Json &msg);

} // namespace sb

#endif // SB_HARNESS_PROTOCOL_HH
