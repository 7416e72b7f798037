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
 *   dispatcher -> worker  {"cmd":"shutdown"}
 *
 * A worker is a fork of the dispatcher and holds the batch it was
 * forked with, so `run` names a cell by its index I in that batch;
 * only the outcome travels as data.
 */

#ifndef SB_HARNESS_PROTOCOL_HH
#define SB_HARNESS_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "harness/experiment.hh"

namespace sb
{

/** Upper bound on one frame; larger lengths mean a corrupt stream. */
constexpr std::uint32_t maxFrameBytes = 64u << 20;

/**
 * Write one frame (length prefix + @p payload) to @p fd, retrying
 * EINTR and partial writes. Returns false on error (EPIPE from a
 * dead peer included; install SIGPIPE ignore first).
 */
bool writeFrame(int fd, const std::string &payload);

enum class RecvStatus
{
    Ok,      ///< A complete frame was received.
    Closed,  ///< Peer closed the stream (EOF) at a frame boundary
             ///< or mid-frame (a crashed peer looks the same).
    Timeout, ///< No complete frame within the deadline.
    Error,   ///< read()/poll() error, or an oversized frame length.
};

/**
 * Blocking single-frame read with a poll()-based timeout.
 * @p timeoutMs < 0 waits forever. Used by the worker (one request at
 * a time); the dispatcher multiplexes many workers with FrameReader.
 */
RecvStatus readFrame(int fd, std::string &payload, int timeoutMs);

/**
 * Incremental frame decoder for a nonblocking stream: feed() raw
 * bytes as they arrive, next() extracts complete frames in order.
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

// --- Message builders ---------------------------------------------------

Json makeHelloMsg();
Json makeRunCmd(std::uint64_t id);
Json makeDoneMsg(std::uint64_t id, const RunOutcome &outcome,
                 bool cached);
Json makeShutdownCmd();

/** The `cmd` field of a parsed message ("" when absent/malformed). */
std::string messageCmd(const Json &msg);

} // namespace sb

#endif // SB_HARNESS_PROTOCOL_HH
