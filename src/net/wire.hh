/**
 * @file
 * The QuMA wire protocol: versioned, length-prefixed binary frames
 * carrying the experiment runtime's request/reply surface between a
 * QumaClient and a QumaServer (see src/net/README.md for the full
 * frame layout and versioning rules).
 *
 * Every frame is
 *
 *     u32 magic     "QuMA" (0x414D7551 little-endian)
 *     u16 version   kWireVersion
 *     u16 type      MsgType
 *     u32 length    payload byte count (<= kMaxPayloadBytes)
 *     u64 requestId demultiplexing key (v2; see below)
 *     u8  payload[length]
 *
 * The requestId is what makes one connection carry many requests at
 * once: a client stamps every request with a fresh id, the server
 * echoes it on the matching reply, and the client's background
 * reader routes each incoming frame to the request that is waiting
 * for it -- in whatever order the replies arrive. Replies to
 * blocking requests (Await) are pushed by the server the moment the
 * job completes, so they routinely overtake later requests' replies.
 * requestId 0 is reserved for connection-level error frames that
 * answer no particular request (e.g. a version mismatch).
 *
 * Every multi-byte integer is serialized explicitly little-endian,
 * byte by byte -- never by memcpy of a host struct -- so the format
 * is identical across architectures and independent of padding.
 * Doubles travel as the little-endian bytes of their IEEE-754 bit
 * pattern, which is what makes remote JobResults candidates for
 * BIT-identity with local ones rather than mere closeness.
 *
 * Decoding is defensive: a Reader never reads past the payload it
 * was given and throws WireError (no UB, no over-read) on truncated
 * or malformed input; decodeFrameHeader rejects bad magic, foreign
 * versions and oversized lengths before any payload is touched. A
 * foreign version throws the WireVersionError subclass so a server
 * can answer the legacy peer with a clean VersionMismatch error
 * frame before hanging up, instead of dying silently.
 */

#ifndef QUMA_NET_WIRE_HH
#define QUMA_NET_WIRE_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/backend.hh"
#include "runtime/job.hh"
#include "runtime/trace.hh"

namespace quma::net {

/** Malformed, truncated or protocol-violating wire data. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * A structurally valid header speaking a different protocol version.
 * Distinct from plain WireError so the serving side can answer the
 * legacy peer with a VersionMismatch error frame (its framing is
 * intact enough to read) before closing the connection.
 */
class WireVersionError : public WireError
{
  public:
    WireVersionError(const std::string &msg, std::uint16_t peer)
        : WireError(msg), peerVersion(peer)
    {
    }

    /** The version the peer claimed to speak. */
    std::uint16_t peerVersion;
};

/** "QuMA" in little-endian byte order. */
inline constexpr std::uint32_t kWireMagic = 0x414D7551u;
/**
 * Bump on any incompatible layout change (see README).
 * v1: strict request/reply, 12-byte header.
 * v2: + u64 requestId in the header (connection multiplexing and
 *     completion-pushed Await replies).
 * v3: StatsFrame carries program/LUT-cache stats and the pool's
 *     machine-reset count (header layout unchanged from v2).
 * v4: Submit/TrySubmit payloads append a trace context
 *     (traceId + spanId), new ClockSync and TraceDump exchanges,
 *     and server-pushed ProgressFrames on awaited jobs (header
 *     layout unchanged from v2).
 * v5: StatsFrame carries each priority class's latency histogram in
 *     place of the p50/p95 digest and drops the two v4 reserved
 *     scheduler slots (header layout unchanged from v2). A server
 *     speaks v5 only: any other version gets a VersionMismatch error
 *     frame and a close.
 */
inline constexpr std::uint16_t kWireVersion = 5;
/** Hard per-frame payload cap; larger lengths are rejected. */
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
/** Serialized frame header size in bytes (v2+: requestId included). */
inline constexpr std::size_t kFrameHeaderBytes = 20;
/**
 * The header prefix every version shares: magic, version, type,
 * length (the v1 header was exactly this). A server reads this much
 * first and validates magic+version before trusting the
 * version-specific remainder -- a legacy frame SHORTER than the v2
 * header (e.g. a 12-byte v1 StatsRequest) must still produce a
 * clean VersionMismatch answer, not a blocked read.
 */
inline constexpr std::size_t kFrameHeaderPrefixBytes = 12;
/**
 * Request id reserved for connection-level error frames that answer
 * no particular request (version mismatch, undecodable header).
 */
inline constexpr std::uint64_t kConnectionRequestId = 0;

/**
 * Semantic caps on decoded JobSpecs. Framing checks alone would let
 * a ~100-byte frame claim 1e8 shards and make the serving scheduler
 * materialize one task per shard (gigabytes, under its mutex) --
 * the denial-of-service the decode side must refuse. Generous
 * multiples of every legitimate workload (the paper's largest sweep
 * is 25600 rounds x 42 bins; shards beyond the worker count are
 * useless).
 */
inline constexpr std::uint64_t kMaxWireShards = 4096;
inline constexpr std::uint64_t kMaxWireRounds = 1ull << 24;
inline constexpr std::uint64_t kMaxWireBins = 1ull << 20;
/** Cap on rounds x bins: bounds the per-job collector-sum memory. */
inline constexpr std::uint64_t kMaxWireRoundBins = 1ull << 26;

/**
 * Frame types. Requests occupy [1, 63], replies [64, 126]; 127 is
 * the error reply. A reply's type is its request's type + 64, which
 * clients use to reject mismatched responses. ProgressFrame (v4)
 * sits in the reply range but answers no request 1:1: the server
 * pushes any number of them under an AwaitRequest's id before the
 * terminal AwaitReply.
 */
enum class MsgType : std::uint16_t
{
    SubmitRequest = 1,
    TrySubmitRequest = 2,
    StatusRequest = 3,
    PollRequest = 4,
    AwaitRequest = 5,
    StatsRequest = 6,
    CancelRequest = 7,
    ClockSyncRequest = 8,
    TraceDumpRequest = 9,

    SubmitReply = 65,
    TrySubmitReply = 66,
    StatusReply = 67,
    PollReply = 68,
    AwaitReply = 69,
    StatsReply = 70,
    CancelReply = 71,
    ClockSyncReply = 72,
    TraceDumpReply = 73,

    /** Server-push: shard progress for an awaited job (v4). */
    ProgressFrame = 80,

    ErrorReply = 127,
};

/** What a frame type is to the requestId demultiplexer. */
enum class FrameKind
{
    /** Not a MsgType of this protocol. */
    Unknown,
    /** Client-to-server: opens an exchange under a fresh requestId. */
    Request,
    /** Server-to-client: ENDS its request's exchange (ErrorReply
     *  included). Exactly one per request. */
    Reply,
    /** Server-to-client under a live request's id that does NOT end
     *  it (ProgressFrame): route it, never retire the request on it. */
    Push,
};

/** The one rule every reply router (client reader, capture replay)
 *  applies to tell a request's reply from a push. */
FrameKind frameKind(MsgType type);

/** The reply type that ends `request`'s exchange (an ErrorReply may
 *  end any request instead); nullopt for a non-request type. */
std::optional<MsgType> replyTypeFor(MsgType request);

/** Error codes carried by an ErrorReply frame. */
enum class WireErrorCode : std::uint16_t
{
    /** Request frame decoded but violated protocol rules. */
    BadRequest = 1,
    /** Job id unknown to the serving scheduler. */
    UnknownJob = 2,
    /** Server is shutting down; no further requests served. */
    Shutdown = 3,
    /** Serving-side exception while executing the request. */
    Internal = 4,
    /**
     * Peer speaks a different wire version. Sent with
     * requestId = kConnectionRequestId just before the connection is
     * closed (mixed-version deployments are unsupported; the frame
     * exists so the legacy peer fails with a diagnosis, not a hang).
     */
    VersionMismatch = 5,
};

/** Little-endian payload builder. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** u32 byte count + raw bytes. */
    void str(const std::string &s);
    void vecF64(const std::vector<double> &v);
    void vecU64(const std::vector<std::size_t> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf; }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian payload consumer. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : p(data), n(size)
    {
    }
    explicit Reader(const std::vector<std::uint8_t> &payload)
        : Reader(payload.data(), payload.size())
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();
    std::vector<double> vecF64();
    std::vector<std::size_t> vecU64();

    std::size_t remaining() const { return n - at; }
    /** Throw unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    void need(std::size_t bytes) const;

    const std::uint8_t *p;
    std::size_t n;
    std::size_t at = 0;
};

/** Decoded frame header (magic/version already validated). */
struct FrameHeader
{
    MsgType type = MsgType::ErrorReply;
    std::uint32_t length = 0;
    /** Demux key echoed between request and its replies. */
    std::uint64_t requestId = kConnectionRequestId;
};

/** Serialize a complete frame (header + payload), stamped v4. */
std::vector<std::uint8_t> sealFrame(MsgType type,
                                    std::uint64_t request_id,
                                    const Writer &payload);

/**
 * Validate the version-independent prefix (kFrameHeaderPrefixBytes):
 * throws WireError on bad magic and WireVersionError on a foreign
 * version. Callers read and check this much FIRST, so a legacy
 * frame shorter than the v2 header still gets a clean diagnosis.
 */
void checkFramePrefix(const std::uint8_t *prefix);

/**
 * Validate and decode the kFrameHeaderBytes header bytes; throws
 * WireError on bad magic, unknown type or oversized length, and
 * WireVersionError on a foreign version (so the caller can answer
 * the legacy peer before hanging up).
 */
FrameHeader decodeFrameHeader(const std::uint8_t *header);

/**
 * Decode type/length/requestId from a header whose prefix was
 * already validated by checkFramePrefix -- the serving path, which
 * reads and checks the prefix before the rest of the header.
 */
FrameHeader decodeFrameHeaderUnchecked(const std::uint8_t *header);

/** Error frame payload. */
struct ErrorFrame
{
    WireErrorCode code = WireErrorCode::Internal;
    std::string message;
};

/**
 * Stats reply payload: the serving backend's runtime::stats(). Each
 * priority class's latency travels as its whole LatencyHistogram
 * (14 u64 buckets, then sum and max as f64), so a fleet can merge
 * backends' distributions exactly. The pool slot that carried
 * evictions carries PoolStats::rebinds.
 */
using StatsFrame = runtime::ServiceStats;

/**
 * Trace context a v4 client appends to every Submit/TrySubmit
 * payload: traceId names the whole client session (every job of one
 * sweep shares it), spanId names this request (the client uses its
 * requestId). The server records the job's lifecycle under this
 * trace, which is what lets the client merge both sides into one
 * trace-event file. All-zero means "no trace" and is legal.
 */
struct TraceContext
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
};

/**
 * Server-pushed shard progress for an awaited job (v4): rounds the
 * scheduler has completed out of the spec's total, across every
 * shard including stolen ranges. Monotonic per job; the terminal
 * AwaitReply -- not a 100% frame -- is the completion signal.
 */
struct ProgressFrameData
{
    runtime::JobId job = 0;
    std::uint64_t roundsDone = 0;
    std::uint64_t roundsTotal = 0;
};

/**
 * Clock-sync reply payload (v4): the server's trace clock "now"
 * (JobTraceRecorder::nowNanos) sampled while serving the request.
 * The client brackets the round trip with its own clock and derives
 * the offset that maps server trace timestamps into its timebase
 * (see docs/observability.md, "clock alignment").
 */
struct ClockSyncFrame
{
    std::uint64_t serverNanos = 0;
};

/** Trace-dump reply payload (v4): the serving backend's traceDump(),
 *  in its traceNowNanos() timebase. */
using TraceDumpFrame = runtime::TraceDump;

// --- message payload codecs -------------------------------------------------
//
// Each encode appends to a Writer; each decode consumes from a Reader
// and throws WireError on malformed input. Frame payloads must be
// consumed exactly (the frame decoders call expectEnd()).

/**
 * Encode a JobSpec. Remote jobs travel as assembly source: a spec
 * carrying a pre-assembled isa::Program is rejected here (the binary
 * program image is a host-side optimisation, not a wire format).
 */
void encodeJobSpec(Writer &w, const runtime::JobSpec &spec);
runtime::JobSpec decodeJobSpec(Reader &r);

void encodeJobResult(Writer &w, const runtime::JobResult &result);
runtime::JobResult decodeJobResult(Reader &r);

void encodeStatsFrame(Writer &w, const StatsFrame &stats);
StatsFrame decodeStatsFrame(Reader &r);

void encodeErrorFrame(Writer &w, const ErrorFrame &error);
ErrorFrame decodeErrorFrame(Reader &r);

void encodeTraceContext(Writer &w, const TraceContext &ctx);
TraceContext decodeTraceContext(Reader &r);

void encodeProgressFrame(Writer &w, const ProgressFrameData &p);
ProgressFrameData decodeProgressFrame(Reader &r);

void encodeClockSyncFrame(Writer &w, const ClockSyncFrame &c);
ClockSyncFrame decodeClockSyncFrame(Reader &r);

void encodeTraceDumpFrame(Writer &w, const TraceDumpFrame &dump);
TraceDumpFrame decodeTraceDumpFrame(Reader &r);

void encodeMachineConfig(Writer &w, const core::MachineConfig &mc);
core::MachineConfig decodeMachineConfig(Reader &r);

} // namespace quma::net

#endif // QUMA_NET_WIRE_HH
