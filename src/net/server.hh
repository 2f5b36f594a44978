/**
 * @file
 * QumaServer: an experiment backend behind a socket, multiplexed.
 *
 * One server wraps one shared runtime::IExperimentBackend -- an
 * in-process ExperimentService for quma_serve, a FleetBackend for
 * the gateway (net/gateway.hh) -- and serves the wire protocol
 * (wire.hh) over any transport Listener -- TCP for
 * real remote clients, the in-process loopback for deterministic
 * tests. Each accepted connection gets a READER thread that decodes
 * request frames and a WRITER thread that drains the connection's
 * outbox; every reply frame echoes its request's requestId, so one
 * connection carries any number of requests in flight at once.
 *
 * STREAMING. An AwaitRequest no longer parks the connection: the
 * reader registers a backend completion subscription and moves on to
 * the next frame. When the job finishes, the backend's notifying
 * thread (the scheduler's notifier, or a fleet link reader) drops the
 * shared result into the connection's
 * outbox and the writer encodes and pushes it immediately (encoding
 * on the per-connection writer keeps the single notifier thread
 * cheap and lets concurrent connections encode in parallel) --
 * results stream back in completion order, interleaved with other
 * replies, with no polling loop anywhere. The only request
 * that can still block the reader is a Submit against a full queue
 * (deliberate backpressure: the client should not be able to buffer
 * unbounded work).
 *
 * Remote jobs keep the runtime's determinism contract end to end:
 * the decoded JobSpec carries the same seed, priority and
 * round-structured sharding fields the client serialized, so a job
 * submitted over the wire produces the bit-identical JobResult the
 * in-process path produces (pinned by tests/test_net.cc).
 *
 * DISCONNECT. When a connection dies (EOF or a wire error), jobs it
 * submitted whose results were not yet delivered and that are still
 * fully queued are cancelled (IExperimentBackend::cancel) -- nobody is
 * left to read their results. Work already running is never
 * interrupted. Pending completion subscriptions hold only a weak
 * reference to the connection's shared state; late pushes find the
 * outbox closed and evaporate.
 *
 * SHUTDOWN. Serving threads are TRACKED and JOINED: stop() closes
 * the listener, every live stream and outbox, then joins the
 * acceptor and every reader (each reader joins its own writer), so
 * teardown is deterministic -- no detached thread ever touches a
 * dead server (the pre-v2 detached design could).
 *
 * VERSIONING. The server speaks v4 only. A frame claiming any other
 * wire version is answered with an ErrorReply{VersionMismatch}
 * carrying requestId 0 (the connection-level id) and the connection
 * is closed: a legacy client fails with a diagnosis instead of
 * hanging.
 *
 * PROGRESS STREAMING (v4). An AwaitRequest from a v4 peer also
 * registers a backend progress subscription: rate-limited
 * ProgressFrame pushes (rounds completed / total) ride the same
 * outbox under the await's requestId, always ahead of the terminal
 * AwaitReply (the scheduler queues the forced 100% notification
 * before the completion). Like result pushes, progress pushes hold
 * the connection weakly and evaporate on a dead connection.
 *
 * ACCOUNTING. Every frame in either direction is metered through a
 * core::LinkMeter, pricing the serving traffic in the same
 * bytes-and-seconds units as the paper's §7.1 host-link budget.
 */

#ifndef QUMA_NET_SERVER_HH
#define QUMA_NET_SERVER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/metrics.hh"
#include "net/capture.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "quma/hostlink.hh"
#include "runtime/backend.hh"

namespace quma::net {

struct ServerConfig
{
    /**
     * Per-connection cap on reply frames queued for the writer. A
     * client that issues requests without ever reading replies would
     * otherwise grow the outbox without bound (the pre-v2 design
     * throttled naturally because the one serving thread blocked in
     * send). At the cap the connection is treated as a dead slow
     * consumer and torn down. Generous: a legitimate pipeliner's
     * backlog is bounded by the scheduler queue it can fill.
     */
    std::size_t maxQueuedReplyFrames = 8192;
    /**
     * Record every connection's wire traffic into this directory
     * ("" = off), one `conn-<N>.qcap` file per accepted connection
     * (see net/capture.hh for the format). A captured session can be
     * re-driven byte-for-byte by quma_replay -- the exact-repro
     * debugging loop docs/durability.md describes.
     */
    std::string captureDir;
};

class QumaServer
{
  public:
    struct Stats
    {
        std::size_t connectionsAccepted = 0;
        std::size_t connectionsActive = 0;
        std::size_t requestsServed = 0;
        /** Requests answered with an ErrorReply frame. */
        std::size_t errorsReturned = 0;
        /** Queued jobs cancelled because their client vanished. */
        std::size_t jobsCancelledOnDisconnect = 0;
        /** AwaitReply frames pushed by completion subscriptions. */
        std::size_t resultsStreamed = 0;
        /** ProgressFrame pushes delivered to v4 peers' outboxes. */
        std::size_t progressFramesPushed = 0;
        /**
         * Requests by frame type, indexed by the request MsgType
         * value (1..9); slot 0 counts non-request frame types that
         * reached dispatch.
         */
        std::array<std::size_t, 10> requestsByType{};
        /** Wire traffic (bytesUp = client-to-server requests). */
        core::LinkStats link;
    };

    /**
     * Start serving immediately: the accept loop runs on its own
     * thread until stop() (or destruction).
     *
     * @param backend the shared runtime every connection drives
     * @param listener transport accept side (TCP or loopback)
     */
    QumaServer(runtime::IExperimentBackend &backend,
               std::unique_ptr<Listener> listener,
               ServerConfig config = {});
    ~QumaServer();

    QumaServer(const QumaServer &) = delete;
    QumaServer &operator=(const QumaServer &) = delete;

    /**
     * Stop accepting, close every live connection and join all
     * serving threads (idempotent). Jobs already submitted to the
     * backend keep running; only their queued-but-undelivered work is
     * cancelled by the per-connection disconnect handling.
     */
    void stop();

    /**
     * One coherent snapshot: every field is read under a single
     * acquisition of the server mutex (live connections' streamed
     * counts are atomics, so no per-connection lock nests inside).
     */
    Stats stats() const;

    /**
     * Register this server's series with `registry` (quma_server_*
     * and quma_link_* families). The server must outlive the
     * registry's last render: the series are callbacks reading live
     * server state.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    /**
     * One queued reply: either an already-sealed frame, or a
     * deferred streamed result (shared with the scheduler, encoded
     * by the WRITER thread -- so the scheduler's single notifier
     * thread never pays per-result wire encoding, and concurrent
     * connections encode their streams in parallel).
     */
    struct OutFrame
    {
        std::vector<std::uint8_t> frame;
        std::shared_ptr<const runtime::JobResult> result;
        std::uint64_t requestId = 0;
    };

    /**
     * Replies queued for one connection's writer thread. Sealed
     * frames go in from the reader (inline replies), deferred
     * results from the scheduler's notifier thread (streamed
     * AwaitReplys); the writer drains in FIFO order. close() drops
     * whatever is pending -- once the connection is going away
     * there is nobody to read it.
     */
    struct Outbox
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<OutFrame> frames;
        bool closed = false;
        /** The writer popped an entry and is encoding/sending it. */
        bool sending = false;
        /** Queued-entry cap (ServerConfig::maxQueuedReplyFrames);
         *  overflowing it closes the outbox -- slow-consumer
         *  disconnect, the writer tears the stream down. */
        std::size_t limit = 8192;

        /** False (entry dropped) once closed or over the cap. */
        bool push(OutFrame entry);
        /** Block for the next entry (marks it in flight); nullopt
         *  once closed and empty. */
        std::optional<OutFrame> pop();
        /** The in-flight entry left sendAll (either way). */
        void sent();
        /**
         * Bounded wait for the writer to drain queue AND in-flight
         * frame: lets a farewell frame (VersionMismatch, Shutdown)
         * out before close() drops the rest. Bounded because the
         * writer may be wedged against a dead peer.
         */
        void drainFor(std::chrono::milliseconds timeout);
        void close();
    };

    /**
     * Per-connection state shared between the reader, the writer and
     * any in-flight completion callbacks (which hold it weakly: a
     * push that outlives the connection finds the outbox closed).
     */
    struct ConnState
    {
        Outbox outbox;
        std::mutex mu;
        /** Jobs submitted here whose results were not delivered. */
        std::unordered_set<runtime::JobId> submitted;
        /** AwaitReply frames streamed on this connection. Atomic so
         *  stats() reads it without nesting this->mu inside the
         *  server mutex. */
        std::atomic<std::size_t> streamed{0};
        /** ProgressFrame pushes accepted by this connection's
         *  outbox (same accounting pattern as `streamed`). */
        std::atomic<std::size_t> progressPushed{0};
        /**
         * Teardown hook for pushers: set by the reader while the
         * connection lives (guarded by mu, cleared before the
         * reader exits, so the target is always valid when called).
         * An outbox overflow closes the stream through this, which
         * unblocks a writer wedged in sendAll against the dead
         * peer and wakes the reader into the disconnect handling.
         */
        ByteStream *stream = nullptr;
        /** Wire-traffic recorder (ServerConfig::captureDir); null
         *  when capture is off. Internally mutex-serialized, so the
         *  reader and writer threads record through it directly. */
        std::shared_ptr<CaptureWriter> capture;

        void noteSubmitted(runtime::JobId id);
        void noteDelivered(runtime::JobId id);
        bool owns(runtime::JobId id);
        /** Drain the undelivered set (disconnect cancellation). */
        std::vector<runtime::JobId> takeSubmitted();
        /** Close the live stream, if any (idempotent). */
        void closeStream();
    };

    /** One tracked connection: stream, shared state, reader thread
     *  (the reader owns and joins the writer). */
    struct Connection
    {
        std::unique_ptr<ByteStream> stream;
        std::shared_ptr<ConnState> state;
        std::thread reader;
        /** Set by the reader on exit; the acceptor reaps. */
        bool finished = false;
    };

    void acceptLoop();
    void serveConnection(Connection &conn);
    void writerLoop(ByteStream &stream, ConnState &state);
    /** Decode and serve one request; false ends the connection.
     *  The state travels as a shared_ptr so an Await subscription
     *  can capture it weakly. */
    bool serveRequest(ByteStream &stream,
                      const std::shared_ptr<ConnState> &state);
    /** The type switch; false ends the connection (shutdown). */
    bool dispatchRequest(ByteStream &stream,
                         const std::shared_ptr<ConnState> &state,
                         const FrameHeader &header, Reader &r);
    void queueFrame(ConnState &state, MsgType type,
                    std::uint64_t request_id, const Writer &payload);
    void queueError(ConnState &state, std::uint64_t request_id,
                    WireErrorCode code, const std::string &message);
    /** Join and erase finished connections (called by the acceptor
     *  and by stop(), which first closes everything). */
    void reapConnections(bool join_all);
    bool stopping() const;
    /** Reply frames queued across live connections' outboxes. */
    std::size_t queuedReplyFrames() const;

    runtime::IExperimentBackend &backend;
    std::unique_ptr<Listener> listener;
    const ServerConfig cfg;

    mutable std::mutex mu;
    bool stopped = false;
    std::thread acceptor;
    /** Tracked connections; reaped on accept and joined at stop(). */
    std::vector<std::unique_ptr<Connection>> connections;
    Stats counters;
    core::LinkMeter meter;
};

} // namespace quma::net

#endif // QUMA_NET_SERVER_HH
