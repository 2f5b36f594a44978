/**
 * @file
 * QumaClient: a remote runtime::IExperimentBackend that pipelines.
 *
 * Wraps one wire-protocol connection to a QumaServer and implements
 * the same submit / trySubmit / poll / await surface as the local
 * ExperimentService -- so an experiment fan-out written against
 * IExperimentBackend (AllXY, RB, coherence sweeps) runs unchanged
 * whether its jobs execute in-process or on a server across a
 * socket, with bit-identical results (the spec, including seed,
 * priority and sharding fields, travels losslessly).
 *
 * MULTIPLEXING (wire v2). Every request leaves with a fresh
 * requestId; a background reader thread routes every incoming frame
 * by that id to the promise slot of whichever call is waiting for
 * it. Consequences:
 *
 *  - the client is thread-safe AND concurrent: any number of caller
 *    threads may have requests in flight on the one connection;
 *  - submitAll() pipelines a whole sweep -- all specs are written
 *    back-to-back before the first SubmitReply is read, so an
 *    N-point fan-out pays ~1 submit round-trip instead of N;
 *  - await()/awaitAll()/awaitMany() never poll: the server pushes
 *    each AwaitReply the moment the job completes (scheduler
 *    completion subscription), and the reader fulfils the slot --
 *    results stream in completion order, which awaitMany() exposes
 *    directly and awaitAll() reorders to argument order;
 *  - the serving half of IExperimentBackend is non-blocking too:
 *    subscribe() and submitAsync() hand their reply to a callback on
 *    the reader thread (awaitStreaming is built on the same path), so
 *    a QumaServer can serve a remote backend -- FleetBackend does.
 *
 * OBSERVABILITY (wire v4). Every Submit carries this client's
 * trace context (a random per-client traceId plus a per-submit
 * spanId), so the server's job-lifecycle trace records under the
 * client's trace; enableSpans() additionally records client-side
 * spans (submit -> ack -> result) and mergedChromeTrace() joins
 * both sides into one clock-aligned Chrome trace JSON. awaitMany /
 * awaitStreaming accept an optional progress callback fed by
 * server-pushed ProgressFrames (rounds completed / total per job).
 *
 * Error mapping: ErrorReply{UnknownJob} surfaces as fatal(), exactly
 * like the local scheduler's unknown-id path; other error codes and
 * any framing violation surface as WireError. A dead connection
 * fails every in-flight and future call with WireError.
 */

#ifndef QUMA_NET_CLIENT_HH
#define QUMA_NET_CLIENT_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/metrics.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "quma/hostlink.hh"
#include "runtime/backend.hh"

namespace quma::net {

class QumaClient final : public runtime::IExperimentBackend
{
  public:
    /**
     * Per-job progress delivery: (job, roundsDone, roundsTotal).
     * Invoked on the client's reader thread as ProgressFrame pushes
     * land (wire v4) -- keep it cheap and non-blocking; a throwing
     * callback is caught and logged, never fails the connection.
     * Best-effort by contract: a job that finishes before its await
     * registers may produce no progress at all, and pushes are
     * rate-limited server-side.
     */
    using ProgressFn = std::function<void(
        runtime::JobId, std::uint64_t, std::uint64_t)>;

    /**
     * One client-side span of a remote job's life, in CLIENT steady
     * nanos (same timebase clockSync() aligns against the server):
     * submit on the wire -> SubmitReply decoded -> result decoded.
     * Recorded only while enableSpans() is on.
     */
    struct ClientSpan
    {
        runtime::JobId job = 0;
        /** Client-generated span id (travels in the v4 Submit's
         *  trace context alongside traceId()). */
        std::uint64_t spanId = 0;
        std::uint64_t submitNanos = 0;
        std::uint64_t ackNanos = 0;
        /** 0 until the result was decoded on this client. */
        std::uint64_t resultNanos = 0;
    };

    /** Speak the wire protocol over an established stream. */
    explicit QumaClient(std::unique_ptr<ByteStream> stream);

    /** Convenience: connect over TCP (dotted-quad host). */
    QumaClient(const std::string &host, std::uint16_t port);

    ~QumaClient() override;

    // IExperimentBackend surface, forwarded over the wire. The
    // const calls still talk on the wire: connection state is
    // mutable, the observable backend state is not touched. A
    // trace_id of 0 stamps this client's own traceId().
    std::optional<runtime::JobId>
    trySubmit(runtime::JobSpec spec,
              std::uint64_t trace_id = 0) override;
    /** A blocking submit: the request is on the wire, so it never
     *  gives up -- the SERVER loops on its own bounded waits. */
    std::optional<runtime::JobId>
    submitFor(const runtime::JobSpec &spec,
              std::chrono::milliseconds timeout,
              std::uint64_t trace_id) override;
    runtime::JobStatus status(runtime::JobId id) const override;
    std::optional<runtime::JobResult>
    poll(runtime::JobId id) const override;
    runtime::JobResult await(runtime::JobId id) override;
    /** Remote-side cancel of a still-queued job. */
    bool cancel(runtime::JobId id) override;

    /**
     * Non-blocking await: the AwaitRequest leaves now and `callback`
     * runs on the reader thread with the result -- a failed one when
     * the server refused the await or the connection died (see
     * connected()). Throws WireError when the connection is already
     * down (no callback then).
     */
    void subscribe(runtime::JobId id,
                   CompletionCallback callback) override;
    /** Progress rides the job's NEXT subscribe(): call this first. */
    void subscribeProgress(runtime::JobId id,
                           ProgressCallback callback) override;

    /** Snapshot of the serving runtime's scheduler/pool stats. */
    runtime::ServiceStats stats() const override;
    /** The server's trace dump, in ITS trace clock. */
    runtime::TraceDump traceDump() const override;
    /** The server's trace clock, sampled by one ClockSync round
     *  trip (see clockSync() for the alignment recipe). */
    std::uint64_t traceNowNanos() const override;

    /**
     * Non-blocking submit: the Submit frame is on the wire when this
     * returns (it blocks only on transport backpressure), and `acked`
     * runs on the reader thread with the server's job id -- or with
     * nullopt and the reason when the server refused the job or the
     * connection died (see connected()). Throws WireError when the
     * connection is already down (no callback then).
     */
    void submitAsync(
        const runtime::JobSpec &spec, std::uint64_t trace_id,
        std::function<void(std::optional<runtime::JobId>, std::string)>
            acked);

    /** False once the connection died (every request now fails). */
    bool connected() const;

    /** Pipelined batch submit: all specs are on the wire before the
     *  first reply is read. Ids in argument order. */
    std::vector<runtime::JobId>
    submitAll(std::vector<runtime::JobSpec> specs) override;

    /** Pipelined awaits; results reordered to argument order. */
    std::vector<runtime::JobResult>
    awaitAll(const std::vector<runtime::JobId> &ids) override;

    /**
     * Streaming await: one AwaitRequest per id goes out up front,
     * then (id, result) pairs are returned in COMPLETION order as
     * the server pushes them -- the first finished job is available
     * while the rest still run. The callback overload delivers each
     * pair as it lands instead of collecting.
     */
    std::vector<std::pair<runtime::JobId, runtime::JobResult>>
    awaitMany(const std::vector<runtime::JobId> &ids,
              const ProgressFn &progress = {});
    void awaitStreaming(
        const std::vector<runtime::JobId> &ids,
        const std::function<void(runtime::JobId,
                                 runtime::JobResult)> &deliver,
        const ProgressFn &progress = {});

    /**
     * The trace id this client stamps into every v4 Submit (random
     * per client instance): the server records job lifecycle events
     * under it, so one id names the whole distributed trace.
     */
    std::uint64_t traceId() const { return traceIdValue; }

    /** Start recording ClientSpans (one per submit from here on).
     *  Off by default: the log grows unbounded while enabled. */
    void enableSpans() { spansEnabled.store(true); }
    /** Everything recorded so far (acked spans first). */
    std::vector<ClientSpan> spans() const;

    /**
     * Estimate the server trace clock as an offset from this
     * client's span clock: one ClockSync round trip, reply mapped
     * onto the midpoint. Returns `offset` such that
     * server_nanos ~= client_nanos + offset (docs/observability.md
     * documents the recipe and its half-RTT error bound).
     */
    std::int64_t clockSync();

    /**
     * ONE Chrome/Perfetto trace-event JSON merging the server's
     * on-demand trace dump (clock-shifted into this client's
     * timebase via clockSync(); pid 1) with this client's recorded
     * spans (pid 2). Jobs submitted by this client carry its
     * traceId() in both halves.
     */
    std::string mergedChromeTrace();

    /** Wire traffic of this connection (bytesUp = toward server). */
    core::LinkStats linkStats() const;

    /**
     * Register this client's series with `registry` (quma_client_*
     * family): callbacks read the link meter and reply count under
     * the client mutex at render time. The client must outlive the
     * registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

    /** Hang up (idempotent, callable from any thread): every
     *  in-flight and future request fails with WireError. */
    void disconnect();

  private:
    /** One request's outcome, as the reader saw it. */
    struct Reply
    {
        MsgType type = MsgType::ErrorReply;
        std::vector<std::uint8_t> payload;
        /** Connection-level failure message (empty = none). */
        std::string failure;
    };
    /** Runs on the reader thread (outside mu) with the reply. */
    using ReplyFn = std::function<void(Reply)>;
    /** One request awaiting its reply. */
    struct Slot
    {
        ReplyFn onReply;
        /** Fed the ProgressFrame pushes under its requestId. */
        std::shared_ptr<const ProgressFn> progress;
    };

    /**
     * Register `on_reply` and put the request on the wire; returns
     * its requestId. Thread-safe; concurrent senders are serialized
     * per frame (sendMu), never per round-trip. `progress` and
     * `on_reply` are registered before the request leaves, so no
     * frame under its requestId can outrun them. Throws WireError
     * when the connection is down (then `on_reply` never runs); a
     * failed send takes the whole connection down first.
     */
    std::uint64_t
    sendRequest(MsgType type, const Writer &payload,
                std::shared_ptr<const ProgressFn> progress,
                ReplyFn on_reply) const;
    /** A ReplyFn fulfilling `future`: the blocking calls' way in. */
    static ReplyFn replyInto(std::future<Reply> &future);
    /** Encode spec + trace context (trace 0 = traceId()), record the
     *  client span and send it as a Submit/TrySubmit. */
    void sendSubmit(MsgType type, const runtime::JobSpec &spec,
                    std::uint64_t trace_id, std::uint64_t span_id,
                    ReplyFn on_reply);
    /** submitAll under an explicit trace id. */
    std::vector<runtime::JobId>
    submitBatch(const std::vector<runtime::JobSpec> &specs,
                std::uint64_t trace_id);
    /** sendRequest of an AwaitRequest whose reply goes to on_reply. */
    void awaitAsync(runtime::JobId id,
                    std::shared_ptr<const ProgressFn> progress,
                    ReplyFn on_reply) const;
    /** The shared error mapping (UnknownJob -> fatal, other errors
     *  and connection failures -> WireError, wrong type ->
     *  WireError). */
    static std::vector<std::uint8_t> unwrapReply(Reply reply,
                                                 MsgType expected_reply);
    /** Job `id`'s result from its AwaitReply (unwrapReply's error
     *  mapping). */
    runtime::JobResult takeResult(runtime::JobId id, Reply reply);
    /** A blocking request/reply exchange. */
    std::vector<std::uint8_t> roundTrip(MsgType request,
                                        const Writer &payload,
                                        MsgType expected_reply) const;
    void readerLoop();
    /** Fail every pending request and all future calls (reader
     *  died). */
    void failAll(const std::string &why);
    /** Nanos on this client's span clock (steady, epoch = ctor). */
    std::uint64_t clientNowNanos() const;
    /** Span bookkeeping (no-ops while spans are disabled). */
    void noteSubmitSent(std::uint64_t span_id, std::uint64_t nanos);
    void noteSubmitAcked(std::uint64_t span_id, runtime::JobId id);
    void noteResultDecoded(runtime::JobId id);

    /** Guards slots, nextRequestId, meter, repliesReceived,
     *  readerDown. */
    mutable std::mutex mu;
    /** Serializes frame writes (frames must not interleave). */
    mutable std::mutex sendMu;
    std::unique_ptr<ByteStream> stream;
    /**
     * Requests awaiting their reply, by requestId (the reader invokes
     * callbacks OUTSIDE mu). A push whose request is gone -- late, or
     * for a progress-less await -- simply evaporates: it answers no
     * request, so it can never trip the unsolicited-reply teardown.
     */
    mutable std::unordered_map<std::uint64_t, Slot> slots;
    mutable std::uint64_t nextRequestId = 1;
    mutable bool readerDown = false;
    mutable std::string readerFailure;
    mutable core::LinkMeter meter;
    /** Reply frames routed by the reader. Not the meter's downloads:
     *  progress pushes are downloads too. */
    std::size_t repliesReceived = 0;
    /** subscribeProgress() callbacks waiting for their job's next
     *  subscribe() (guarded by mu). */
    std::unordered_map<runtime::JobId, std::vector<ProgressCallback>>
        progressByJob;

    /** Trace identity + span clock (see traceId()/spans()). */
    const std::uint64_t traceIdValue;
    const std::chrono::steady_clock::time_point epoch{
        std::chrono::steady_clock::now()};
    std::atomic<bool> spansEnabled{false};
    std::atomic<std::uint64_t> nextSpanId{0};
    /** Guards the two span maps (never nested with mu). */
    mutable std::mutex spanMu;
    /** Submit sent, reply not yet decoded: keyed by span id. */
    std::unordered_map<std::uint64_t, ClientSpan> pendingSpans;
    /** Acked (job id known): keyed by job. */
    std::unordered_map<runtime::JobId, ClientSpan> ackedSpans;

    std::thread reader;
};

} // namespace quma::net

#endif // QUMA_NET_CLIENT_HH
