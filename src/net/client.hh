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
 *    directly and awaitAll() reorders to argument order.
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
#include <condition_variable>
#include <functional>
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

    /**
     * Speak the wire protocol over an established stream.
     * @param link_bytes_per_second modeled rate for linkStats()
     */
    explicit QumaClient(std::unique_ptr<ByteStream> stream,
                        double link_bytes_per_second = 30.0e6);

    /** Convenience: connect over TCP (dotted-quad host). */
    QumaClient(const std::string &host, std::uint16_t port);

    ~QumaClient() override;

    // IExperimentBackend surface, forwarded over the wire. The
    // const calls still talk on the wire: connection state is
    // mutable, the observable backend state is not touched.
    runtime::JobId submit(runtime::JobSpec spec) override;
    std::optional<runtime::JobId>
    trySubmit(runtime::JobSpec spec) override;
    runtime::JobStatus status(runtime::JobId id) const override;
    std::optional<runtime::JobResult>
    poll(runtime::JobId id) const override;
    runtime::JobResult await(runtime::JobId id) override;

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

    /** Remote-side cancel of a still-queued job. */
    bool cancel(runtime::JobId id);

    /** Snapshot of the serving runtime's scheduler/pool stats. */
    StatsFrame stats();

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
     * family). The client must outlive the registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

    /** Hang up (idempotent, callable from any thread): every
     *  in-flight and future request fails with WireError. */
    void disconnect();

  private:
    /** One in-flight request's parking spot. */
    struct Slot
    {
        bool ready = false;
        MsgType type = MsgType::ErrorReply;
        std::vector<std::uint8_t> payload;
        /** Connection-level failure message (empty = none). */
        std::string failure;
        /** Arrival rank (awaitStreaming delivers in this order). */
        std::uint64_t seq = 0;
        /**
         * Nobody will ever consume this slot (its batch call threw
         * mid-collection): the reader erases it on arrival instead
         * of treating the reply as unsolicited or leaking it.
         */
        bool abandoned = false;
    };

    /**
     * Register a slot and put the request on the wire; returns the
     * requestId to wait on. Thread-safe; concurrent senders are
     * serialized per frame (sendMu), never per round-trip. A given
     * `progress` handler is registered with the slot, before the
     * request leaves, so no push under its requestId can outrun it.
     */
    std::uint64_t
    sendRequest(MsgType type, const Writer &payload,
                std::shared_ptr<const ProgressFn> progress = nullptr) const;
    /** Park until the reader fulfils the slot; decode error replies
     *  (UnknownJob -> fatal, others -> WireError), check the type. */
    std::vector<std::uint8_t> waitReply(std::uint64_t request_id,
                                        MsgType expected_reply) const;
    /** sendRequest + waitReply, the strict-sequential convenience. */
    std::vector<std::uint8_t> roundTrip(MsgType request,
                                        const Writer &payload,
                                        MsgType expected_reply) const;
    void readerLoop();
    /** Fail every slot and all future calls (reader died). */
    void failAllLocked(const std::string &why);
    /**
     * A batch call is unwinding with replies still outstanding:
     * erase what already arrived, flag the rest so the reader
     * erases them on arrival (late pushes must neither leak in the
     * slot map nor read as unsolicited frames).
     */
    void abandonSlots(const std::uint64_t *rids,
                      std::size_t count) const;
    /** Slot -> payload with the shared error mapping applied. */
    std::vector<std::uint8_t> consumeSlotLocked(
        std::uint64_t request_id, MsgType expected_reply) const;
    /** Nanos on this client's span clock (steady, epoch = ctor). */
    std::uint64_t clientNowNanos() const;
    /** Span bookkeeping (no-ops while spans are disabled). */
    void noteSubmitSent(std::uint64_t rid, std::uint64_t span_id,
                        std::uint64_t nanos);
    void noteSubmitAcked(std::uint64_t rid, runtime::JobId id);
    void noteResultDecoded(runtime::JobId id);

    /** Guards slots, nextRequestId, meter, readerDown. */
    mutable std::mutex mu;
    /** Broadcast whenever the reader fulfils any slot. */
    mutable std::condition_variable cvSlots;
    /** Serializes frame writes (frames must not interleave). */
    mutable std::mutex sendMu;
    std::unique_ptr<ByteStream> stream;
    mutable std::unordered_map<std::uint64_t, Slot> slots;
    mutable std::uint64_t nextRequestId = 1;
    /** Monotone arrival counter stamped onto fulfilled slots. */
    mutable std::uint64_t arrivalSeq = 0;
    mutable bool readerDown = false;
    mutable std::string readerFailure;
    mutable core::LinkMeter meter;
    /**
     * ProgressFrame routing, by the awaiting requestId (guarded by
     * mu; handlers invoked OUTSIDE it on the reader thread, hence
     * the shared_ptr copy). A push with no handler -- late, or for
     * a progress-less await -- simply evaporates: unlike a result
     * reply, a ProgressFrame answers no request 1:1, so it can
     * never trip the unsolicited-reply teardown.
     */
    mutable std::unordered_map<std::uint64_t,
                               std::shared_ptr<const ProgressFn>>
        progressHandlers;

    /** Trace identity + span clock (see traceId()/spans()). */
    const std::uint64_t traceIdValue;
    const std::chrono::steady_clock::time_point epoch{
        std::chrono::steady_clock::now()};
    std::atomic<bool> spansEnabled{false};
    std::atomic<std::uint64_t> nextSpanId{0};
    /** Guards the two span maps (never nested with mu). */
    mutable std::mutex spanMu;
    /** Submit sent, reply not yet decoded: keyed by requestId. */
    std::unordered_map<std::uint64_t, ClientSpan> pendingSpans;
    /** Acked (job id known): keyed by job. */
    std::unordered_map<runtime::JobId, ClientSpan> ackedSpans;

    /** Metric handles; no-ops until bound. Mutable: the const
     *  request surface still counts its traffic. */
    struct Instruments
    {
        metrics::Counter requestsSent;
        metrics::Counter repliesReceived;
    };
    mutable Instruments ms;

    std::thread reader;
};

} // namespace quma::net

#endif // QUMA_NET_CLIENT_HH
