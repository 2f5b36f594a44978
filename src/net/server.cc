#include "net/server.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "common/logging.hh"

namespace quma::net {

namespace {

/**
 * Thrown when a liveness probe finds the client gone mid-request.
 * Deliberately NOT a std::exception: it must fly through the
 * per-request error-reply catches straight to the connection's
 * disconnect handling (there is nobody left to send a reply to).
 */
struct ConnectionLost
{
};

} // namespace

// --- Outbox -----------------------------------------------------------------

bool
QumaServer::Outbox::push(OutFrame entry)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closed)
            return false;
        if (frames.size() >= limit) {
            // Slow-consumer overflow: the peer requests but never
            // reads. Close (dropping the backlog) -- the writer's
            // pop sees it and tears the stream down, which wakes
            // the reader into the disconnect handling.
            closed = true;
            frames.clear();
            cv.notify_all();
            return false;
        }
        frames.push_back(std::move(entry));
    }
    // notify_all: the cv is shared by the writer's pop AND a
    // teardown drainFor; waking only one could park the writer
    // behind a drain waiter and stall (then drop) this frame.
    cv.notify_all();
    return true;
}

std::optional<QumaServer::OutFrame>
QumaServer::Outbox::pop()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return closed || !frames.empty(); });
    if (closed)
        return std::nullopt;
    OutFrame entry = std::move(frames.front());
    frames.pop_front();
    sending = true;
    return entry;
}

void
QumaServer::Outbox::sent()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        sending = false;
    }
    // Wake a drainFor() waiter watching the queue empty out.
    cv.notify_all();
}

void
QumaServer::Outbox::drainFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, timeout, [this] {
        return closed || (frames.empty() && !sending);
    });
}

void
QumaServer::Outbox::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
        frames.clear();
    }
    cv.notify_all();
}

// --- ConnState --------------------------------------------------------------

void
QumaServer::ConnState::noteSubmitted(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    submitted.insert(id);
}

void
QumaServer::ConnState::noteDelivered(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    submitted.erase(id);
}

bool
QumaServer::ConnState::owns(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    return submitted.count(id) > 0;
}

std::vector<runtime::JobId>
QumaServer::ConnState::takeSubmitted()
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<runtime::JobId> ids(submitted.begin(),
                                    submitted.end());
    submitted.clear();
    return ids;
}

void
QumaServer::ConnState::closeStream()
{
    std::lock_guard<std::mutex> lock(mu);
    if (stream)
        stream->close();
}

// --- QumaServer -------------------------------------------------------------

QumaServer::QumaServer(runtime::IExperimentBackend &backend_,
                       std::unique_ptr<Listener> listener_,
                       ServerConfig config)
    : backend(backend_), listener(std::move(listener_)), cfg(config)
{
    if (!listener)
        fatal("QumaServer needs a listener");
    if (!cfg.captureDir.empty() &&
        ::mkdir(cfg.captureDir.c_str(), 0755) != 0 &&
        errno != EEXIST)
        fatal("capture: cannot create directory '", cfg.captureDir,
              "': ", std::strerror(errno));
    acceptor = std::thread([this] { acceptLoop(); });
}

QumaServer::~QumaServer()
{
    stop();
}

void
QumaServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopped)
            return;
        stopped = true;
    }
    // Unblock the accept loop, then every connection: closing the
    // stream unblocks the reader's recv, closing the outbox unblocks
    // the writer's pop.
    listener->close();
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto &conn : connections) {
            conn->stream->close();
            conn->state->outbox.close();
        }
    }
    // Join the acceptor first: after it no new connection can start.
    if (acceptor.joinable())
        acceptor.join();
    // Deterministic teardown: every serving thread is joined before
    // stop() returns -- nothing detached survives the server.
    reapConnections(/*join_all=*/true);
}

QumaServer::Stats
QumaServer::stats() const
{
    // ONE lock acquisition covers the whole snapshot: counters, the
    // live connections' streamed counts (atomics -- no per-connection
    // mutex nests in here) and the meter all sit behind mu, so the
    // fields of the returned Stats are mutually consistent.
    std::lock_guard<std::mutex> lock(mu);
    Stats s = counters;
    // counters only absorbs a connection's streamed count when it
    // ends (and zeroes it there); live connections contribute here,
    // so a long-lived client's pushes are visible mid-session.
    for (const auto &conn : connections) {
        s.resultsStreamed +=
            conn->state->streamed.load(std::memory_order_relaxed);
        s.progressFramesPushed +=
            conn->state->progressPushed.load(
                std::memory_order_relaxed);
    }
    s.link = meter.stats();
    return s;
}

std::size_t
QumaServer::queuedReplyFrames() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::size_t depth = 0;
    // mu -> outbox.mu nests only here and never in reverse (outbox
    // operations elsewhere run without the server mutex held).
    for (const auto &conn : connections) {
        Outbox &box = conn->state->outbox;
        std::lock_guard<std::mutex> block(box.mu);
        depth += box.frames.size();
    }
    return depth;
}

void
QumaServer::bindMetrics(metrics::MetricsRegistry &registry)
{
    registry.counterFn(
        "quma_server_connections_accepted_total",
        "Connections accepted by the serving listener.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.connectionsAccepted);
        });
    registry.gaugeFn(
        "quma_server_connections_active",
        "Connections currently being served.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.connectionsActive);
        });
    registry.counterFn(
        "quma_server_requests_served_total",
        "Request frames fully received and dispatched.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.requestsServed);
        });
    static constexpr const char *kTypeNames[10] = {
        "other", "submit",     "try_submit", "status", "poll",
        "await", "stats",      "cancel",     "clock_sync",
        "trace_dump"};
    for (std::size_t t = 0; t < std::size(kTypeNames); ++t)
        registry.counterFn(
            "quma_server_requests_total",
            "Requests served, by wire frame type.",
            {{"type", kTypeNames[t]}}, [this, t] {
                std::lock_guard<std::mutex> lock(mu);
                return static_cast<double>(counters.requestsByType[t]);
            });
    registry.counterFn(
        "quma_server_errors_returned_total",
        "Requests answered with an ErrorReply frame.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.errorsReturned);
        });
    registry.counterFn(
        "quma_server_disconnect_cancelled_jobs_total",
        "Queued jobs cancelled because their client vanished.", {},
        [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(
                counters.jobsCancelledOnDisconnect);
        });
    registry.counterFn(
        "quma_server_results_streamed_total",
        "AwaitReply frames pushed by completion subscriptions.", {},
        [this] {
            return static_cast<double>(stats().resultsStreamed);
        });
    registry.counterFn(
        "quma_server_progress_frames_total",
        "ProgressFrame pushes delivered to v4 peers.", {}, [this] {
            return static_cast<double>(stats().progressFramesPushed);
        });
    registry.gaugeFn(
        "quma_server_outbox_frames",
        "Reply frames queued across live connections' outboxes.", {},
        [this] { return static_cast<double>(queuedReplyFrames()); });
    registry.counterFn("quma_link_bytes_total",
                       "Wire traffic through the serving link meter.",
                       {{"direction", "up"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesUp);
                       });
    registry.counterFn("quma_link_bytes_total",
                       "Wire traffic through the serving link meter.",
                       {{"direction", "down"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesDown);
                       });
    registry.counterFn(
        "quma_link_seconds_total",
        "Modeled transfer time at the configured link rate.",
        {{"direction", "up"}}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return meter.stats().secondsUp;
        });
    registry.counterFn(
        "quma_link_seconds_total",
        "Modeled transfer time at the configured link rate.",
        {{"direction", "down"}}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return meter.stats().secondsDown;
        });
}

bool
QumaServer::stopping() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stopped;
}

void
QumaServer::reapConnections(bool join_all)
{
    // Joining can briefly block (a finishing reader still cancelling
    // jobs), so never join while holding mu: move the candidates out
    // first.
    std::vector<std::unique_ptr<Connection>> reaped;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto split = std::partition(
            connections.begin(), connections.end(),
            [join_all](const std::unique_ptr<Connection> &c) {
                return !join_all && !c->finished;
            });
        for (auto it = split; it != connections.end(); ++it)
            reaped.push_back(std::move(*it));
        connections.erase(split, connections.end());
    }
    for (auto &conn : reaped)
        if (conn->reader.joinable())
            conn->reader.join();
}

void
QumaServer::acceptLoop()
{
    for (;;) {
        std::unique_ptr<ByteStream> stream = listener->accept();
        if (!stream)
            return;
        // Reclaim connections whose reader already finished, so a
        // long-lived server's tracking stays proportional to the
        // LIVE connection count, not the historical one.
        reapConnections(/*join_all=*/false);
        std::lock_guard<std::mutex> lock(mu);
        if (stopped) {
            stream->close();
            return;
        }
        auto conn = std::make_unique<Connection>();
        conn->stream = std::move(stream);
        conn->state = std::make_shared<ConnState>();
        conn->state->outbox.limit = cfg.maxQueuedReplyFrames;
        if (!cfg.captureDir.empty()) {
            // Named by the accept sequence number: captures line up
            // with quma_server_connections_accepted_total and never
            // collide across a server's lifetime.
            const std::string path =
                cfg.captureDir + "/conn-" +
                std::to_string(counters.connectionsAccepted + 1) +
                ".qcap";
            try {
                conn->state->capture =
                    std::make_shared<CaptureWriter>(path);
            } catch (const FatalError &ex) {
                // Serve without the recording rather than refusing
                // the client: capture is a diagnostic aid.
                warn("capture disabled for connection: ", ex.what());
            }
        }
        Connection *raw = conn.get();
        ++counters.connectionsAccepted;
        ++counters.connectionsActive;
        try {
            conn->reader =
                std::thread([this, raw] { serveConnection(*raw); });
        } catch (const std::exception &ex) {
            // Thread exhaustion must not strand the active count or
            // terminate the acceptor; drop just this connection and
            // keep serving.
            warn("serving thread spawn failed: ", ex.what());
            --counters.connectionsActive;
            continue;
        }
        connections.push_back(std::move(conn));
    }
}

void
QumaServer::writerLoop(ByteStream &stream, ConnState &state)
{
    while (std::optional<OutFrame> entry = state.outbox.pop()) {
        try {
            if (entry->result) {
                // Deferred streamed result: encode HERE, on this
                // connection's own thread, so the scheduler's one
                // notifier thread never serializes every
                // connection's wire encoding behind one core.
                Writer w;
                encodeJobResult(w, *entry->result);
                entry->frame =
                    sealFrame(MsgType::AwaitReply, entry->requestId, w);
                entry->result.reset();
            }
            stream.sendAll(entry->frame.data(),
                           entry->frame.size());
        } catch (const std::exception &) {
            // Dead peer: stop writing and wake the reader (its recv
            // sees the closed stream), which runs the disconnect
            // handling.
            state.outbox.sent();
            state.outbox.close();
            stream.close();
            return;
        }
        state.outbox.sent();
        if (state.capture)
            state.capture->record(CaptureRecordType::Outbound,
                                  entry->frame.data(),
                                  entry->frame.size());
        std::lock_guard<std::mutex> lock(mu);
        meter.record(entry->frame.size(), false);
    }
    // Closed outbox (teardown, or slow-consumer overflow): make sure
    // the reader is not left parked in recv on a connection nobody
    // will write to again. Idempotent on the normal teardown path.
    stream.close();
}

void
QumaServer::serveConnection(Connection &conn)
{
    ByteStream &stream = *conn.stream;
    ConnState &state = *conn.state;
    {
        // Publish the stream for the overflow teardown hook.
        std::lock_guard<std::mutex> lock(state.mu);
        state.stream = &stream;
    }
    // The writer is owned (and joined) by this reader thread; the
    // outbox is the only coupling between them.
    std::thread writer([this, &stream, &state] {
        writerLoop(stream, state);
    });
    try {
        while (serveRequest(stream, conn.state)) {
        }
    } catch (const ConnectionLost &) {
        // Liveness probe saw the client go: straight to cleanup.
    } catch (const std::exception &) {
        // Dead or misbehaving peer: fall through to the disconnect
        // handling. The connection is gone either way.
    }
    // Let the writer flush farewell frames (a VersionMismatch or
    // Shutdown error the peer should still see) -- bounded, because
    // the peer may be gone -- then close: outbox first (ends the
    // writer's pop), stream second (unblocks a wedged sendAll).
    state.outbox.drainFor(std::chrono::milliseconds(500));
    state.outbox.close();
    stream.close();
    writer.join();
    {
        // The stream is about to die with this connection: no late
        // pusher may touch it through the hook anymore.
        std::lock_guard<std::mutex> lock(state.mu);
        state.stream = nullptr;
    }

    // Cancel the connection's undelivered queued jobs: the only
    // party that could read their results just vanished. Running
    // work is never interrupted (cancel refuses it); a job whose
    // result was already streamed is no longer in the set.
    std::size_t cancelled = 0;
    for (runtime::JobId id : state.takeSubmitted())
        if (backend.cancel(id))
            ++cancelled;

    std::lock_guard<std::mutex> lock(mu);
    counters.jobsCancelledOnDisconnect += cancelled;
    // Absorb (and zero) the streamed count so stats() -- which also
    // sums live connections -- never counts a finished-but-unreaped
    // connection twice.
    counters.resultsStreamed +=
        state.streamed.exchange(0, std::memory_order_relaxed);
    counters.progressFramesPushed +=
        state.progressPushed.exchange(0, std::memory_order_relaxed);
    --counters.connectionsActive;
    conn.finished = true;
}

void
QumaServer::queueFrame(ConnState &state, MsgType type,
                       std::uint64_t request_id, const Writer &payload)
{
    if (!state.outbox.push(
            {sealFrame(type, request_id, payload), nullptr, 0})) {
        // Closed -- normal teardown, or a slow-consumer overflow
        // that just closed it. Closing the stream (idempotent)
        // guarantees the wedged writer and the reader both unblock
        // into the disconnect handling either way.
        state.closeStream();
    }
}

void
QumaServer::queueError(ConnState &state, std::uint64_t request_id,
                       WireErrorCode code, const std::string &message)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.errorsReturned;
    }
    Writer w;
    encodeErrorFrame(w, ErrorFrame{code, message});
    queueFrame(state, MsgType::ErrorReply, request_id, w);
}

bool
QumaServer::serveRequest(ByteStream &stream,
                         const std::shared_ptr<ConnState> &state)
{
    // Read the version-independent prefix FIRST: a legacy v1 frame
    // can be shorter than the v2 header (a 12-byte StatsRequest has
    // no payload at all), and blocking for v2-header bytes the peer
    // will never send would hang both ends instead of diagnosing.
    std::uint8_t header[kFrameHeaderBytes];
    if (!stream.recvAll(header, kFrameHeaderPrefixBytes))
        return false; // clean EOF between frames
    try {
        checkFramePrefix(header);
    } catch (const WireVersionError &ex) {
        // A legacy (or future) peer: its framing is foreign -- v1
        // frames have no requestId at all -- so this connection
        // cannot be served, but the bytes read are enough to know
        // WHY. Tell the peer on the connection-level id, then hang
        // up (the writer flushes the outbox before the reader's
        // close drops the stream).
        queueError(*state, kConnectionRequestId,
                   WireErrorCode::VersionMismatch, ex.what());
        return false;
    }
    // Our version: the rest of the header is on the way.
    if (!stream.recvAll(header + kFrameHeaderPrefixBytes,
                        kFrameHeaderBytes - kFrameHeaderPrefixBytes))
        throw WireError("connection closed mid-header");
    FrameHeader fh = decodeFrameHeaderUnchecked(header);
    std::vector<std::uint8_t> payload(fh.length);
    if (fh.length > 0 &&
        !stream.recvAll(payload.data(), payload.size()))
        throw WireError("connection closed mid-frame");
    if (state->capture) {
        // Record only FULLY received frames (header + payload), so a
        // capture replays cleanly: a request torn by a dying client
        // was never served and must not be re-driven either.
        std::vector<std::uint8_t> frame(header,
                                        header + sizeof(header));
        frame.insert(frame.end(), payload.begin(), payload.end());
        state->capture->record(CaptureRecordType::Inbound,
                               frame.data(), frame.size());
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        meter.record(sizeof(header) + payload.size(), true);
        ++counters.requestsServed;
        auto type = static_cast<std::size_t>(fh.type);
        ++counters
              .requestsByType[type < counters.requestsByType.size()
                                  ? type
                                  : 0];
    }

    Reader r(payload);
    try {
        return dispatchRequest(stream, state, fh, r);
    } catch (const WireError &ex) {
        // The frame itself was fully received -- framing is intact,
        // only this payload was malformed. That is the client's bug:
        // answer it and keep the connection (tearing it down would
        // also cancel the client's other queued jobs).
        queueError(*state, fh.requestId, WireErrorCode::BadRequest,
                   ex.what());
        return true;
    }
}

bool
QumaServer::dispatchRequest(ByteStream &stream,
                            const std::shared_ptr<ConnState> &state,
                            const FrameHeader &header, Reader &r)
{
    // How long a blocking submit may hold the reader before it
    // rechecks stop(): bounds shutdown latency without polling hot.
    constexpr std::chrono::milliseconds kStopCheck{50};
    const std::uint64_t rid = header.requestId;

    switch (header.type) {
    case MsgType::SubmitRequest:
    case MsgType::TrySubmitRequest: {
        const bool blocking = header.type == MsgType::SubmitRequest;
        runtime::JobSpec spec = decodeJobSpec(r);
        // The client's trace context follows the spec, so
        // decodeJobSpec (and with it the journal record format)
        // stays independent of it. The submit ties the job's
        // lifecycle events to that trace, so one merged dump shows
        // both sides (no-op while tracing is off).
        TraceContext tc = decodeTraceContext(r);
        r.expectEnd();
        try {
            std::optional<runtime::JobId> id;
            if (!blocking)
                id = backend.trySubmit(std::move(spec), tc.traceId);
            // Interruptible submit: a queue that stays at the hard
            // bound must not wedge stop() -- or a vanished client's
            // disconnect handling -- behind this thread. This is the
            // one deliberately blocking request: backpressure from a
            // full queue is supposed to slow the pipelining client
            // down.
            while (blocking &&
                   !(id = backend.submitFor(spec, kStopCheck, tc.traceId))) {
                if (stopping()) {
                    queueError(*state, rid, WireErrorCode::Shutdown,
                               "server stopping");
                    return false;
                }
                if (!stream.peerAlive())
                    throw ConnectionLost{};
            }
            if (id)
                state->noteSubmitted(*id);
            Writer w;
            if (!blocking)
                w.boolean(id.has_value());
            w.u64(id.value_or(0));
            queueFrame(*state,
                       blocking ? MsgType::SubmitReply
                                : MsgType::TrySubmitReply,
                       rid, w);
            // (ConnectionLost is not a std::exception by design: it
            // flies past the handler below to the disconnect path.)
        } catch (const std::exception &ex) {
            queueError(*state, rid, WireErrorCode::Internal,
                       ex.what());
        }
        return true;
    }
    case MsgType::StatusRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            runtime::JobStatus st = backend.status(id);
            Writer w;
            w.u8(static_cast<std::uint8_t>(st));
            queueFrame(*state, MsgType::StatusReply, rid, w);
        } catch (const std::exception &ex) {
            queueError(*state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::PollRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            std::optional<runtime::JobResult> result =
                backend.poll(id);
            Writer w;
            w.boolean(result.has_value());
            if (result)
                encodeJobResult(w, *result);
            queueFrame(*state, MsgType::PollReply, rid, w);
            // Result delivered: nothing left for disconnect-cancel
            // to protect, and the per-connection id tracking must
            // not grow for the lifetime of a busy connection.
            if (result)
                state->noteDelivered(id);
        } catch (const std::exception &ex) {
            // Unknown to the scheduler (likely aged out of result
            // retention): dead weight in the tracking set too.
            state->noteDelivered(id);
            queueError(*state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::AwaitRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            // The streaming path: no blocking, no polling. The
            // completion callback runs on the scheduler's notifier
            // thread and holds the connection state WEAKLY -- if the
            // connection is gone by the time the job finishes, the
            // push finds a closed outbox (or nothing at all) and
            // evaporates without touching the server.
            std::weak_ptr<ConnState> weak = state;
            // Rate-limited progress pushes ride the await's
            // requestId. Best-effort by contract (an already-finished
            // job simply gets none), and sealed frames -- not
            // deferred entries -- because a progress payload is three
            // u64s: encoding on the notifier thread is cheaper than a
            // writer-side deferral round trip.
            backend.subscribeProgress(
                id, [weak, rid](runtime::JobId job, std::size_t done,
                                std::size_t total) {
                    std::shared_ptr<ConnState> st = weak.lock();
                    if (!st)
                        return;
                    Writer w;
                    encodeProgressFrame(
                        w, ProgressFrameData{job, done, total});
                    if (st->outbox.push(
                            {sealFrame(MsgType::ProgressFrame, rid, w),
                             nullptr, 0}))
                        st->progressPushed.fetch_add(
                            1, std::memory_order_relaxed);
                    else
                        // Dead or overflowed connection: the push
                        // evaporated; unwedge its threads
                        // (idempotent).
                        st->closeStream();
                });
            backend.subscribe(
                id,
                [weak, rid, id](
                    runtime::JobId,
                    std::shared_ptr<const runtime::JobResult>
                        result) {
                    std::shared_ptr<ConnState> st = weak.lock();
                    if (!st)
                        return;
                    // Hand the shared result straight to the
                    // connection's writer (which encodes it): the
                    // notifier thread stays cheap no matter how
                    // large the result or how many connections
                    // stream concurrently.
                    if (st->outbox.push(
                            {{}, std::move(result), rid})) {
                        {
                            std::lock_guard<std::mutex> lock(st->mu);
                            st->submitted.erase(id);
                        }
                        st->streamed.fetch_add(
                            1, std::memory_order_relaxed);
                    } else {
                        // Dead or overflowed connection: make sure
                        // its threads unwedge (idempotent; no-op
                        // once the reader cleared the hook).
                        st->closeStream();
                    }
                });
        } catch (const std::exception &ex) {
            state->noteDelivered(id); // unknown/aged out: dead weight
            queueError(*state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::ClockSyncRequest: {
        r.expectEnd();
        // The clock-alignment handshake: the client brackets this
        // round trip with its own steady clock and maps the reply
        // onto the midpoint (docs/observability.md). Answered inline
        // on the reader, so queueing delay stays out of the sample.
        Writer w;
        encodeClockSyncFrame(w, ClockSyncFrame{backend.traceNowNanos()});
        queueFrame(*state, MsgType::ClockSyncReply, rid, w);
        return true;
    }
    case MsgType::TraceDumpRequest: {
        r.expectEnd();
        // On-demand trace dump: raw events (server timebase), the
        // job->traceId associations, and the drop count. Raw rather
        // than rendered JSON so the client can clock-shift and merge
        // with its own spans.
        Writer w;
        encodeTraceDumpFrame(w, backend.traceDump());
        queueFrame(*state, MsgType::TraceDumpReply, rid, w);
        return true;
    }
    case MsgType::StatsRequest: {
        r.expectEnd();
        Writer w;
        encodeStatsFrame(w, backend.stats());
        queueFrame(*state, MsgType::StatsReply, rid, w);
        return true;
    }
    case MsgType::CancelRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        // Ownership check: a connection may only cancel jobs it
        // submitted itself -- ids are a guessable global sequence,
        // and cancelling another client's queued work would corrupt
        // that client's awaits.
        bool ok = state->owns(id) && backend.cancel(id);
        if (ok)
            state->noteDelivered(id);
        Writer w;
        w.boolean(ok);
        queueFrame(*state, MsgType::CancelReply, rid, w);
        return true;
    }
    default:
        // A reply type arriving as a request is a protocol
        // violation; tell the peer and keep the connection (the
        // framing is still intact).
        queueError(*state, rid, WireErrorCode::BadRequest,
                   "frame type " +
                       std::to_string(static_cast<std::uint16_t>(
                           header.type)) +
                       " is not a request");
        return true;
    }
}

} // namespace quma::net
