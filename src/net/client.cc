#include "net/client.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <random>

#include "common/logging.hh"
#include "runtime/trace.hh"

namespace quma::net {

namespace {

/** Run a reply callback on the reader thread: a throwing callback is
 *  logged, never allowed to take the connection down. */
template <typename Fn, typename Reply>
void
invokeReply(const Fn &fn, Reply reply)
{
    try {
        fn(std::move(reply));
    } catch (const std::exception &ex) {
        warn("reply callback threw: ", ex.what());
    }
}

/** A fresh non-zero trace id per client instance (0 = "no trace"
 *  on the wire, so it is never handed out). */
std::uint64_t
randomTraceId()
{
    std::random_device rd;
    const std::uint64_t v =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    return v ? v : 1;
}

} // namespace

QumaClient::QumaClient(std::unique_ptr<ByteStream> stream_)
    : stream(std::move(stream_)), traceIdValue(randomTraceId())
{
    if (!stream)
        fatal("QumaClient needs a connected stream");
    reader = std::thread([this] { readerLoop(); });
}

QumaClient::QumaClient(const std::string &host, std::uint16_t port)
    : QumaClient(tcpConnect(host, port))
{
}

QumaClient::~QumaClient()
{
    disconnect();
    if (reader.joinable())
        reader.join();
}

void
QumaClient::disconnect()
{
    // Deliberately NOT under mu: close() is what unblocks the reader
    // thread's recv (which then fails every parked request), and
    // ByteStream::close is thread-safe and idempotent. The stream
    // pointer itself is never reseated after construction.
    stream->close();
}

core::LinkStats
QumaClient::linkStats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return meter.stats();
}

std::uint64_t
QumaClient::clientNowNanos() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
QumaClient::noteSubmitSent(std::uint64_t span_id, std::uint64_t nanos)
{
    if (!spansEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    ClientSpan span;
    span.spanId = span_id;
    span.submitNanos = nanos;
    pendingSpans[span_id] = span;
}

void
QumaClient::noteSubmitAcked(std::uint64_t span_id, runtime::JobId id)
{
    if (!spansEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    auto it = pendingSpans.find(span_id);
    if (it == pendingSpans.end())
        return;
    ClientSpan span = it->second;
    pendingSpans.erase(it);
    span.job = id;
    span.ackNanos = clientNowNanos();
    ackedSpans[id] = span;
}

void
QumaClient::noteResultDecoded(runtime::JobId id)
{
    if (!spansEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    auto it = ackedSpans.find(id);
    if (it != ackedSpans.end() && it->second.resultNanos == 0)
        it->second.resultNanos = clientNowNanos();
}

std::vector<QumaClient::ClientSpan>
QumaClient::spans() const
{
    std::lock_guard<std::mutex> lock(spanMu);
    std::vector<ClientSpan> out;
    out.reserve(ackedSpans.size() + pendingSpans.size());
    for (const auto &[id, span] : ackedSpans)
        out.push_back(span);
    for (const auto &[spanId, span] : pendingSpans)
        out.push_back(span);
    return out;
}

bool
QumaClient::connected() const
{
    std::lock_guard<std::mutex> lock(mu);
    return !readerDown;
}

void
QumaClient::failAll(const std::string &why)
{
    std::unordered_map<std::uint64_t, Slot> pending;
    {
        std::lock_guard<std::mutex> lock(mu);
        readerDown = true;
        readerFailure = why;
        pending.swap(slots);
    }
    // Outside mu: a callback may call back into this client.
    for (auto &[rid, slot] : pending)
        invokeReply(slot.onReply, Reply{MsgType::ErrorReply, {}, why});
}

void
QumaClient::readerLoop()
{
    try {
        for (;;) {
            std::uint8_t header[kFrameHeaderBytes];
            if (!stream->recvAll(header, sizeof(header)))
                throw WireError("server hung up");
            FrameHeader fh = decodeFrameHeader(header);
            std::vector<std::uint8_t> body(fh.length);
            if (fh.length > 0 &&
                !stream->recvAll(body.data(), body.size()))
                throw WireError("connection closed mid-frame");

            if (frameKind(fh.type) == FrameKind::Push) {
                // Server-push progress: routed by the await's
                // requestId, BEFORE the unsolicited-reply check --
                // a push answers no request, so one landing after
                // its await finished (or for an await without a
                // callback) just evaporates.
                std::shared_ptr<const ProgressFn> handler;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    meter.record(sizeof(header) + body.size(),
                                 false);
                    auto it = slots.find(fh.requestId);
                    if (it != slots.end())
                        handler = it->second.progress;
                }
                if (!handler)
                    continue;
                Reader r(body);
                ProgressFrameData p = decodeProgressFrame(r);
                r.expectEnd();
                try {
                    // Outside mu: the callback may call back into
                    // this client without deadlock.
                    (*handler)(p.job, p.roundsDone, p.roundsTotal);
                } catch (const std::exception &ex) {
                    warn("progress callback threw: ", ex.what());
                }
                continue;
            }
            if (frameKind(fh.type) != FrameKind::Reply)
                throw WireError("request frame type " +
                                std::to_string(static_cast<std::uint16_t>(
                                    fh.type)) +
                                " from the server");

            ReplyFn deliver;
            {
                std::lock_guard<std::mutex> lock(mu);
                meter.record(sizeof(header) + body.size(), false);
                ++repliesReceived;
                if (fh.requestId == kConnectionRequestId) {
                    // A frame answering no request is the server
                    // talking about the CONNECTION (version mismatch
                    // and kin): nothing on it can be trusted further.
                    std::string why = "connection-level server error";
                    if (fh.type == MsgType::ErrorReply) {
                        try {
                            Reader r(body);
                            ErrorFrame e = decodeErrorFrame(r);
                            why = "server: " + e.message;
                        } catch (const std::exception &) {
                        }
                    }
                    throw WireError(why);
                }
                auto it = slots.find(fh.requestId);
                if (it == slots.end())
                    // A reply nobody asked for: the demux contract is
                    // broken, and with it every routing guarantee.
                    throw WireError("unsolicited reply for request id " +
                                    std::to_string(fh.requestId));
                // A reply ends its exchange: later pushes under this
                // requestId are late by definition and drop.
                deliver = std::move(it->second.onReply);
                slots.erase(it);
            }
            // Outside mu, like progress handlers.
            invokeReply(deliver, Reply{fh.type, std::move(body), {}});
        }
    } catch (const std::exception &ex) {
        failAll(ex.what());
    }
}

std::uint64_t
QumaClient::sendRequest(MsgType type, const Writer &payload,
                        std::shared_ptr<const ProgressFn> progress,
                        ReplyFn on_reply) const
{
    std::uint64_t rid;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (readerDown)
            throw WireError("connection is down: " + readerFailure);
        rid = nextRequestId++;
        slots.emplace(rid, Slot{std::move(on_reply), std::move(progress)});
    }
    std::vector<std::uint8_t> frame = sealFrame(type, rid, payload);
    try {
        // Frames from concurrent callers must not interleave; only
        // the byte write is serialized, never a round-trip.
        std::lock_guard<std::mutex> lock(sendMu);
        stream->sendAll(frame.data(), frame.size());
    } catch (const std::exception &ex) {
        // A failed send leaves the stream mid-frame: the connection
        // is dead for every request. Mark it down before the reader
        // (possibly still blocked in recv) notices, so connected()
        // already reads false, then wake the reader to fail the rest.
        bool reported;
        {
            std::lock_guard<std::mutex> lock(mu);
            if (!readerDown) {
                readerDown = true;
                readerFailure = ex.what();
            }
            // A request the dying reader already failed has reported
            // its outcome: exactly one report per request.
            reported = slots.erase(rid) == 0;
        }
        stream->close();
        if (reported)
            return rid;
        throw;
    }
    std::lock_guard<std::mutex> lock(mu);
    // One upload per request: the meter's uploads count requests.
    meter.record(frame.size(), true);
    return rid;
}

void
QumaClient::bindMetrics(metrics::MetricsRegistry &registry)
{
    registry.counterFn("quma_client_requests_sent_total",
                       "Request frames put on the wire by this client.",
                       {}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().uploads);
                       });
    registry.counterFn("quma_client_replies_received_total",
                       "Reply frames routed by this client's reader.",
                       {}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(repliesReceived);
                       });
    registry.gaugeFn("quma_client_inflight_requests",
                     "Requests awaiting their reply slot.", {},
                     [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return static_cast<double>(slots.size());
                     });
    registry.counterFn("quma_client_link_bytes_total",
                       "Wire traffic of this connection.",
                       {{"direction", "up"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesUp);
                       });
    registry.counterFn("quma_client_link_bytes_total",
                       "Wire traffic of this connection.",
                       {{"direction", "down"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesDown);
                       });
}

std::vector<std::uint8_t>
QumaClient::unwrapReply(Reply reply, MsgType expected_reply)
{
    if (!reply.failure.empty())
        throw WireError(reply.failure);
    if (reply.type == MsgType::ErrorReply) {
        Reader r(reply.payload);
        ErrorFrame e = decodeErrorFrame(r);
        r.expectEnd();
        // Unknown ids mirror the local scheduler's fatal(); every
        // other server-side failure is a wire-level error.
        if (e.code == WireErrorCode::UnknownJob)
            fatal("remote: ", e.message);
        throw WireError("server error " +
                        std::to_string(
                            static_cast<std::uint16_t>(e.code)) +
                        ": " + e.message);
    }
    if (reply.type != expected_reply)
        throw WireError("unexpected reply type " +
                        std::to_string(static_cast<std::uint16_t>(
                            reply.type)));
    return std::move(reply.payload);
}

QumaClient::ReplyFn
QumaClient::replyInto(std::future<Reply> &future)
{
    auto promise = std::make_shared<std::promise<Reply>>();
    future = promise->get_future();
    return [promise](Reply reply) { promise->set_value(std::move(reply)); };
}

runtime::JobResult
QumaClient::takeResult(runtime::JobId id, Reply reply)
{
    std::vector<std::uint8_t> body =
        unwrapReply(std::move(reply), MsgType::AwaitReply);
    Reader r(body);
    runtime::JobResult result = decodeJobResult(r);
    r.expectEnd();
    noteResultDecoded(id);
    return result;
}

std::vector<std::uint8_t>
QumaClient::roundTrip(MsgType request, const Writer &payload,
                      MsgType expected_reply) const
{
    std::future<Reply> reply;
    sendRequest(request, payload, nullptr, replyInto(reply));
    return unwrapReply(reply.get(), expected_reply);
}

void
QumaClient::sendSubmit(MsgType type, const runtime::JobSpec &spec,
                       std::uint64_t trace_id, std::uint64_t span_id,
                       ReplyFn on_reply)
{
    Writer w;
    encodeJobSpec(w, spec);
    // v4: the trace context rides AFTER the spec, so the spec codec
    // (shared with the server's journal) stays format-stable.
    encodeTraceContext(
        w, TraceContext{trace_id ? trace_id : traceIdValue, span_id});
    // Noted before sending: an async ack may land before the send
    // returns.
    noteSubmitSent(span_id, clientNowNanos());
    try {
        sendRequest(type, w, nullptr, std::move(on_reply));
    } catch (...) {
        std::lock_guard<std::mutex> lock(spanMu);
        pendingSpans.erase(span_id);
        throw;
    }
}

std::optional<runtime::JobId>
QumaClient::submitFor(const runtime::JobSpec &spec,
                      std::chrono::milliseconds, std::uint64_t trace_id)
{
    return submitBatch({spec}, trace_id).front();
}

void
QumaClient::submitAsync(
    const runtime::JobSpec &spec, std::uint64_t trace_id,
    std::function<void(std::optional<runtime::JobId>, std::string)>
        acked)
{
    const std::uint64_t span = nextSpanId.fetch_add(1) + 1;
    sendSubmit(
        MsgType::SubmitRequest, spec, trace_id, span,
        [this, span, acked = std::move(acked)](Reply reply) {
            std::optional<runtime::JobId> id;
            std::string why;
            try {
                std::vector<std::uint8_t> body =
                    unwrapReply(std::move(reply), MsgType::SubmitReply);
                Reader r(body);
                id = r.u64();
                r.expectEnd();
                noteSubmitAcked(span, *id);
            } catch (const std::exception &ex) {
                why = ex.what();
            }
            acked(id, std::move(why));
        });
}

std::vector<runtime::JobId>
QumaClient::submitAll(std::vector<runtime::JobSpec> specs)
{
    return submitBatch(specs, 0);
}

std::vector<runtime::JobId>
QumaClient::submitBatch(const std::vector<runtime::JobSpec> &specs,
                        std::uint64_t trace_id)
{
    // Every spec leaves on the wire before the first reply is read:
    // the whole sweep is in the server's reader before the first
    // acknowledgement travels back. Replies arrive in server order;
    // each lands in its own future, so the order is irrelevant, and
    // an early throw leaves the rest to fulfil futures nobody reads.
    std::vector<std::future<Reply>> replies(specs.size());
    std::vector<std::uint64_t> spans;
    spans.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        spans.push_back(nextSpanId.fetch_add(1) + 1);
        sendSubmit(MsgType::SubmitRequest, specs[i], trace_id,
                   spans.back(), replyInto(replies[i]));
    }
    std::vector<runtime::JobId> ids;
    ids.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<std::uint8_t> body =
            unwrapReply(replies[i].get(), MsgType::SubmitReply);
        Reader r(body);
        ids.push_back(r.u64());
        r.expectEnd();
        noteSubmitAcked(spans[i], ids.back());
    }
    return ids;
}

std::optional<runtime::JobId>
QumaClient::trySubmit(runtime::JobSpec spec, std::uint64_t trace_id)
{
    std::future<Reply> reply;
    const std::uint64_t span = nextSpanId.fetch_add(1) + 1;
    sendSubmit(MsgType::TrySubmitRequest, spec, trace_id, span,
               replyInto(reply));
    std::vector<std::uint8_t> body =
        unwrapReply(reply.get(), MsgType::TrySubmitReply);
    Reader r(body);
    bool accepted = r.boolean();
    runtime::JobId id = r.u64();
    r.expectEnd();
    if (!accepted) {
        // Rejected: drop the half-open span, nothing ran.
        std::lock_guard<std::mutex> lock(spanMu);
        pendingSpans.erase(span);
        return std::nullopt;
    }
    noteSubmitAcked(span, id);
    return id;
}

runtime::JobStatus
QumaClient::status(runtime::JobId id) const
{
    Writer w;
    w.u64(id);
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::StatusRequest, w, MsgType::StatusReply);
    Reader r(body);
    std::uint8_t st = r.u8();
    r.expectEnd();
    if (st > static_cast<std::uint8_t>(runtime::JobStatus::Failed))
        throw WireError("unknown job status " + std::to_string(st));
    return static_cast<runtime::JobStatus>(st);
}

std::optional<runtime::JobResult>
QumaClient::poll(runtime::JobId id) const
{
    Writer w;
    w.u64(id);
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::PollRequest, w, MsgType::PollReply);
    Reader r(body);
    bool has = r.boolean();
    if (!has) {
        r.expectEnd();
        return std::nullopt;
    }
    runtime::JobResult result = decodeJobResult(r);
    r.expectEnd();
    return result;
}

runtime::JobResult
QumaClient::await(runtime::JobId id)
{
    // The reply is PUSHED by the server when the job completes; this
    // call just parks on its future (other callers' requests keep
    // flowing on the connection meanwhile).
    return awaitAll({id}).front();
}

std::vector<runtime::JobResult>
QumaClient::awaitAll(const std::vector<runtime::JobId> &ids)
{
    // Streamed in completion order, placed in argument order: the
    // LAST job gates the total either way.
    std::unordered_map<runtime::JobId, std::vector<std::size_t>> slotsOf;
    for (std::size_t i = ids.size(); i-- > 0;)
        slotsOf[ids[i]].push_back(i);
    std::vector<runtime::JobResult> out(ids.size());
    awaitStreaming(ids, [&](runtime::JobId id, runtime::JobResult r) {
        std::vector<std::size_t> &at = slotsOf[id];
        out[at.back()] = std::move(r);
        at.pop_back();
    });
    return out;
}

void
QumaClient::awaitAsync(runtime::JobId id,
                       std::shared_ptr<const ProgressFn> progress,
                       ReplyFn on_reply) const
{
    Writer w;
    w.u64(id);
    sendRequest(MsgType::AwaitRequest, w, std::move(progress),
                std::move(on_reply));
}

void
QumaClient::subscribe(runtime::JobId id, CompletionCallback callback)
{
    std::vector<ProgressCallback> waiting;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (auto it = progressByJob.find(id); it != progressByJob.end()) {
            waiting = std::move(it->second);
            progressByJob.erase(it);
        }
    }
    std::shared_ptr<const ProgressFn> progress;
    if (!waiting.empty())
        progress = std::make_shared<const ProgressFn>(
            [waiting](runtime::JobId job, std::uint64_t done,
                      std::uint64_t total) {
                for (const ProgressCallback &fn : waiting)
                    fn(job, done, total);
            });
    awaitAsync(id, std::move(progress),
               [this, id, callback = std::move(callback)](Reply reply) {
                   auto result = std::make_shared<runtime::JobResult>();
                   try {
                       // Not unwrapReply's fatal(): an unknown id
                       // fails this result, nothing else.
                       if (reply.failure.empty() &&
                           reply.type == MsgType::ErrorReply) {
                           Reader r(reply.payload);
                           throw WireError("remote: " +
                                           decodeErrorFrame(r).message);
                       }
                       *result = takeResult(id, std::move(reply));
                   } catch (const std::exception &ex) {
                       result->error = ex.what();
                   }
                   callback(id, std::move(result));
               });
}

void
QumaClient::subscribeProgress(runtime::JobId id,
                              ProgressCallback callback)
{
    std::lock_guard<std::mutex> lock(mu);
    progressByJob[id].push_back(std::move(callback));
}

void
QumaClient::awaitStreaming(
    const std::vector<runtime::JobId> &ids,
    const std::function<void(runtime::JobId, runtime::JobResult)>
        &deliver,
    const ProgressFn &progress)
{
    if (!deliver)
        fatal("awaitStreaming needs a delivery callback");
    // Replies land here, in ARRIVAL order -- the server pushes each
    // result the moment its job completes, so this is completion
    // order. Shared with the reply callbacks: if this call unwinds,
    // late replies land in an orphaned inbox instead of a dead one.
    struct Inbox
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::pair<runtime::JobId, Reply>> arrived;
        /** Cleared on return: late progress must not reach a caller
         *  who is gone. */
        std::atomic<bool> open{true};
    };
    auto inbox = std::make_shared<Inbox>();
    struct CloseInbox
    {
        Inbox &box;
        ~CloseInbox() { box.open.store(false); }
    } closeGuard{*inbox};
    // One shared handler for the whole sweep; registered per await
    // requestId before the request leaves, so a job that is already
    // done has its final progress frame routed ahead of the reply.
    std::shared_ptr<const ProgressFn> progressShared;
    if (progress)
        progressShared = std::make_shared<const ProgressFn>(
            [inbox, progress](runtime::JobId job, std::uint64_t done,
                              std::uint64_t total) {
                if (inbox->open.load())
                    progress(job, done, total);
            });
    for (runtime::JobId id : ids)
        awaitAsync(id, progressShared, [inbox, id](Reply reply) {
            {
                std::lock_guard<std::mutex> lock(inbox->mu);
                inbox->arrived.emplace_back(id, std::move(reply));
            }
            inbox->cv.notify_one();
        });
    for (std::size_t n = 0; n < ids.size(); ++n) {
        std::pair<runtime::JobId, Reply> next;
        {
            std::unique_lock<std::mutex> lock(inbox->mu);
            inbox->cv.wait(lock, [&] { return !inbox->arrived.empty(); });
            next = std::move(inbox->arrived.front());
            inbox->arrived.pop_front();
        }
        // Decode and deliver OUTSIDE every lock: the callback may
        // call back into this client (poll another id, read stats).
        deliver(next.first,
                takeResult(next.first, std::move(next.second)));
    }
}

std::vector<std::pair<runtime::JobId, runtime::JobResult>>
QumaClient::awaitMany(const std::vector<runtime::JobId> &ids,
                      const ProgressFn &progress)
{
    std::vector<std::pair<runtime::JobId, runtime::JobResult>> out;
    out.reserve(ids.size());
    awaitStreaming(
        ids,
        [&out](runtime::JobId id, runtime::JobResult result) {
            out.emplace_back(id, std::move(result));
        },
        progress);
    return out;
}

bool
QumaClient::cancel(runtime::JobId id)
{
    Writer w;
    w.u64(id);
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::CancelRequest, w, MsgType::CancelReply);
    Reader r(body);
    bool ok = r.boolean();
    r.expectEnd();
    return ok;
}

runtime::ServiceStats
QumaClient::stats() const
{
    Writer w;
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::StatsRequest, w, MsgType::StatsReply);
    Reader r(body);
    runtime::ServiceStats stats = decodeStatsFrame(r);
    r.expectEnd();
    return stats;
}

runtime::TraceDump
QumaClient::traceDump() const
{
    Writer w;
    std::vector<std::uint8_t> body = roundTrip(
        MsgType::TraceDumpRequest, w, MsgType::TraceDumpReply);
    Reader r(body);
    runtime::TraceDump dump = decodeTraceDumpFrame(r);
    r.expectEnd();
    return dump;
}

std::uint64_t
QumaClient::traceNowNanos() const
{
    Writer w;
    std::vector<std::uint8_t> body = roundTrip(
        MsgType::ClockSyncRequest, w, MsgType::ClockSyncReply);
    Reader r(body);
    ClockSyncFrame f = decodeClockSyncFrame(r);
    r.expectEnd();
    return f.serverNanos;
}

std::int64_t
QumaClient::clockSync()
{
    // Classic midpoint alignment: bracket one round trip with the
    // client clock and assume the server sampled halfway through.
    // The estimate's error is bounded by half the RTT asymmetry --
    // microseconds on loopback, and spans/events here are rendered
    // at microsecond granularity anyway.
    const std::uint64_t t0 = clientNowNanos();
    const std::uint64_t server = traceNowNanos();
    const std::uint64_t t1 = clientNowNanos();
    return static_cast<std::int64_t>(server) -
           static_cast<std::int64_t>((t0 + t1) / 2);
}

std::string
QumaClient::mergedChromeTrace()
{
    // server_nanos ~= client_nanos + offset, so shifting server
    // events by -offset lands them on the CLIENT timebase the spans
    // below already use.
    const std::int64_t offset = clockSync();
    runtime::TraceDump dump = traceDump();

    std::unordered_map<runtime::JobId, std::uint64_t> serverIds(
        dump.traceIds.begin(), dump.traceIds.end());
    std::string out = "{\"traceEvents\":[";
    // pid 1: the server's lifecycle events, clock-shifted.
    std::string server = runtime::renderChromeEvents(
        dump.events, serverIds, -offset, 1);
    out += server;
    bool first = server.empty();
    auto emit = [&out, &first](const char *text) {
        if (!first)
            out += ',';
        first = false;
        out += text;
    };
    // pid 2: this client's spans, already on the client timebase.
    char line[320];
    for (const ClientSpan &s : spans()) {
        const std::uint64_t end =
            s.resultNanos ? s.resultNanos : s.ackNanos;
        if (end > s.submitNanos) {
            std::snprintf(
                line, sizeof line,
                "{\"name\":\"job %llu %s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,"
                "\"tid\":%llu,\"args\":{\"job\":%llu,"
                "\"span\":%llu,\"traceId\":\"%016llx\"}}",
                static_cast<unsigned long long>(s.job),
                s.resultNanos ? "round trip" : "submit (pending)",
                static_cast<double>(s.submitNanos) / 1e3,
                static_cast<double>(end - s.submitNanos) / 1e3,
                static_cast<unsigned long long>(s.job),
                static_cast<unsigned long long>(s.job),
                static_cast<unsigned long long>(s.spanId),
                static_cast<unsigned long long>(traceIdValue));
            emit(line);
        }
        if (s.ackNanos > 0) {
            std::snprintf(
                line, sizeof line,
                "{\"name\":\"submit acked\",\"ph\":\"i\","
                "\"ts\":%.3f,\"pid\":2,\"tid\":%llu,\"s\":\"t\","
                "\"args\":{\"job\":%llu,\"span\":%llu,"
                "\"traceId\":\"%016llx\"}}",
                static_cast<double>(s.ackNanos) / 1e3,
                static_cast<unsigned long long>(s.job),
                static_cast<unsigned long long>(s.job),
                static_cast<unsigned long long>(s.spanId),
                static_cast<unsigned long long>(traceIdValue));
            emit(line);
        }
    }
    out += "]}";
    return out;
}

} // namespace quma::net
