#include "net/client.hh"

#include <algorithm>
#include <cstdio>
#include <random>

#include "common/logging.hh"
#include "runtime/trace.hh"

namespace quma::net {

namespace {

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

QumaClient::QumaClient(std::unique_ptr<ByteStream> stream_,
                       double link_bytes_per_second)
    : stream(std::move(stream_)), meter(link_bytes_per_second),
      traceIdValue(randomTraceId())
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
QumaClient::noteSubmitSent(std::uint64_t rid, std::uint64_t span_id,
                           std::uint64_t nanos)
{
    if (!spansEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    ClientSpan span;
    span.spanId = span_id;
    span.submitNanos = nanos;
    pendingSpans[rid] = span;
}

void
QumaClient::noteSubmitAcked(std::uint64_t rid, runtime::JobId id)
{
    if (!spansEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    auto it = pendingSpans.find(rid);
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
    for (const auto &[rid, span] : pendingSpans)
        out.push_back(span);
    return out;
}

void
QumaClient::failAllLocked(const std::string &why)
{
    readerDown = true;
    readerFailure = why;
    for (auto &[rid, slot] : slots) {
        if (slot.ready)
            continue; // a real reply already landed; let it be read
        slot.ready = true;
        slot.failure = why;
    }
    cvSlots.notify_all();
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

            if (fh.type == MsgType::ProgressFrame) {
                // Server-push progress: routed by the await's
                // requestId, BEFORE the unsolicited-reply check --
                // a ProgressFrame answers no request 1:1, so one
                // landing after its await finished (or for an
                // await without a callback) just evaporates.
                std::shared_ptr<const ProgressFn> handler;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    meter.record(sizeof(header) + body.size(),
                                 false);
                    auto it = progressHandlers.find(fh.requestId);
                    if (it != progressHandlers.end())
                        handler = it->second;
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

            std::lock_guard<std::mutex> lock(mu);
            meter.record(sizeof(header) + body.size(), false);
            ms.repliesReceived.inc();
            if (fh.requestId == kConnectionRequestId) {
                // A frame answering no request is the server talking
                // about the CONNECTION (version mismatch and kin):
                // nothing on it can be trusted further.
                std::string why = "connection-level server error";
                if (fh.type == MsgType::ErrorReply) {
                    try {
                        Reader r(body);
                        ErrorFrame e = decodeErrorFrame(r);
                        why = "server: " + e.message;
                    } catch (const std::exception &) {
                    }
                }
                failAllLocked(why);
                return;
            }
            auto it = slots.find(fh.requestId);
            if (it == slots.end()) {
                // A reply nobody asked for: the demux contract is
                // broken, and with it every routing guarantee.
                failAllLocked("unsolicited reply for request id " +
                              std::to_string(fh.requestId));
                return;
            }
            if (it->second.abandoned) {
                // Its batch call unwound; the reply has no reader.
                slots.erase(it);
                continue;
            }
            it->second.ready = true;
            it->second.type = fh.type;
            it->second.payload = std::move(body);
            it->second.seq = ++arrivalSeq;
            cvSlots.notify_all();
        }
    } catch (const std::exception &ex) {
        std::lock_guard<std::mutex> lock(mu);
        failAllLocked(ex.what());
    }
}

void
QumaClient::abandonSlots(const std::uint64_t *rids,
                         std::size_t count) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < count; ++i) {
        auto it = slots.find(rids[i]);
        if (it == slots.end())
            continue;
        if (it->second.ready)
            slots.erase(it);
        else
            it->second.abandoned = true;
    }
}

std::uint64_t
QumaClient::sendRequest(MsgType type, const Writer &payload,
                        std::shared_ptr<const ProgressFn> progress) const
{
    std::uint64_t rid;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (readerDown)
            throw WireError("connection is down: " + readerFailure);
        rid = nextRequestId++;
        slots.emplace(rid, Slot{});
        if (progress)
            progressHandlers.emplace(rid, std::move(progress));
    }
    std::vector<std::uint8_t> frame = sealFrame(type, rid, payload);
    try {
        // Frames from concurrent callers must not interleave; only
        // the byte write is serialized, never a round-trip.
        std::lock_guard<std::mutex> lock(sendMu);
        stream->sendAll(frame.data(), frame.size());
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        slots.erase(rid);
        progressHandlers.erase(rid);
        throw;
    }
    std::lock_guard<std::mutex> lock(mu);
    meter.record(frame.size(), true);
    ms.requestsSent.inc();
    return rid;
}

void
QumaClient::bindMetrics(metrics::MetricsRegistry &registry)
{
    ms.requestsSent = registry.counter(
        "quma_client_requests_sent_total",
        "Request frames put on the wire by this client.");
    ms.repliesReceived = registry.counter(
        "quma_client_replies_received_total",
        "Reply frames routed by this client's reader.");
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
QumaClient::consumeSlotLocked(std::uint64_t request_id,
                              MsgType expected_reply) const
{
    auto it = slots.find(request_id);
    quma_assert(it != slots.end() && it->second.ready,
                "consuming an unfulfilled slot");
    Slot slot = std::move(it->second);
    slots.erase(it);
    if (!slot.failure.empty())
        throw WireError(slot.failure);
    if (slot.type == MsgType::ErrorReply) {
        Reader r(slot.payload);
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
    if (slot.type != expected_reply)
        throw WireError("unexpected reply type " +
                        std::to_string(static_cast<std::uint16_t>(
                            slot.type)));
    return std::move(slot.payload);
}

std::vector<std::uint8_t>
QumaClient::waitReply(std::uint64_t request_id,
                      MsgType expected_reply) const
{
    std::unique_lock<std::mutex> lock(mu);
    cvSlots.wait(lock, [&] {
        auto it = slots.find(request_id);
        return it != slots.end() && it->second.ready;
    });
    return consumeSlotLocked(request_id, expected_reply);
}

std::vector<std::uint8_t>
QumaClient::roundTrip(MsgType request, const Writer &payload,
                      MsgType expected_reply) const
{
    return waitReply(sendRequest(request, payload), expected_reply);
}

runtime::JobId
QumaClient::submit(runtime::JobSpec spec)
{
    Writer w;
    encodeJobSpec(w, spec);
    // v4: the trace context rides AFTER the spec, so the spec codec
    // (shared with the server's journal) stays format-stable.
    const std::uint64_t spanId = nextSpanId.fetch_add(1) + 1;
    encodeTraceContext(w, TraceContext{traceIdValue, spanId});
    const std::uint64_t t0 = clientNowNanos();
    const std::uint64_t rid =
        sendRequest(MsgType::SubmitRequest, w);
    noteSubmitSent(rid, spanId, t0);
    std::vector<std::uint8_t> body =
        waitReply(rid, MsgType::SubmitReply);
    Reader r(body);
    runtime::JobId id = r.u64();
    r.expectEnd();
    noteSubmitAcked(rid, id);
    return id;
}

std::vector<runtime::JobId>
QumaClient::submitAll(std::vector<runtime::JobSpec> specs)
{
    // Phase 1: every spec leaves on the wire, no reads in between --
    // the whole sweep is in the server's reader before the first
    // acknowledgement travels back.
    std::vector<std::uint64_t> rids;
    rids.reserve(specs.size());
    for (const runtime::JobSpec &spec : specs) {
        Writer w;
        encodeJobSpec(w, spec);
        const std::uint64_t spanId = nextSpanId.fetch_add(1) + 1;
        encodeTraceContext(w, TraceContext{traceIdValue, spanId});
        const std::uint64_t t0 = clientNowNanos();
        const std::uint64_t rid =
            sendRequest(MsgType::SubmitRequest, w);
        noteSubmitSent(rid, spanId, t0);
        rids.push_back(rid);
    }
    // Phase 2: collect the ids (replies arrive in server order,
    // routing by requestId makes the order irrelevant). If one
    // submit fails, the siblings' slots must not leak: abandon
    // whatever was not collected yet before rethrowing.
    std::vector<runtime::JobId> ids;
    ids.reserve(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
        try {
            std::vector<std::uint8_t> body =
                waitReply(rids[i], MsgType::SubmitReply);
            Reader r(body);
            ids.push_back(r.u64());
            r.expectEnd();
            noteSubmitAcked(rids[i], ids.back());
        } catch (...) {
            abandonSlots(rids.data() + i + 1, rids.size() - i - 1);
            throw;
        }
    }
    return ids;
}

std::optional<runtime::JobId>
QumaClient::trySubmit(runtime::JobSpec spec)
{
    Writer w;
    encodeJobSpec(w, spec);
    const std::uint64_t spanId = nextSpanId.fetch_add(1) + 1;
    encodeTraceContext(w, TraceContext{traceIdValue, spanId});
    const std::uint64_t t0 = clientNowNanos();
    const std::uint64_t rid =
        sendRequest(MsgType::TrySubmitRequest, w);
    noteSubmitSent(rid, spanId, t0);
    std::vector<std::uint8_t> body =
        waitReply(rid, MsgType::TrySubmitReply);
    Reader r(body);
    bool accepted = r.boolean();
    runtime::JobId id = r.u64();
    r.expectEnd();
    if (!accepted) {
        // Rejected: drop the half-open span, nothing ran.
        std::lock_guard<std::mutex> lock(spanMu);
        pendingSpans.erase(rid);
        return std::nullopt;
    }
    noteSubmitAcked(rid, id);
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
    Writer w;
    w.u64(id);
    // The reply is PUSHED by the server when the job completes; this
    // call just parks on the promise slot (other callers' requests
    // keep flowing on the connection meanwhile).
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::AwaitRequest, w, MsgType::AwaitReply);
    Reader r(body);
    runtime::JobResult result = decodeJobResult(r);
    r.expectEnd();
    noteResultDecoded(id);
    return result;
}

std::vector<runtime::JobResult>
QumaClient::awaitAll(const std::vector<runtime::JobId> &ids)
{
    // All awaits go out up front; the server streams each result as
    // its job finishes, and the slots buffer whatever completes
    // before this loop reaches it. Waiting in argument order adds no
    // wall-clock: the LAST job gates the total either way.
    std::vector<std::uint64_t> rids;
    rids.reserve(ids.size());
    for (runtime::JobId id : ids) {
        Writer w;
        w.u64(id);
        rids.push_back(sendRequest(MsgType::AwaitRequest, w));
    }
    std::vector<runtime::JobResult> out;
    out.reserve(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
        try {
            std::vector<std::uint8_t> body =
                waitReply(rids[i], MsgType::AwaitReply);
            Reader r(body);
            out.push_back(decodeJobResult(r));
            r.expectEnd();
            noteResultDecoded(ids[i]);
        } catch (...) {
            // One await failed (e.g. an aged-out id fataling):
            // late pushes for the rest must not leak in the slot
            // map for the client's lifetime.
            abandonSlots(rids.data() + i + 1, rids.size() - i - 1);
            throw;
        }
    }
    return out;
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
    // One shared handler for the whole sweep; registered per await
    // requestId so the reader can route ProgressFrames to it.
    std::shared_ptr<const ProgressFn> progressShared =
        progress ? std::make_shared<const ProgressFn>(progress)
                 : nullptr;
    // Arrival watermark taken BEFORE the requests leave: any reply
    // to them bumps arrivalSeq past it. The wait predicate is then
    // O(1) -- "has anything arrived since my last scan" -- instead
    // of re-scanning every pending id on every reader wakeup (which
    // would make a large sweep O(N^2) under the demux mutex).
    std::uint64_t scannedThrough;
    {
        std::lock_guard<std::mutex> lock(mu);
        scannedThrough = arrivalSeq;
    }
    std::unordered_map<std::uint64_t, runtime::JobId> pending;
    pending.reserve(ids.size());
    for (runtime::JobId id : ids) {
        Writer w;
        w.u64(id);
        // The handler is registered before the request leaves: a
        // job that is already done is answered with its final
        // progress frame at once, ahead of the reply.
        const std::uint64_t rid =
            sendRequest(MsgType::AwaitRequest, w, progressShared);
        pending.emplace(rid, id);
    }
    // On any throw below (error reply, decode failure, a throwing
    // deliver callback), the outstanding awaits must not leak.
    struct AbandonPending
    {
        const QumaClient *client;
        std::unordered_map<std::uint64_t, runtime::JobId> *pending;
        ~AbandonPending()
        {
            if (pending->empty())
                return;
            std::vector<std::uint64_t> rids;
            rids.reserve(pending->size());
            for (const auto &[rid, id] : *pending)
                rids.push_back(rid);
            {
                // Late ProgressFrames for the unwound awaits must
                // not invoke a dead callback; without a handler the
                // reader drops them silently.
                std::lock_guard<std::mutex> lock(client->mu);
                for (std::uint64_t rid : rids)
                    client->progressHandlers.erase(rid);
            }
            client->abandonSlots(rids.data(), rids.size());
        }
    } abandonGuard{this, &pending};
    while (!pending.empty()) {
        // Collect every slot the reader has fulfilled, then deliver
        // OUTSIDE the mutex (the callback may call back into this
        // client -- poll another id, read stats -- without deadlock).
        struct Arrived
        {
            std::uint64_t seq;
            runtime::JobId id;
            std::vector<std::uint8_t> body;
        };
        std::vector<Arrived> batch;
        {
            std::unique_lock<std::mutex> lock(mu);
            // readerDown covers failure fulfilment, which marks
            // slots ready without an arrival (failAllLocked).
            cvSlots.wait(lock, [&] {
                return arrivalSeq > scannedThrough || readerDown;
            });
            scannedThrough = arrivalSeq;
            for (auto it = pending.begin(); it != pending.end();) {
                auto slot = slots.find(it->first);
                if (slot == slots.end() || !slot->second.ready) {
                    ++it;
                    continue;
                }
                std::uint64_t seq = slot->second.seq;
                batch.push_back(
                    {seq, it->second,
                     consumeSlotLocked(it->first,
                                       MsgType::AwaitReply)});
                // Terminal reply consumed: any later ProgressFrame
                // under this rid is late by definition and drops.
                progressHandlers.erase(it->first);
                it = pending.erase(it);
            }
        }
        // Deliver in ARRIVAL order: the server pushes each result
        // the moment its job completes, so this is completion order.
        std::sort(batch.begin(), batch.end(),
                  [](const Arrived &a, const Arrived &b) {
                      return a.seq < b.seq;
                  });
        for (Arrived &a : batch) {
            Reader r(a.body);
            runtime::JobResult result = decodeJobResult(r);
            r.expectEnd();
            noteResultDecoded(a.id);
            deliver(a.id, std::move(result));
        }
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

StatsFrame
QumaClient::stats()
{
    Writer w;
    std::vector<std::uint8_t> body =
        roundTrip(MsgType::StatsRequest, w, MsgType::StatsReply);
    Reader r(body);
    StatsFrame stats = decodeStatsFrame(r);
    r.expectEnd();
    return stats;
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
    Writer w;
    std::vector<std::uint8_t> body = roundTrip(
        MsgType::ClockSyncRequest, w, MsgType::ClockSyncReply);
    const std::uint64_t t1 = clientNowNanos();
    Reader r(body);
    ClockSyncFrame f = decodeClockSyncFrame(r);
    r.expectEnd();
    return static_cast<std::int64_t>(f.serverNanos) -
           static_cast<std::int64_t>((t0 + t1) / 2);
}

std::string
QumaClient::mergedChromeTrace()
{
    // server_nanos ~= client_nanos + offset, so shifting server
    // events by -offset lands them on the CLIENT timebase the spans
    // below already use.
    const std::int64_t offset = clockSync();
    Writer w;
    std::vector<std::uint8_t> body = roundTrip(
        MsgType::TraceDumpRequest, w, MsgType::TraceDumpReply);
    Reader r(body);
    TraceDumpFrame dump = decodeTraceDumpFrame(r);
    r.expectEnd();

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
