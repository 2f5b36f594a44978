#include "net/replay.hh"

#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "runtime/service.hh"

namespace quma::net {

namespace {

/** A decoded captured frame: header + payload view. */
struct SplitFrame
{
    FrameHeader header;
    std::vector<std::uint8_t> payload;
};

std::optional<SplitFrame>
splitFrame(const std::vector<std::uint8_t> &frame)
{
    if (frame.size() < kFrameHeaderBytes)
        return std::nullopt;
    try {
        SplitFrame out;
        out.header = decodeFrameHeader(frame.data());
        if (frame.size() != kFrameHeaderBytes + out.header.length)
            return std::nullopt;
        out.payload.assign(frame.begin() + kFrameHeaderBytes,
                           frame.end());
        return out;
    }
    catch (const WireError &) {
        return std::nullopt;
    }
}

/** Replies routed by requestId, shared with the reader thread. */
struct ReplyRouter
{
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t,
                       std::pair<MsgType, std::vector<std::uint8_t>>>
        replies;
    bool eof = false;

    /** Block (bounded by `deadline`) for the reply to `rid`;
     *  nullptr on timeout/EOF-without-it. The returned pointer stays
     *  valid: unordered_map references survive later inserts. */
    const std::pair<MsgType, std::vector<std::uint8_t>> *
    awaitReply(std::uint64_t rid,
               std::chrono::steady_clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_until(lock, deadline, [&] {
            return replies.count(rid) > 0 || eof;
        });
        auto it = replies.find(rid);
        return it == replies.end() ? nullptr : &it->second;
    }
};

/** Patch the single-u64 payload of an id-bearing request in place. */
void
patchRequestId(std::vector<std::uint8_t> &frame, std::uint64_t id)
{
    for (std::size_t i = 0; i < 8; ++i)
        frame[kFrameHeaderBytes + i] =
            static_cast<std::uint8_t>(id >> (8 * i));
}

} // namespace

ReplayReport
replayCapture(const CaptureFile &capture, const ReplayOptions &options)
{
    if (!capture.valid)
        throw WireError("replay: not a capture file");

    ReplayReport report;
    report.corruptRecords = capture.corruptRecords;

    // Pass 1 -- index the CAPTURED replies: every reply (never a
    // pushed ProgressFrame) by its requestId, and the submit
    // correlation oldId -> submit rid that the id remapping pivots
    // on.
    std::unordered_map<std::uint64_t,
                       std::pair<MsgType, std::vector<std::uint8_t>>>
        captured;
    std::unordered_map<std::uint64_t, std::uint64_t> submitRidOfOldId;
    for (const CapturedFrame &f : capture.frames) {
        if (f.inbound)
            continue;
        std::optional<SplitFrame> sf = splitFrame(f.frame);
        if (!sf)
            continue; // torn/foreign outbound record: not comparable
        // Pushes ride the await's requestId ahead of its reply;
        // they are not the reply.
        if (frameKind(sf->header.type) != FrameKind::Reply)
            continue;
        const std::uint64_t rid = sf->header.requestId;
        if (sf->header.type == MsgType::SubmitReply &&
            sf->payload.size() == 8) {
            Reader r(sf->payload);
            submitRidOfOldId[r.u64()] = rid;
        } else if (sf->header.type == MsgType::TrySubmitReply &&
                   sf->payload.size() == 9) {
            Reader r(sf->payload);
            if (r.boolean())
                submitRidOfOldId[r.u64()] = rid;
        }
        captured.emplace(rid,
                         std::make_pair(sf->header.type,
                                        std::move(sf->payload)));
    }

    // Validate the inbound stream BEFORE booting anything: an
    // unusable capture throws here, where no thread needs unwinding.
    for (const CapturedFrame &f : capture.frames)
        if (f.inbound && !splitFrame(f.frame))
            throw WireError("replay: undecodable inbound frame");

    // The fresh universe the capture is re-driven against.
    runtime::ServiceConfig sc;
    sc.workers = options.workers;
    sc.queueCapacity = options.queueCapacity;
    runtime::ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    std::unique_ptr<ByteStream> stream = accept_side->connect();

    ReplyRouter router;
    std::thread reader([&] {
        try {
            for (;;) {
                std::uint8_t header[kFrameHeaderBytes];
                if (!stream->recvAll(header, kFrameHeaderBytes))
                    break;
                FrameHeader fh = decodeFrameHeader(header);
                std::vector<std::uint8_t> payload(fh.length);
                if (fh.length > 0 &&
                    !stream->recvAll(payload.data(), payload.size()))
                    break;
                if (frameKind(fh.type) != FrameKind::Reply)
                    continue; // a push, not the request's reply
                {
                    std::lock_guard<std::mutex> lock(router.mu);
                    router.replies[fh.requestId] = {fh.type,
                                                    std::move(payload)};
                }
                router.cv.notify_all();
            }
        }
        catch (const std::exception &) {
            // Dead stream: fall through to the EOF signal.
        }
        {
            std::lock_guard<std::mutex> lock(router.mu);
            router.eof = true;
        }
        router.cv.notify_all();
    });

    const auto deadline =
        std::chrono::steady_clock::now() + options.timeout;

    // Resolve a captured job id to its replayed counterpart, blocking
    // until the replayed Submit/TrySubmit reply carries it (exactly
    // the data dependency the original client had).
    auto newIdOf =
        [&](std::uint64_t old_id) -> std::optional<std::uint64_t> {
        auto rit = submitRidOfOldId.find(old_id);
        if (rit == submitRidOfOldId.end())
            return std::nullopt; // id from outside this session
        const auto *reply = router.awaitReply(rit->second, deadline);
        if (!reply)
            return std::nullopt;
        try {
            Reader r(reply->second);
            if (reply->first == MsgType::SubmitReply)
                return r.u64();
            if (reply->first == MsgType::TrySubmitReply)
                return r.boolean()
                           ? std::optional<std::uint64_t>(r.u64())
                           : std::nullopt;
        }
        catch (const WireError &) {
        }
        return std::nullopt;
    };

    // Pass 2 -- re-drive the inbound stream in its wire order.
    for (const CapturedFrame &f : capture.frames) {
        if (!f.inbound)
            continue;
        std::optional<SplitFrame> sf = splitFrame(f.frame);
        if (!sf)
            continue; // unreachable: pre-validated above
        std::vector<std::uint8_t> frame = f.frame;
        switch (sf->header.type) {
        case MsgType::StatusRequest:
        case MsgType::PollRequest:
        case MsgType::AwaitRequest:
        case MsgType::CancelRequest: {
            if (sf->payload.size() != 8)
                break; // malformed in capture too: send verbatim
            Reader r(sf->payload);
            const std::uint64_t old_id = r.u64();
            std::optional<std::uint64_t> new_id = newIdOf(old_id);
            if (new_id) {
                patchRequestId(frame, *new_id);
            } else if (submitRidOfOldId.count(old_id)) {
                // The id was born in this session but the replayed
                // submit produced none: nothing meaningful to send.
                report.mismatches.push_back(
                    {sf->header.requestId,
                     "job id " + std::to_string(old_id) +
                         " did not remap (replayed submit failed)"});
                continue;
            }
            break;
        }
        default:
            break; // Submit/TrySubmit/Stats travel verbatim
        }
        try {
            stream->sendAll(frame.data(), frame.size());
            ++report.framesSent;
        }
        catch (const std::exception &ex) {
            // Replayed server tore the connection down: report (the
            // missing awaits surface as timeouts) instead of
            // unwinding past the live reader thread.
            report.mismatches.push_back(
                {sf->header.requestId,
                 std::string("send failed: ") + ex.what()});
            break;
        }
    }

    // Pass 3 -- the actual diff: every captured AwaitReply must come
    // back byte-identical. (Status/Poll/Stats replies are snapshots
    // of a race; see the header.)
    for (const auto &[rid, reply] : captured) {
        if (reply.first != MsgType::AwaitReply)
            continue;
        ++report.awaitedResults;
        const auto *replayed = router.awaitReply(rid, deadline);
        if (!replayed) {
            ++report.timedOut;
            continue;
        }
        if (replayed->first != MsgType::AwaitReply) {
            report.mismatches.push_back(
                {rid, "replayed reply type " +
                          std::to_string(static_cast<std::uint16_t>(
                              replayed->first)) +
                          " where AwaitReply was captured"});
            continue;
        }
        if (replayed->second != reply.second) {
            report.mismatches.push_back(
                {rid,
                 "AwaitReply payload differs (" +
                     std::to_string(reply.second.size()) +
                     " captured vs " +
                     std::to_string(replayed->second.size()) +
                     " replayed bytes)"});
            continue;
        }
        ++report.matchedResults;
    }

    stream->close();
    reader.join();
    server.stop();
    return report;
}

} // namespace quma::net
