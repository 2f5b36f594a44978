#include "runtime/trace.hh"

#include <cstdio>
#include <map>
#include <utility>

namespace quma::runtime {

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
    case TracePhase::Submitted:
        return "submitted";
    case TracePhase::Admitted:
        return "admitted";
    case TracePhase::Queued:
        return "queued";
    case TracePhase::Leased:
        return "leased";
    case TracePhase::ShardStart:
        return "shard start";
    case TracePhase::ShardFinish:
        return "shard finish";
    case TracePhase::Merge:
        return "merge";
    case TracePhase::Finished:
        return "finished";
    case TracePhase::ResultPushed:
        return "result pushed";
    }
    return "unknown";
}

JobTraceRecorder::JobTraceRecorder(std::size_t capacity)
    : cap(capacity ? capacity : 1),
      epoch(std::chrono::steady_clock::now())
{
}

void
JobTraceRecorder::record(JobId job, TracePhase phase,
                         std::uint32_t shard)
{
    if (!enabled())
        return;
    auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
    std::lock_guard<std::mutex> lock(mu);
    if (buf.size() >= cap) {
        ++droppedCount;
        return;
    }
    buf.push_back({job, shard, phase, nanos});
}

void
JobTraceRecorder::setTraceId(JobId job, std::uint64_t traceId)
{
    if (!enabled() || traceId == 0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    // Bounded like the event buffer: an association for a job whose
    // events were all dropped would never be rendered anyway.
    if (traceIds.size() >= cap && !traceIds.count(job))
        return;
    traceIds[job] = traceId;
}

std::uint64_t
JobTraceRecorder::traceIdOf(JobId job) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = traceIds.find(job);
    return it == traceIds.end() ? 0 : it->second;
}

std::vector<std::pair<JobId, std::uint64_t>>
JobTraceRecorder::traceIdPairs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {traceIds.begin(), traceIds.end()};
}

std::uint64_t
JobTraceRecorder::nowNanos() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

std::vector<TraceEvent>
JobTraceRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    return buf;
}

std::size_t
JobTraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return buf.size();
}

std::size_t
JobTraceRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return droppedCount;
}

TraceDump
JobTraceRecorder::dump() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {buf, {traceIds.begin(), traceIds.end()}, droppedCount};
}

void
JobTraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    buf.clear();
    traceIds.clear();
    droppedCount = 0;
}

std::string
JobTraceRecorder::chromeTraceJson() const
{
    std::vector<TraceEvent> snapshot;
    std::unordered_map<JobId, std::uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = buf;
        ids = traceIds;
    }
    return "{\"traceEvents\":[" +
           renderChromeEvents(snapshot, ids, 0, 1) + "]}";
}

std::string
renderChromeEvents(
    const std::vector<TraceEvent> &events,
    const std::unordered_map<JobId, std::uint64_t> &traceIds,
    std::int64_t shift_nanos, int pid)
{
    std::string out;
    bool first = true;
    char line[384];
    char trace[40];

    // The optional ,"traceId":"..." args suffix for a job.
    auto traceArg = [&traceIds, &trace](JobId job) -> const char * {
        auto it = traceIds.find(job);
        if (it == traceIds.end() || it->second == 0)
            return "";
        std::snprintf(trace, sizeof trace,
                      ",\"traceId\":\"%016llx\"",
                      static_cast<unsigned long long>(it->second));
        return trace;
    };
    auto usOf = [shift_nanos](std::uint64_t nanos) {
        return static_cast<double>(static_cast<std::int64_t>(nanos) +
                                   shift_nanos) /
               1e3;
    };
    auto emit = [&out, &first](const char *text) {
        if (!first)
            out += ',';
        first = false;
        out += text;
    };

    // ShardStart events wait here for their matching ShardFinish;
    // unmatched starts (job still running at dump time) fall back to
    // instant events below.
    std::map<std::pair<JobId, std::uint32_t>, std::uint64_t> open;

    for (const TraceEvent &e : events) {
        if (e.phase == TracePhase::ShardStart) {
            open[{e.job, e.shard}] = e.nanos;
            continue;
        }
        if (e.phase == TracePhase::ShardFinish) {
            auto it = open.find({e.job, e.shard});
            if (it != open.end()) {
                double durUs =
                    static_cast<double>(e.nanos - it->second) / 1e3;
                std::snprintf(line, sizeof line,
                              "{\"name\":\"shard %u\",\"ph\":\"X\","
                              "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                              "\"tid\":%llu,\"args\":{\"job\":%llu,"
                              "\"shard\":%u%s}}",
                              e.shard, usOf(it->second), durUs, pid,
                              static_cast<unsigned long long>(e.job),
                              static_cast<unsigned long long>(e.job),
                              e.shard, traceArg(e.job));
                emit(line);
                open.erase(it);
                continue;
            }
        }
        std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":%llu,\"s\":\"t\","
                      "\"args\":{\"job\":%llu,\"shard\":%u%s}}",
                      tracePhaseName(e.phase), usOf(e.nanos), pid,
                      static_cast<unsigned long long>(e.job),
                      static_cast<unsigned long long>(e.job), e.shard,
                      traceArg(e.job));
        emit(line);
    }

    // Shards still open at dump time: render what is known as an
    // instant so the start is not silently lost.
    for (const auto &[key, nanos] : open) {
        std::snprintf(line, sizeof line,
                      "{\"name\":\"shard %u (running)\",\"ph\":\"i\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":%llu,\"s\":\"t\","
                      "\"args\":{\"job\":%llu,\"shard\":%u%s}}",
                      key.second, usOf(nanos), pid,
                      static_cast<unsigned long long>(key.first),
                      static_cast<unsigned long long>(key.first),
                      key.second, traceArg(key.first));
        emit(line);
    }

    return out;
}

} // namespace quma::runtime
