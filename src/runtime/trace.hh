/**
 * @file
 * Job-lifecycle tracing: every job's path through the runtime as
 * timestamped span points.
 *
 * A JobTraceRecorder captures one TraceEvent per lifecycle phase --
 * submitted -> admitted -> queued -> leased -> per-shard start/finish
 * -> merge -> finished -> result pushed -- from the scheduler's
 * instrumentation points. The recorder is OFF by default and its
 * disabled fast path is one relaxed atomic load and a predicted
 * branch per call site (the near-zero-overhead guarantee the
 * metrics-overhead bench section pins): enabling tracing is a
 * runtime decision, not a build flag.
 *
 * Events live in a bounded in-memory buffer (capacity at
 * construction; overflow increments dropped() instead of growing or
 * blocking -- an incident recorder must never become the incident).
 * Timestamps are steady-clock nanoseconds since the recorder's
 * epoch, so spans subtract cleanly and never jump with wall-clock
 * adjustments.
 *
 * The capture is retrievable as raw events (events()) and dumpable
 * as Chrome trace-event JSON (chromeTraceJson()): load the dump in
 * chrome://tracing or Perfetto to see queue residence and shard
 * parallelism per job on a common timeline. Pair-phases
 * (ShardStart/ShardFinish) become complete ("X") slices; the rest
 * are instant events on the job's track.
 */

#ifndef QUMA_RUNTIME_TRACE_HH
#define QUMA_RUNTIME_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/job.hh"

namespace quma::runtime {

/** Lifecycle phase of a traced event. */
enum class TracePhase : std::uint8_t
{
    /** Job accepted by a submit path (id assigned). */
    Submitted = 0,
    /** Job passed admission control (trySubmit) or the blocking
     *  queue-space wait (submit/submitFor). */
    Admitted = 1,
    /** Job's tasks entered the priority queue. */
    Queued = 2,
    /** A worker bound its machine to one of the job's tasks (built,
     *  rebound or reused as it was). */
    Leased = 3,
    /** One shard (an opaque job has one, shard 0) started running. */
    ShardStart = 4,
    /** That shard finished (successfully or not). */
    ShardFinish = 5,
    /** The deterministic round-order merge of the shard partials. */
    Merge = 6,
    /** The job reached its final Done/Failed status. */
    Finished = 7,
    /** A completion notification was delivered to a subscriber
     *  (e.g. the serving layer pushed the result frame). */
    ResultPushed = 8,
};

/** Stable lower-case name of a phase ("submitted", "leased", ...). */
const char *tracePhaseName(TracePhase phase);

struct TraceEvent
{
    JobId job = 0;
    std::uint32_t shard = 0;
    TracePhase phase = TracePhase::Submitted;
    /** Steady-clock nanoseconds since the recorder epoch. */
    std::uint64_t nanos = 0;
};

/**
 * A recorder's capture in one piece: the buffered events, the
 * job -> traceId associations, and the drop count. Raw events rather
 * than rendered JSON so a consumer can clock-shift, re-key and merge
 * dumps (the payload of a wire TraceDumpReply).
 */
struct TraceDump
{
    std::vector<TraceEvent> events;
    std::vector<std::pair<JobId, std::uint64_t>> traceIds;
    /** Events lost to the bounded buffer. */
    std::uint64_t dropped = 0;
};

class JobTraceRecorder
{
  public:
    /** @param capacity event-buffer bound; overflow counts dropped */
    explicit JobTraceRecorder(std::size_t capacity = 1 << 16);

    JobTraceRecorder(const JobTraceRecorder &) = delete;
    JobTraceRecorder &operator=(const JobTraceRecorder &) = delete;

    void enable() { on.store(true, std::memory_order_relaxed); }
    void disable() { on.store(false, std::memory_order_relaxed); }
    /** The disabled fast path every instrumentation site runs. */
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Append one event (no-op while disabled; bounded). */
    void record(JobId job, TracePhase phase, std::uint32_t shard = 0);

    /**
     * Associate a job with a client-provided distributed traceId
     * (0 = none; no-op while disabled, bounded like the buffer).
     * Events need no per-event copy: the dump joins on job id.
     */
    void setTraceId(JobId job, std::uint64_t traceId);
    /** The job's distributed traceId, or 0 when none was recorded. */
    std::uint64_t traceIdOf(JobId job) const;
    /** Snapshot of every job -> traceId association. */
    std::vector<std::pair<JobId, std::uint64_t>> traceIdPairs() const;

    /**
     * "Now" on the recorder's trace clock: steady-clock nanoseconds
     * since the epoch, the timebase of every buffered event. What
     * the wire ClockSync exchange samples so a remote client can
     * shift this recorder's timestamps into its own trace clock.
     */
    std::uint64_t nowNanos() const;

    /** Snapshot of the captured events, in record order. */
    std::vector<TraceEvent> events() const;
    std::size_t eventCount() const;
    /** Events lost to the capacity bound since the last clear(). */
    std::size_t dropped() const;
    /** events(), traceIdPairs() and dropped() under one lock. */
    TraceDump dump() const;
    void clear();

    /**
     * The capture as Chrome trace-event JSON (the
     * {"traceEvents":[...]} envelope): ShardStart/ShardFinish pairs
     * render as complete "X" slices (one track per job, one slice
     * per shard), everything else as instant events on the job's
     * track. Timestamps in microseconds since the recorder epoch.
     */
    std::string chromeTraceJson() const;

  private:
    std::atomic<bool> on{false};
    const std::size_t cap;
    const std::chrono::steady_clock::time_point epoch;
    mutable std::mutex mu;
    std::vector<TraceEvent> buf;
    std::unordered_map<JobId, std::uint64_t> traceIds;
    std::size_t droppedCount = 0;
};

/**
 * Render trace events as the comma-joined bodies of a Chrome
 * trace-event array (no envelope): ShardStart/ShardFinish pairs as
 * "X" slices, the rest as instants. `traceIds` annotates each job's
 * args with its distributed traceId (jobs absent from the map get
 * none); `shift_nanos` is added to every timestamp, which is how a
 * client folds a server dump into its own trace clock; `pid` keys
 * the Perfetto process track ("server" and "client" halves of a
 * merged trace use different pids). Returns "" for no events.
 */
std::string renderChromeEvents(
    const std::vector<TraceEvent> &events,
    const std::unordered_map<JobId, std::uint64_t> &traceIds,
    std::int64_t shift_nanos, int pid);

} // namespace quma::runtime

#endif // QUMA_RUNTIME_TRACE_HH
