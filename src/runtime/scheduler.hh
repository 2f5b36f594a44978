/**
 * @file
 * The job scheduler: a prioritised task queue drained by worker
 * threads, with shot-level sharding and stats-driven admission.
 *
 * SCHEDULING. Each queued task carries its job's priority class and
 * submission sequence number. Workers always pop the task with the
 * highest EFFECTIVE priority -- the class plus one step per
 * `agingQuantum` newer submissions the task has waited through --
 * breaking ties oldest-first. High jobs therefore overtake a backlog
 * of Normal/Batch work, while aging guarantees the backlog is never
 * starved by a continuous stream of fresh High jobs.
 *
 * ONE TASK KIND. Every job is split by partitionRounds() into
 * contiguous round ranges, one task per shard; an opaque job
 * (JobSpec::rounds == 0) is one shard of one round. Every task runs
 * through the same per-round loop on a pooled machine, and the worker
 * finishing a job's last shard merges the per-round collector sums in
 * global round order. The stream choice of runtime/keys.hh
 * (roundStreams) plus the order-preserving merge make the merged
 * result bit-identical for every shard count and worker count.
 *
 * BATCHING. After a task, while the worker still holds its machine
 * lease, it runs the next BEST task immediately if that task needs
 * the same machine configuration -- the common case when a sweep (or
 * a sharded job) fans out into many same-shaped tasks.
 *
 * NOTIFICATION. subscribe(id, cb) registers a one-shot completion
 * callback, delivered by a dedicated notifier thread in completion
 * order, outside the scheduler mutex. This is the push primitive the
 * network serving layer streams results with: a finished job's
 * JobResult frame leaves the server the moment the merge completes,
 * with no polling loop holding a thread per pending job.
 *
 * WORK STEALING. A slow shard would otherwise gate its job's merge
 * while other workers idle. The executing worker claims its shard's
 * rounds one at a time (contiguously, under the scheduler mutex) --
 * the only way a round is ever claimed -- and an idle worker may
 * SPLIT the largest in-flight shard: the tail half of its unclaimed
 * rounds becomes a new shard the thief runs immediately. Because
 * every round derives its RNG streams from (seed, round) and the
 * merge walks partials in round order, stealing changes WHO runs a
 * round but never WHAT it computes -- merged results stay
 * bit-identical at any worker count.
 *
 * REPLAY. A round whose (program, machine config) pair has a verified
 * physics tape in the program cache replays that tape instead of
 * running the control plane (control-schedule replay, quma/tape.hh).
 * A pair's first sighting runs in full and its second runs the check
 * that accepts or rejects the tape. A replay is bit-identical to the
 * full run, so replay, too, changes cost and never results.
 *
 * ADMISSION. Executed jobs sample QumaMachine::stats(): a run whose
 * timing event queues rejected a push (producer backpressure; deep
 * queues alone are healthy) or silently dropped stale events counts
 * as saturated, and an EWMA of that signal drives trySubmit's
 * effective queue bound. While the machines report saturation the
 * scheduler stops accepting work it could only queue (adding depth
 * would add latency, not throughput); the configured queueCapacity
 * remains the hard ceiling, and blocking submit() always uses it.
 */

#ifndef QUMA_RUNTIME_SCHEDULER_HH
#define QUMA_RUNTIME_SCHEDULER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.hh"
#include "runtime/job.hh"
#include "runtime/machine_pool.hh"
#include "runtime/program_cache.hh"
#include "runtime/trace.hh"

namespace quma::runtime {

/**
 * JobResult::error of a job cancelled while still queued. A named
 * constant because the journal layer (runtime/journal.hh) keys off
 * it: cancellations journal as Cancelled (must NOT be recovered).
 */
inline constexpr const char *kCancelledJobError =
    "cancelled before execution";
/**
 * JobResult::error of a queued job failed by scheduler shutdown. The
 * journal layer treats completions carrying this error as NOT
 * completed -- the work never ran, and recovery must bring it back.
 */
inline constexpr const char *kShutdownJobError =
    "scheduler shut down before the job ran";

struct SchedulerConfig
{
    unsigned workers = 2;
    /**
     * Hard queue bound, counted in TASKS (an S-way sharded job holds
     * S slots). submit blocks at the bound (a multi-shard job may
     * transiently overshoot it by shards-1 slots so its shards enter
     * atomically); trySubmit rejects at the stats-driven effective
     * bound, which never exceeds this.
     */
    std::size_t queueCapacity = 64;
    /**
     * Do not spawn workers yet; start() does. Lets tests (and staged
     * deployments) fill the bounded queue before draining begins.
     */
    bool startPaused = false;
    /**
     * Finished JobResults retained for poll/await. When exceeded the
     * oldest finished results age out and their ids report unknown.
     */
    std::size_t maxRetainedResults = 65536;
    /**
     * Aging: a waiting task gains one priority step per this many
     * newer submissions (0 disables aging). Keeps low classes from
     * starving under a continuous high-priority stream; large enough
     * by default that a burst-submitted backlog does not immediately
     * tie with fresh High work.
     */
    std::size_t agingQuantum = 64;
    /** Effective bound while congested, as a queueCapacity fraction
     *  (floored at the worker count). */
    double congestedQueueFraction = 0.25;
    /** EWMA smoothing of the per-run saturation samples. */
    double saturationAlpha = 0.25;
    /**
     * Second admission signal: workers sample how long each pool
     * acquisition blocked waiting for a machine, and an EWMA of those
     * waits above this threshold (seconds) tightens trySubmit's
     * effective bound exactly like queue saturation does. Jobs
     * waiting on machines mean pool capacity -- not queue depth -- is
     * the bottleneck, so adding depth would add latency only.
     */
    double poolWaitThresholdSeconds = 0.02;
    /**
     * Completions remembered by finishedIds(), newest-N ring. Bounds
     * the completion-order observable separately from result
     * retention so a long-lived server never grows it without limit.
     */
    std::size_t finishedHistoryLimit = 1024;
    /**
     * Job-lifecycle trace recorder (not owned; must outlive the
     * scheduler). Null disables tracing entirely; a non-null but
     * DISABLED recorder costs one relaxed load per lifecycle point
     * -- the default ExperimentService wiring.
     */
    JobTraceRecorder *trace = nullptr;
    /**
     * A shard is a steal victim only while it still has at least
     * this many unclaimed rounds (floored at 2 so the victim always
     * keeps one and the thief always gets one).
     */
    std::size_t minStealRounds = 4;
    /**
     * Minimum spacing between progress notifications per job (see
     * subscribeProgress). The first completed round after a
     * subscription notifies immediately; later rounds are coalesced
     * to at most one notification per interval, plus a final
     * unthrottled one when the job's last round completes. Zero
     * notifies on every completed round (tests).
     */
    std::chrono::milliseconds progressInterval{50};
};

class JobScheduler
{
  public:
    /**
     * Submit-to-finish latency summary of one priority class, over a
     * sliding window of the most recent completions (percentiles) and
     * the whole scheduler lifetime (count, max). All in seconds.
     */
    struct LatencyDigest
    {
        std::size_t count = 0;
        double p50 = 0.0;
        double p95 = 0.0;
        double max = 0.0;
    };

    struct Stats
    {
        std::size_t submitted = 0;
        std::size_t rejected = 0;
        std::size_t completed = 0;
        std::size_t failed = 0;
        /** Jobs cancelled while still queued (counted in failed). */
        std::size_t cancelled = 0;
        std::size_t queueHighWater = 0;
        /** Tasks that reused the previous task's lease (batching). */
        std::size_t batchedJobs = 0;
        /** Jobs split into more than one shard. */
        std::size_t shardedJobs = 0;
        /** Tasks executed: every shard, opaque jobs included. */
        std::size_t shardsExecuted = 0;
        /** Runs whose machine reported queue saturation. */
        std::size_t saturatedRuns = 0;
        /** Shards created by stealing a running shard's tail. */
        std::size_t shardsStolen = 0;
        /** Rounds handed to thieves by those steals. */
        std::size_t roundsStolen = 0;
        /** Machine cycles visited, summed over executed runs. */
        std::size_t eventsDispatched = 0;
        /** Stale timing-queue drops summed over executed runs. */
        std::size_t staleEventDrops = 0;
        /** Rounds served by control-schedule replay (a physics tape
         *  from the program cache) instead of a full machine run. */
        std::size_t roundsReplayed = 0;
        /** trySubmit rejections below the hard bound (admission). */
        std::size_t admissionSoftRejects = 0;
        /** Progress notifications queued to subscribers (not
         *  serialized into StatsFrame; a serving-side observable). */
        std::size_t progressNotifications = 0;
        /** Saturation EWMA at the time of the snapshot. */
        double machineSaturation = 0.0;
        /** Pool-acquisition wait EWMA (seconds) at the snapshot. */
        double poolWaitEwmaSeconds = 0.0;
        /** Submit->finish latency per priority class, indexed by
         *  the JobPriority value (Batch, Normal, High). */
        std::array<LatencyDigest, 3> latency{};
    };

    JobScheduler(SchedulerConfig config, MachinePool &pool,
                 ProgramCache &cache);
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Spawn the worker threads (idempotent). */
    void start();

    /** Enqueue a job; blocks while the queue is full. */
    JobId submit(JobSpec spec);
    /** Enqueue a job; nullopt when the (effective) bound is hit. */
    std::optional<JobId> trySubmit(JobSpec spec);
    /**
     * submit() that gives up after `timeout` if the queue stays at
     * the HARD bound (admission is not consulted, exactly like
     * submit). The serving layer loops on this so a shutdown can
     * interrupt a remote submit blocked behind a full queue; the
     * spec is only copied on a successful enqueue, so retries are
     * free.
     */
    std::optional<JobId> submitFor(const JobSpec &spec,
                                   std::chrono::milliseconds timeout);

    JobStatus status(JobId id) const;
    /** The result once the job finished, nullopt while in flight. */
    std::optional<JobResult> poll(JobId id) const;
    /** Block until the job finishes and return its result. */
    JobResult await(JobId id);
    /** Block until every submitted job has finished. */
    void drain();

    /**
     * Cancel a job that has not started running: its queued tasks are
     * removed and the job finishes as Failed with a "cancelled"
     * error, unblocking awaiters. Returns false (and does nothing)
     * once any part of the job is running or it already finished --
     * in-flight machine time is never interrupted. The serving layer
     * uses this to drop the queued work of a disconnected client.
     */
    bool cancel(JobId id);

    /**
     * One-shot completion callback: invoked with the job's id and
     * final result once the job finishes (Done or Failed, including
     * cancellation). Subscribing to an already-finished job delivers
     * immediately. The result arrives as a shared_ptr so a consumer
     * can hand it to another thread (e.g. a connection's writer, for
     * off-notifier-thread encoding) without copying the payload.
     * See subscribe() for the threading contract.
     */
    using CompletionCallback =
        std::function<void(JobId, std::shared_ptr<const JobResult>)>;

    /**
     * Register `callback` to fire on the job's completion -- the
     * push-notification primitive the serving layer builds result
     * streaming on, with no polling loop.
     *
     * Threading contract: callbacks run on the scheduler's dedicated
     * notifier thread, one at a time, in completion order (for an
     * already-finished job, in subscription order), never under the
     * scheduler mutex -- so a callback may call back into the
     * scheduler, but must not block for long (it would delay every
     * later notification; expensive per-result work belongs on the
     * consumer's own thread, which the shared_ptr makes cheap to
     * arrange). Multiple subscriptions per job are allowed. Unknown
     * ids fatal(), exactly like await(). Destruction of the
     * scheduler delivers every pending notification (shutdown-failed
     * jobs included) before the destructor returns.
     */
    void subscribe(JobId id, CompletionCallback callback);

    /**
     * Repeating progress callback: (job, roundsDone, roundsTotal)
     * snapshots taken under the scheduler mutex, so successive
     * deliveries for one job are monotonically non-decreasing --
     * work stealing moves unclaimed rounds between shards but never
     * un-completes one. roundsTotal is the spec's round count.
     */
    using ProgressCallback =
        std::function<void(JobId, std::size_t, std::size_t)>;

    /**
     * Register `callback` for round-completion progress, rate-limited
     * by SchedulerConfig::progressInterval. Unlike subscribe() this
     * is BEST-EFFORT and not one-shot: callbacks fire zero or more
     * times (a failed job gets no final frame; the completion push,
     * not a 100% notification, is the terminal signal) and ride the
     * same notifier thread in queue order -- every progress
     * notification for a job is delivered before its completion
     * notification. Subscribing to a job that is already Done queues
     * exactly one immediate (total, total) notification, so a
     * subscriber that then subscribe()s for the result still sees
     * done == total first. Unknown ids are ignored rather than
     * fatal: the serving layer subscribes in a race with bounded
     * retention. Subscriptions end with the job. An opaque job
     * (rounds == 0) has no rounds to report: its one frame is the
     * forced (0, 0) at finish.
     */
    void subscribeProgress(JobId id, ProgressCallback callback);

    Stats stats() const;

    /**
     * Register this scheduler's metric families with `registry`:
     * lifecycle counters (quma_jobs_*_total), point-in-time gauges
     * (queue depth, in-flight, effective capacity, admission EWMAs)
     * and the per-priority submit->finish latency histogram
     * quma_job_latency_seconds. Counter/histogram updates ride the
     * existing increment sites at a few relaxed atomics each; gauges
     * are callback series evaluated at scrape time. The scheduler
     * must outlive the registry's last render. Idempotent (handles
     * re-bind to the same cells).
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

    /** Tasks currently queued (the quma_queue_depth gauge). */
    std::size_t queueDepth() const;

    /**
     * Ids of finished jobs in completion order, oldest first -- a
     * ring of the last finishedHistoryLimit completions, bounded
     * independently of result retention. Diagnostics and tests: this
     * is how priority-ordering behaviour is observed.
     */
    std::vector<JobId> finishedIds() const;

    /**
     * The task bound trySubmit currently admits against: the full
     * queueCapacity while the pooled machines keep up, tightened to
     * congestedQueueFraction of it (floored at the worker count)
     * while their queue-saturation EWMA exceeds the threshold.
     */
    std::size_t effectiveQueueCapacity() const;

  private:
    /** Partial result of one shard: everything the deterministic
     *  merge needs, kept in round order. */
    struct ShardPartial
    {
        RoundRange range;
        /** Per-round per-bin collector sums, row-major. */
        std::vector<double> roundSums;
        std::vector<double> roundBitSums;
        /** Per-bin sample counts, summed over the shard's rounds. */
        std::vector<std::size_t> binCounts;
        std::vector<std::size_t> bitBinCounts;
        std::size_t samples = 0;
        core::RunResult run;
        std::string error;
    };

    /**
     * Live claim state of one shard (work stealing). The executing
     * worker claims rounds by advancing `cursor`; a thief shrinks
     * `end` and appends the stolen tail as a new shard. All mutation
     * happens under the scheduler mutex, so claimed ranges stay
     * contiguous by construction.
     */
    struct ShardProgress
    {
        std::size_t cursor = 0;
        std::size_t end = 0;
        /** A shard is stealable only while a worker is executing it
         *  (queued shards are picked up whole from the queue). */
        bool running = false;
    };

    struct Entry
    {
        std::shared_ptr<const JobSpec> spec;
        std::string key;
        JobStatus jobStatus = JobStatus::Queued;
        JobResult result;
        JobPriority priority = JobPriority::Normal;
        /** Submission sequence number (aging reference point). */
        std::size_t seq = 0;
        /** Submission instant (latency tracking reference point). */
        std::chrono::steady_clock::time_point submittedAt;
        /** Round ranges per shard (an opaque job has one, {0, 1}).
         *  Stolen shards are appended, so ranges are not sorted -- the
         *  merge orders partials by range.begin. */
        std::vector<RoundRange> shardRanges;
        std::vector<ShardPartial> partials;
        /** Parallel to shardRanges (work-stealing claim state). */
        std::vector<ShardProgress> progress;
        std::size_t shardsRemaining = 0;
        /** Rounds completed across every shard, stolen ranges
         *  included -- the per-shard claim windows cannot serve
         *  here because delivery zeroes them. Mutated under mu
         *  only, so progress snapshots are monotonic per job. */
        std::size_t roundsDone = 0;
        /** Last progress-notification instant (rate limiting);
         *  epoch = never notified, so the first round after a
         *  subscription notifies immediately. */
        std::chrono::steady_clock::time_point lastProgressAt{};
    };

    /** One queued unit of work: one shard of a job. */
    struct Task
    {
        JobId id = 0;
        std::uint32_t shard = 0;
    };

    /** One queued completion OR progress push: a completion carries
     *  the callback plus a private copy of the result (retention may
     *  evict the entry before the notifier thread gets to it); a
     *  progress push carries the progress callback and a
     *  (roundsDone, roundsTotal) snapshot instead. */
    struct Notification
    {
        JobId id = 0;
        std::shared_ptr<const JobResult> result;
        CompletionCallback callback;
        ProgressCallback progress;
        std::size_t roundsDone = 0;
        std::size_t roundsTotal = 0;
    };

    /** Machine-sampled signals aggregated over one task's runs. */
    struct RunSample
    {
        bool saturated = false;
        std::size_t eventsDispatched = 0;
        std::size_t staleDrops = 0;
        std::size_t roundsReplayed = 0;

        void
        absorb(const core::MachineStats &s, bool machine_saturated)
        {
            saturated = saturated || machine_saturated;
            eventsDispatched += s.cyclesVisited;
            staleDrops += s.queues.totalStaleDropped();
        }
    };

    void workerLoop();
    void notifierLoop();
    /** Move the job's subscriptions into the notifier queue. */
    void queueNotificationsLocked(JobId id, const JobResult &result);
    /** Count completed rounds and maybe queue progress pushes. */
    void noteRoundsDoneLocked(JobId id, Entry &entry,
                              std::size_t rounds = 1);
    /** Queue a progress snapshot for every subscriber (rate-limited
     *  unless `force` -- the final 100% push is forced). */
    void queueProgressLocked(JobId id, Entry &entry, bool force);
    /** Run a shard's rounds; `key` is the job's configKey. */
    ShardPartial runShard(const JobSpec &spec, const std::string &key,
                          core::QumaMachine &machine, JobId id,
                          std::uint32_t shard, RoundRange range,
                          RunSample &sample);
    /** Steal the tail half of the best victim shard, appending it as
     *  a new shard of its job; nullopt when nothing is stealable. */
    std::optional<Task> stealLocked();
    bool stealableLocked() const;
    /** Rounds a shard must still have unclaimed to be a victim. */
    std::size_t stealFloor() const
    {
        return std::max<std::size_t>(cfg.minStealRounds, 2);
    }
    /** Dequeue queue[slot] and mark its job and shard running. */
    Task takeLocked(std::size_t slot);
    /** Fold one task's machine samples into counters and EWMAs. */
    void noteRunLocked(const RunSample &sample);
    JobId enqueueLocked(JobSpec &&spec);
    /** record_latency = false for jobs that never executed
     *  (cancellations must not pollute the latency digests). */
    void finishLocked(JobId id, JobResult &&result,
                      bool record_latency = true);
    void deliverShardLocked(JobId id, std::uint32_t shard,
                            ShardPartial &&partial);
    void mergeShardsLocked(JobId id);
    /** Index of the highest-effective-priority queued task. */
    std::size_t pickBestLocked() const;
    long effectivePriorityLocked(const Entry &entry) const;
    void noteSaturationLocked(bool saturated);
    void notePoolWaitLocked(double seconds);
    void noteLatencyLocked(const Entry &entry);
    LatencyDigest latencyDigestLocked(std::size_t cls) const;
    std::size_t effectiveCapacityLocked() const;

    /** Exported-metric handles, no-ops until bindMetrics(). The
     *  names mirror Stats; see docs/observability.md for the
     *  catalogue. */
    struct Instruments
    {
        metrics::Counter submitted;
        metrics::Counter rejected;
        metrics::Counter admissionSoftRejects;
        metrics::Counter completed;
        metrics::Counter failed;
        metrics::Counter cancelled;
        metrics::Counter batchedJobs;
        metrics::Counter shardedJobs;
        metrics::Counter shardsExecuted;
        metrics::Counter saturatedRuns;
        metrics::Counter shardsStolen;
        metrics::Counter roundsStolen;
        metrics::Counter eventsDispatched;
        metrics::Counter roundsReplayed;
        /** Submit->finish latency, one series per priority class. */
        std::array<metrics::Histogram, 3> latency;
    };

    /** tracer->record guarded by the null check at every site. */
    void traceRecord(JobId id, TracePhase phase,
                     std::uint32_t shard = 0) const
    {
        if (tracer)
            tracer->record(id, phase, shard);
    }

    const SchedulerConfig cfg;
    MachinePool &pool;
    ProgramCache &cache;
    JobTraceRecorder *const tracer;
    Instruments ms;

    mutable std::mutex mu;
    std::condition_variable cvWork;
    std::condition_variable cvSpace;
    std::condition_variable cvDone;
    std::deque<Task> queue;
    std::unordered_map<JobId, Entry> entries;
    /** Jobs with a shard started at victim size -- the steal scan's
     *  candidate set, so idle workers never walk all entries. */
    std::unordered_set<JobId> activeSharded;
    /** Finished ids, oldest first (drives bounded result retention). */
    std::deque<JobId> finishedOrder;
    /** Completion-order observable, a ring of the newest
     *  finishedHistoryLimit ids (independent of retention). */
    std::deque<JobId> finishedHistory;
    JobId nextId = 1;
    std::size_t inFlight = 0;
    bool stop = false;
    bool started = false;
    Stats counters;
    /** EWMA of machine queue saturation over recent runs. */
    double saturationEwma = 0.0;
    /** EWMA of pool-acquisition waits (seconds). */
    double poolWaitEwma = 0.0;
    /** Sliding windows of submit->finish latencies per class. */
    std::array<std::vector<double>, 3> latencyWindow;
    std::array<std::size_t, 3> latencyWindowNext{};
    std::array<std::size_t, 3> latencyCount{};
    std::array<double, 3> latencyMax{};
    /** Completion subscriptions still waiting for their job. */
    std::unordered_map<JobId, std::vector<CompletionCallback>>
        subscriptions;
    /** Progress subscriptions of still-running jobs (NOT one-shot;
     *  erased when the job finishes). */
    std::unordered_map<JobId, std::vector<ProgressCallback>>
        progressSubs;
    /** Fired-but-undelivered notifications, completion order. */
    std::deque<Notification> notifyQueue;
    std::condition_variable cvNotify;
    /** Set (after the workers are joined) to end the notifier. */
    bool notifierStop = false;
    std::vector<std::thread> workers;
    std::thread notifier;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_SCHEDULER_HH
