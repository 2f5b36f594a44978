#include "runtime/scheduler.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"

namespace quma::runtime {

namespace {

/** EWMA smoothing of the per-run saturation samples. */
constexpr double kSaturationAlpha = 0.25;
/** Saturation EWMA above this tightens trySubmit's bound. */
constexpr double kSaturationThreshold = 0.5;
/** trySubmit's bound while congested, as a queueCapacity fraction
 *  (floored at the worker count). */
constexpr double kCongestedQueueFraction = 0.25;

bool
queueSaturated(const timing::QueueSaturation &q)
{
    // pushFailed is the backpressure signal proper: the producer hit
    // a full queue and had to retry. Stale drops are the same story
    // from the consumer side -- payloads silently discarded because
    // the machine fell behind its own time points. High-water alone
    // is not enough (a healthy pipeline is expected to run the
    // queues deep).
    return q.pushFailed > 0 || q.staleDropped > 0;
}

/** Did this run drive any timing event queue into backpressure? */
bool
machineSaturated(const core::MachineStats &s)
{
    if (queueSaturated(s.queues.timing) || queueSaturated(s.queues.mpg))
        return true;
    for (const auto &q : s.queues.pulse)
        if (queueSaturated(q))
            return true;
    for (const auto &q : s.queues.md)
        if (queueSaturated(q))
            return true;
    return false;
}

} // namespace

JobScheduler::JobScheduler(SchedulerConfig config, ProgramCache &cache_)
    : cfg(config), cache(cache_), tracer(config.trace)
{
    if (cfg.workers == 0)
        fatal("JobScheduler needs at least one worker");
    if (cfg.queueCapacity == 0)
        fatal("JobScheduler needs a positive queue capacity");
    // The notifier runs even while paused: subscriptions on jobs
    // cancelled before start() still deliver.
    notifier = std::thread([this] { notifierLoop(); });
    if (!cfg.startPaused)
        start();
}

JobScheduler::~JobScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stop = true;
        // Tasks still queued will never run: fail their jobs so
        // awaiters unblock with a diagnosable result. A job with
        // shards already running is failed here too; the late shard
        // deliveries see the Failed status and drop their partials.
        for (const Task &t : queue) {
            auto it = entries.find(t.id);
            if (it == entries.end())
                continue;
            Entry &e = it->second;
            if (e.jobStatus == JobStatus::Done ||
                e.jobStatus == JobStatus::Failed)
                continue;
            e.jobStatus = JobStatus::Failed;
            e.result = JobResult{};
            e.result.error = kShutdownJobError;
            e.spec.reset();
            e.partials.clear();
            e.shardRanges.clear();
            e.progress.clear();
            ++counters.failed;
            // Shutdown failures notify too: a subscriber is promised
            // exactly one callback per job, however the job ends.
            queueNotificationsLocked(t.id, e.result);
        }
        queue.clear();
    }
    cvWork.notify_all();
    cvSpace.notify_all();
    cvDone.notify_all();
    for (auto &w : workers)
        w.join();
    // Only after the last worker is gone can no further completion
    // arrive; the notifier drains what is queued, then exits.
    {
        std::lock_guard<std::mutex> lock(mu);
        notifierStop = true;
    }
    cvNotify.notify_all();
    notifier.join();
}

void
JobScheduler::subscribe(JobId id, CompletionCallback callback)
{
    if (!callback)
        fatal("subscribe needs a callback");
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(id);
        if (it == entries.end())
            fatal("unknown job id ", id);
        const Entry &e = it->second;
        if (e.jobStatus == JobStatus::Done ||
            e.jobStatus == JobStatus::Failed) {
            // Already finished: deliver through the same notifier
            // thread so the ordering contract holds either way.
            Notification n;
            n.id = id;
            n.result = std::make_shared<const JobResult>(e.result);
            n.callback = std::move(callback);
            notifyQueue.push_back(std::move(n));
        } else {
            subscriptions[id].push_back(std::move(callback));
            return;
        }
    }
    cvNotify.notify_all();
}

void
JobScheduler::subscribeProgress(JobId id, ProgressCallback callback)
{
    if (!callback)
        fatal("subscribeProgress needs a callback");
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(id);
        // Best-effort by design: an id that aged out of retention, or
        // a failed job, simply never notifies -- its completion push
        // (or UnknownJob error) is the remaining signal.
        if (it == entries.end())
            return;
        const Entry &e = it->second;
        if (e.jobStatus == JobStatus::Failed)
            return;
        if (e.jobStatus != JobStatus::Done) {
            progressSubs[id].push_back(std::move(callback));
            return;
        }
        // Already done: the final done == total frame finishLocked
        // pushed went to earlier subscribers, so queue this one its
        // own copy. finishLocked left roundsDone at the spec's total.
        Notification n;
        n.id = id;
        n.progress = std::move(callback);
        n.roundsDone = e.roundsDone;
        n.roundsTotal = e.roundsDone;
        notifyQueue.push_back(std::move(n));
        ++counters.progressNotifications;
    }
    cvNotify.notify_all();
}

void
JobScheduler::noteRoundsDoneLocked(JobId id, Entry &entry,
                                   std::size_t rounds)
{
    entry.roundsDone += rounds;
    if (!progressSubs.empty())
        queueProgressLocked(id, entry, /*force=*/false);
}

void
JobScheduler::queueProgressLocked(JobId id, Entry &entry, bool force)
{
    auto it = progressSubs.find(id);
    if (it == progressSubs.end() || !entry.spec)
        return;
    auto now = std::chrono::steady_clock::now();
    if (!force &&
        entry.lastProgressAt !=
            std::chrono::steady_clock::time_point{} &&
        now - entry.lastProgressAt < cfg.progressInterval)
        return;
    entry.lastProgressAt = now;
    for (const ProgressCallback &cb : it->second) {
        Notification n;
        n.id = id;
        n.progress = cb;
        n.roundsDone = entry.roundsDone;
        n.roundsTotal = entry.spec->rounds;
        notifyQueue.push_back(std::move(n));
        ++counters.progressNotifications;
    }
    cvNotify.notify_all();
}

void
JobScheduler::queueNotificationsLocked(JobId id,
                                       const JobResult &result)
{
    auto it = subscriptions.find(id);
    if (it == subscriptions.end())
        return;
    // One shared copy of the result serves every subscriber of this
    // job; the copy (not the entry) is what the notifier hands out,
    // so bounded retention may evict the entry meanwhile.
    auto shared = std::make_shared<const JobResult>(result);
    for (CompletionCallback &cb : it->second) {
        Notification n;
        n.id = id;
        n.result = shared;
        n.callback = std::move(cb);
        notifyQueue.push_back(std::move(n));
    }
    subscriptions.erase(it);
    cvNotify.notify_all();
}

void
JobScheduler::notifierLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cvNotify.wait(lock, [this] {
            return notifierStop || !notifyQueue.empty();
        });
        if (notifyQueue.empty())
            return; // notifierStop and fully drained
        Notification n = std::move(notifyQueue.front());
        notifyQueue.pop_front();
        lock.unlock();
        // Outside the mutex: the callback may call back into the
        // scheduler (poll, stats, even subscribe) without deadlock.
        if (n.progress) {
            try {
                n.progress(n.id, n.roundsDone, n.roundsTotal);
            } catch (const std::exception &ex) {
                warn("progress callback for job ", n.id,
                     " threw: ", ex.what());
            }
        } else {
            try {
                n.callback(n.id, n.result);
            } catch (const std::exception &ex) {
                warn("completion callback for job ", n.id,
                     " threw: ", ex.what());
            }
            traceRecord(n.id, TracePhase::ResultPushed);
        }
        lock.lock();
    }
}

void
JobScheduler::start()
{
    std::lock_guard<std::mutex> lock(mu);
    if (started)
        return;
    started = true;
    for (unsigned i = 0; i < cfg.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

JobId
JobScheduler::enqueueLocked(JobSpec &&spec)
{
    JobId id = nextId++;
    Entry e;
    e.key = configKey(spec.machine);
    e.priority = spec.priority;
    e.seq = counters.submitted;
    e.submittedAt = std::chrono::steady_clock::now();
    // One task per shard; an opaque job is one shard of one round.
    // shards == 0 asks for the widest useful split, one per worker.
    std::size_t shards = spec.shards ? spec.shards : cfg.workers;
    e.shardRanges = partitionRounds(std::max<std::size_t>(spec.rounds, 1),
                                    shards, spec.minRoundsPerShard);
    e.partials.resize(e.shardRanges.size());
    e.progress.reserve(e.shardRanges.size());
    for (const RoundRange &range : e.shardRanges)
        e.progress.push_back({range.begin, range.end, false});
    e.shardsRemaining = e.shardRanges.size();
    if (e.shardRanges.size() > 1)
        ++counters.shardedJobs;
    e.spec = std::make_shared<const JobSpec>(std::move(spec));
    for (std::size_t s = 0; s < e.shardRanges.size(); ++s)
        queue.push_back({id, static_cast<std::uint32_t>(s)});
    entries.emplace(id, std::move(e));
    counters.queueHighWater =
        std::max(counters.queueHighWater, queue.size());
    ++counters.submitted;
    // Every enqueue passed its gate (queue-space wait or admission
    // control) and entered the queue in the same breath; the three
    // lifecycle points coincide by construction here, but stay
    // distinct phases so traces read against the documented model.
    traceRecord(id, TracePhase::Submitted);
    traceRecord(id, TracePhase::Admitted);
    traceRecord(id, TracePhase::Queued);
    return id;
}

JobId
JobScheduler::submit(JobSpec spec)
{
    std::unique_lock<std::mutex> lock(mu);
    cvSpace.wait(lock, [this] {
        return stop || queue.size() < cfg.queueCapacity;
    });
    if (stop)
        fatal("submit on a stopped scheduler");
    JobId id = enqueueLocked(std::move(spec));
    lock.unlock();
    cvWork.notify_all();
    return id;
}

std::optional<JobId>
JobScheduler::submitFor(const JobSpec &spec,
                        std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mu);
    bool space = cvSpace.wait_for(lock, timeout, [this] {
        return stop || queue.size() < cfg.queueCapacity;
    });
    if (!space)
        return std::nullopt;
    if (stop)
        fatal("submit on a stopped scheduler");
    JobId id = enqueueLocked(JobSpec(spec));
    lock.unlock();
    cvWork.notify_all();
    return id;
}

std::optional<JobId>
JobScheduler::trySubmit(JobSpec spec)
{
    std::unique_lock<std::mutex> lock(mu);
    std::size_t bound = effectiveCapacityLocked();
    if (stop || queue.size() >= bound) {
        ++counters.rejected;
        if (!stop && bound < cfg.queueCapacity &&
            queue.size() < cfg.queueCapacity)
            ++counters.admissionSoftRejects;
        return std::nullopt;
    }
    JobId id = enqueueLocked(std::move(spec));
    lock.unlock();
    cvWork.notify_all();
    return id;
}

JobStatus
JobScheduler::status(JobId id) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(id);
    if (it == entries.end())
        fatal("unknown job id ", id);
    return it->second.jobStatus;
}

std::optional<JobResult>
JobScheduler::poll(JobId id) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(id);
    if (it == entries.end())
        fatal("unknown job id ", id);
    const Entry &e = it->second;
    if (e.jobStatus == JobStatus::Done ||
        e.jobStatus == JobStatus::Failed)
        return e.result;
    return std::nullopt;
}

JobResult
JobScheduler::await(JobId id)
{
    std::unique_lock<std::mutex> lock(mu);
    if (entries.find(id) == entries.end())
        fatal("unknown job id ", id);
    // Re-resolve per wake-up: bounded retention may erase the entry
    // while we are blocked (it finished, then aged out).
    cvDone.wait(lock, [&] {
        auto it = entries.find(id);
        return it == entries.end() ||
               it->second.jobStatus == JobStatus::Done ||
               it->second.jobStatus == JobStatus::Failed;
    });
    auto it = entries.find(id);
    if (it == entries.end())
        fatal("job ", id, " finished but its result aged out of the ",
              "bounded retention before await could read it");
    return it->second.result;
}

void
JobScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    cvDone.wait(lock,
                [this] { return queue.empty() && inFlight == 0; });
}

bool
JobScheduler::cancel(JobId id)
{
    std::unique_lock<std::mutex> lock(mu);
    auto it = entries.find(id);
    if (it == entries.end())
        return false;
    Entry &e = it->second;
    // Only a fully queued job can be cancelled: once any shard is
    // running the machine time is committed and the merge machinery
    // owns the entry.
    if (e.jobStatus != JobStatus::Queued)
        return false;
    std::erase_if(queue, [id](const Task &t) { return t.id == id; });
    ++counters.cancelled;
    JobResult r;
    r.error = kCancelledJobError;
    // A cancelled job never ran: recording its queue-residence as a
    // "latency" would drag the histograms toward zero.
    finishLocked(id, std::move(r), /*record_latency=*/false);
    lock.unlock();
    cvSpace.notify_all();
    cvDone.notify_all();
    return true;
}

void
JobScheduler::bindMetrics(metrics::MetricsRegistry &registry)
{
    // Each series reads its Stats or PoolStats field under mu at
    // render time (not stats(), which copies every field).
    auto stat = [this](std::size_t Stats::*field) {
        return [this, field] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.*field);
        };
    };
    auto poolStat = [this](std::size_t PoolStats::*field) {
        return [this, field] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(pool.*field);
        };
    };
    auto counter = [&registry](const char *name, const char *help,
                               std::function<double()> fn) {
        registry.counterFn(name, help, {}, std::move(fn));
    };
    counter("quma_jobs_submitted_total",
            "Jobs accepted by a submit path (one per assigned job id).",
            stat(&Stats::submitted));
    counter("quma_submit_rejected_total",
            "trySubmit rejections, hard-bound and admission together.",
            stat(&Stats::rejected));
    counter("quma_admission_soft_rejects_total",
            "trySubmit rejections below the hard queue bound (the "
            "stats-driven admission controller said no).",
            stat(&Stats::admissionSoftRejects));
    counter("quma_jobs_completed_total",
            "Jobs finished with a successful result.",
            stat(&Stats::completed));
    counter("quma_jobs_failed_total",
            "Jobs finished Failed (errors, cancellations, shutdown).",
            stat(&Stats::failed));
    counter("quma_jobs_cancelled_total",
            "Jobs cancelled while still fully queued.",
            stat(&Stats::cancelled));
    counter("quma_jobs_sharded_total",
            "Jobs split into more than one shard.",
            stat(&Stats::shardedJobs));
    counter("quma_shards_executed_total",
            "Tasks executed: every shard, opaque jobs included.",
            stat(&Stats::shardsExecuted));
    counter("quma_saturated_runs_total",
            "Runs whose machine reported timing-queue backpressure.",
            stat(&Stats::saturatedRuns));
    counter("quma_shards_stolen_total",
            "Shards created by splitting a running shard's unclaimed "
            "round tail onto an idle worker.",
            stat(&Stats::shardsStolen));
    counter("quma_rounds_stolen_total",
            "Rounds moved between workers by shard stealing.",
            stat(&Stats::roundsStolen));
    counter("quma_machine_cycles_visited_total",
            "Cycles visited by the event loops of machines running jobs.",
            stat(&Stats::eventsDispatched));
    counter("quma_rounds_replayed_total",
            "Rounds served by control-schedule replay of a verified "
            "physics tape instead of a full machine run.",
            stat(&Stats::roundsReplayed));
    counter("quma_pool_acquisitions_total",
            "Tasks that bound their worker's machine (reuse hits + "
            "builds + rebinds).",
            poolStat(&PoolStats::acquisitions));
    counter("quma_pool_reuse_hits_total",
            "Tasks whose config the worker's machine was already bound "
            "to.",
            poolStat(&PoolStats::reuseHits));
    counter("quma_pool_machines_created_total",
            "Machines constructed, calibration upload included (at most "
            "one per worker).",
            poolStat(&PoolStats::machinesCreated));
    counter("quma_pool_rebinds_total",
            "Worker machines rebound to a task of another config.",
            poolStat(&PoolStats::rebinds));
    counter("quma_pool_machine_resets_total",
            "QumaMachine::reset() calls: one per round, one per tape "
            "check.",
            poolStat(&PoolStats::machineResets));
    static constexpr const char *kClassNames[3] = {"batch", "normal",
                                                   "high"};
    for (std::size_t cls = 0; cls < counters.latency.size(); ++cls)
        registry.histogramFn("quma_job_latency_seconds",
                             "Submit->finish latency by priority class.",
                             {{"priority", kClassNames[cls]}},
                             [this, cls] {
                                 std::lock_guard<std::mutex> lock(mu);
                                 return counters.latency[cls];
                             });

    registry.gaugeFn("quma_queue_depth",
                     "Tasks currently queued (sharded jobs hold one "
                     "slot per shard).",
                     {}, [this] {
                         return static_cast<double>(queueDepth());
                     });
    registry.gaugeFn("quma_jobs_in_flight",
                     "Tasks currently executing on workers.", {},
                     [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return static_cast<double>(inFlight);
                     });
    registry.gaugeFn("quma_queue_capacity_effective",
                     "Task bound trySubmit currently admits against.",
                     {}, [this] {
                         return static_cast<double>(
                             effectiveQueueCapacity());
                     });
    registry.gaugeFn("quma_machine_saturation_ewma",
                     "EWMA of machine queue-saturation samples "
                     "(admission signal 1).",
                     {}, [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return saturationEwma;
                     });
    registry.gaugeFn("quma_pool_machines_idle",
                     "Built worker machines between tasks.", {}, [this] {
                         PoolStats p = poolStats();
                         return static_cast<double>(p.idleMachines);
                     });
    registry.gaugeFn("quma_pool_machines_leased",
                     "Built worker machines running a task.", {},
                     poolStat(&PoolStats::leasedMachines));
}

std::size_t
JobScheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu);
    return queue.size();
}

JobScheduler::Stats
JobScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s = counters;
    s.machineSaturation = saturationEwma;
    return s;
}

PoolStats
JobScheduler::poolStats() const
{
    std::lock_guard<std::mutex> lock(mu);
    PoolStats p = pool;
    p.idleMachines = p.machinesCreated - p.leasedMachines;
    return p;
}

std::vector<JobId>
JobScheduler::finishedIds() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {finishedHistory.begin(), finishedHistory.end()};
}

std::size_t
JobScheduler::effectiveQueueCapacity() const
{
    std::lock_guard<std::mutex> lock(mu);
    return effectiveCapacityLocked();
}

std::size_t
JobScheduler::effectiveCapacityLocked() const
{
    // Machines running their timing queues into backpressure mean
    // more queue depth would buy latency, not throughput.
    if (saturationEwma <= kSaturationThreshold)
        return cfg.queueCapacity;
    auto tightened = static_cast<std::size_t>(
        static_cast<double>(cfg.queueCapacity) *
        kCongestedQueueFraction);
    tightened = std::max<std::size_t>(tightened, cfg.workers);
    return std::min(tightened, cfg.queueCapacity);
}

void
JobScheduler::noteSaturationLocked(bool saturated)
{
    if (saturated)
        ++counters.saturatedRuns;
    saturationEwma = (1.0 - kSaturationAlpha) * saturationEwma +
                     kSaturationAlpha * (saturated ? 1.0 : 0.0);
}

void
JobScheduler::noteLatencyLocked(const Entry &entry)
{
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      entry.submittedAt)
            .count();
    counters.latency[static_cast<std::size_t>(entry.priority)].observe(
        seconds);
}

long
JobScheduler::effectivePriorityLocked(const Entry &entry) const
{
    long p = static_cast<long>(entry.priority);
    if (cfg.agingQuantum > 0)
        p += static_cast<long>((counters.submitted - entry.seq) /
                               cfg.agingQuantum);
    return p;
}

std::size_t
JobScheduler::pickBestLocked() const
{
    std::size_t best = 0;
    long bestPrio = std::numeric_limits<long>::min();
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Entry &e = entries.at(queue[i].id);
        long p = effectivePriorityLocked(e);
        if (p > bestPrio) {
            best = i;
            bestPrio = p;
            continue;
        }
        if (p == bestPrio) {
            const Entry &b = entries.at(queue[best].id);
            // Tie: oldest submission first; within one job, shards
            // in round order.
            if (e.seq < b.seq ||
                (e.seq == b.seq && queue[i].shard < queue[best].shard))
                best = i;
        }
    }
    return best;
}

void
JobScheduler::finishLocked(JobId id, JobResult &&result,
                           bool record_latency)
{
    Entry &e = entries.at(id);
    if (record_latency)
        noteLatencyLocked(e);
    bool failed = result.failed();
    // Final progress push, unthrottled and ahead of the completion
    // notification in the FIFO notifier queue: subscribers always see
    // done == total before the result lands. An opaque job (its one
    // round is not counted) reports exactly this one frame, (0, 0).
    if (!failed && e.spec) {
        e.roundsDone = e.spec->rounds;
        queueProgressLocked(id, e, /*force=*/true);
    }
    e.result = std::move(result);
    e.jobStatus = failed ? JobStatus::Failed : JobStatus::Done;
    // Free the program/source copies and any shard bookkeeping.
    e.spec.reset();
    e.partials.clear();
    e.shardRanges.clear();
    e.progress.clear();
    activeSharded.erase(id);
    if (failed)
        ++counters.failed;
    else
        ++counters.completed;
    traceRecord(id, TracePhase::Finished);
    // A finished job's progress subscriptions end here; the queued
    // progress notifications (including the forced 100% one) are
    // already ahead of the completion push in the notifier queue.
    progressSubs.erase(id);
    // Push the result to completion subscribers (the notifier thread
    // delivers outside the mutex). Before the retention loop below:
    // it may evict this very entry.
    queueNotificationsLocked(id, e.result);
    // Bounded retention: a long-lived service must not accumulate one
    // result per job forever. Oldest finished results age out; an
    // await/poll on an aged-out id reports an unknown job.
    finishedOrder.push_back(id);
    while (finishedOrder.size() > cfg.maxRetainedResults) {
        entries.erase(finishedOrder.front());
        finishedOrder.pop_front();
    }
    // The completion-order observable is its own, typically much
    // smaller, ring: last N completions only.
    finishedHistory.push_back(id);
    while (finishedHistory.size() > cfg.finishedHistoryLimit)
        finishedHistory.pop_front();
}

void
JobScheduler::deliverShardLocked(JobId id, std::uint32_t shard,
                                 ShardPartial &&partial)
{
    auto it = entries.find(id);
    if (it == entries.end())
        return;
    Entry &e = it->second;
    // The job may already be failed (scheduler shutdown while this
    // shard was running): drop the late partial.
    if (e.jobStatus == JobStatus::Done ||
        e.jobStatus == JobStatus::Failed)
        return;
    // The shard is no longer a steal victim; zero its claim window
    // so any unclaimed rounds of a FAILED shard are not stolen and
    // run after the job's fate is already sealed.
    if (shard < e.progress.size())
        e.progress[shard] = {0, 0, false};
    e.partials[shard] = std::move(partial);
    quma_assert(e.shardsRemaining > 0, "shard delivered twice");
    if (--e.shardsRemaining == 0)
        mergeShardsLocked(id); // finishLocked forces the 100% push
}

/**
 * Deterministic merge: re-sum the per-round collector sums in global
 * round order. Every shard holds a contiguous round range (stealing
 * splits ranges but never interleaves them) and the shards are
 * visited sorted by range start, so the floating-point additions
 * happen in exactly the sequence round 0, 1, ..., N-1 -- the SAME
 * sequence for every partition, which is what makes the merged sums
 * (and hence the averages) bit-identical across 1-way, 2-way and
 * 4-way splits, however stealing rebalanced them, at any worker
 * count. An opaque job's single partial merges to itself: 0.0 + x is
 * x, and the first RunResult fold copies.
 */
void
JobScheduler::mergeShardsLocked(JobId id)
{
    traceRecord(id, TracePhase::Merge);
    Entry &e = entries.at(id);
    const JobSpec &spec = *e.spec;
    std::size_t bins = spec.bins ? spec.bins : 1;

    // Stolen shards were appended as they were split off; restore
    // global round order before merging.
    std::vector<const ShardPartial *> order;
    order.reserve(e.partials.size());
    for (const ShardPartial &p : e.partials)
        order.push_back(&p);
    std::sort(order.begin(), order.end(),
              [](const ShardPartial *a, const ShardPartial *b) {
                  return a->range.begin < b->range.begin;
              });

    JobResult merged;
    for (const ShardPartial *p : order) {
        if (!p->error.empty()) {
            merged.error = "shard covering rounds " +
                           std::to_string(p->range.begin) + ".." +
                           std::to_string(p->range.end) +
                           " failed: " + p->error;
            break;
        }
    }

    if (merged.error.empty()) {
        std::vector<double> sums(bins, 0.0);
        std::vector<double> bitSums(bins, 0.0);
        std::vector<std::size_t> cnt(bins, 0);
        std::vector<std::size_t> bitCnt(bins, 0);
        bool first = true;
        for (const ShardPartial *pp : order) {
            const ShardPartial &p = *pp;
            // Defensive: a shard whose rounds were all stolen away
            // before it ran contributes nothing (cannot happen with
            // the current claim rules, which always leave the victim
            // at least one round -- but an empty partial must never
            // poison the halted AND below).
            if (p.range.size() == 0 && p.samples == 0)
                continue;
            std::size_t rows = p.range.size();
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t b = 0; b < bins; ++b) {
                    sums[b] += p.roundSums[r * bins + b];
                    bitSums[b] += p.roundBitSums[r * bins + b];
                }
            for (std::size_t b = 0; b < bins; ++b) {
                cnt[b] += p.binCounts[b];
                bitCnt[b] += p.bitBinCounts[b];
            }
            merged.run.accumulate(p.run, first);
            first = false;
            merged.sampleCount += p.samples;
        }
        merged.averages.assign(bins, 0.0);
        merged.bitAverages.assign(bins, 0.0);
        for (std::size_t b = 0; b < bins; ++b) {
            if (cnt[b] > 0)
                merged.averages[b] =
                    sums[b] / static_cast<double>(cnt[b]);
            if (bitCnt[b] > 0)
                merged.bitAverages[b] =
                    bitSums[b] / static_cast<double>(bitCnt[b]);
        }
    }

    finishLocked(id, std::move(merged));
}

JobScheduler::ShardPartial
JobScheduler::runShard(const JobSpec &spec, const std::string &key,
                       core::QumaMachine &machine, JobId id,
                       std::uint32_t shard, RoundRange range,
                       RunSample &sample)
{
    ShardPartial p;
    // The claimed range grows round by round; claims are contiguous
    // from range.begin, so [range.begin, p.range.end) is always
    // exactly the rounds this partial holds.
    p.range = {range.begin, range.begin};
    std::size_t bins = spec.bins ? spec.bins : 1;
    p.binCounts.assign(bins, 0);
    p.bitBinCounts.assign(bins, 0);
    p.roundSums.reserve(range.size() * bins);
    p.roundBitSums.reserve(range.size() * bins);
    try {
        // cached keeps the assembled program alive for the loop; a
        // pre-built program lives in spec, which outlives the run.
        std::shared_ptr<const isa::Program> cached;
        const isa::Program *program;
        if (spec.program) {
            program = &*spec.program;
        } else {
            cached = cache.assemble(spec.assembly);
            program = cached.get();
        }

        // Control-schedule replay (quma/tape.hh): only a program from
        // the cache takes part. The tape layer is asked round by
        // round until it settles this shard: a tape to replay, or a
        // rejection. A first sighting runs in full; the next one
        // runs the check.
        std::shared_ptr<const core::PhysicsTape> tape;
        bool tapeSettled = !cached;
        bool tapeSaturated = false;

        bool first = true;
        // The previous iteration's round is counted as DONE under
        // the next claim's mutex hold (the loop re-enters it even to
        // discover the shard is exhausted), so the progress counter
        // rides the lock the claim already takes.
        bool countPrev = false;
        for (;;) {
            std::size_t r;
            {
                // Claim the next round under the scheduler mutex:
                // the shard's window may have shrunk (a thief took
                // the tail) or vanished (the job failed at
                // shutdown). Claims stay contiguous because only
                // this worker advances the cursor.
                std::lock_guard<std::mutex> claim(mu);
                auto it = entries.find(id);
                if (it == entries.end())
                    break;
                Entry &e = it->second;
                if (countPrev) {
                    noteRoundsDoneLocked(id, e);
                    countPrev = false;
                }
                if (shard >= e.progress.size())
                    break; // job already finished/failed
                ShardProgress &pr = e.progress[shard];
                if (pr.cursor >= pr.end)
                    break;
                r = pr.cursor++;
            }
            // Every round is a full session with its OWN RNG streams
            // derived from (seed, round): the draws a round sees
            // never depend on which machine it ran on or which
            // rounds preceded it there, so any partition of the
            // rounds -- including one rebalanced by stealing --
            // replays them exactly.
            const RoundStreams streams = roundStreams(spec.rounds, r);
            const std::uint64_t chipSeed =
                Rng::derive(spec.seed, streams.chip);
            const std::uint64_t execSeed =
                Rng::derive(spec.seed, streams.exec);
            machine.reset(chipSeed, execSeed);
            ++sample.machineResets;
            if (!tapeSettled) {
                ProgramCache::TapeLookup found =
                    cache.tape(spec.assembly, key, spec.maxCycles);
                tape = std::move(found.tape);
                if (found.verify) {
                    tape = core::verifyTape(machine, *program, bins,
                                            spec.maxCycles);
                    cache.storeTape(spec.assembly, key, tape,
                                    spec.maxCycles);
                    machine.reset(chipSeed, execSeed);
                    ++sample.machineResets;
                }
                tapeSettled = tape || found.verify || found.rejected;
                if (tape)
                    tapeSaturated = machineSaturated(tape->stats);
            }
            // A tape covers the job only if its budget lets the run
            // finish as the taped one did.
            const bool replayed =
                tape && spec.maxCycles >= tape->result.cyclesRun;
            machine.configureDataCollection(bins);
            machine.loadProgram(*program);
            core::RunResult rr = replayed ? machine.replay(*tape)
                                          : machine.run(spec.maxCycles);
            p.run.accumulate(rr, first);
            first = false;

            const auto &dc = machine.dataCollector();
            const auto &sums = dc.binSums();
            const auto &bitSums = dc.bitBinSums();
            const auto &cnt = dc.binCounts();
            const auto &bitCnt = dc.bitBinCounts();
            p.roundSums.insert(p.roundSums.end(), sums.begin(),
                               sums.end());
            p.roundBitSums.insert(p.roundBitSums.end(),
                                  bitSums.begin(), bitSums.end());
            for (std::size_t b = 0; b < bins; ++b) {
                p.binCounts[b] += cnt[b];
                p.bitBinCounts[b] += bitCnt[b];
            }
            p.samples += dc.sampleCount();
            // loadProgram re-arms the timing unit (clearing its
            // counters), so saturation must be sampled per round. A
            // replayed round visits no cycles and reports the
            // zero-stall check run's saturation: the most
            // backpressured draw.
            if (replayed) {
                sample.saturated = sample.saturated || tapeSaturated;
                ++sample.roundsReplayed;
            } else {
                auto st = machine.stats();
                sample.absorb(st, machineSaturated(st));
            }
            p.range.end = r + 1;
            // An opaque job's one round is not progress: roundsTotal
            // is 0, and its one frame is the forced (0, 0) at finish.
            countPrev = spec.rounds > 0;
        }
    } catch (const std::exception &ex) {
        p = ShardPartial{};
        p.range = range;
        p.error = ex.what();
    }
    return p;
}

bool
JobScheduler::stealableLocked() const
{
    std::size_t floor = stealFloor();
    for (JobId id : activeSharded) {
        auto it = entries.find(id);
        if (it == entries.end())
            continue;
        for (const ShardProgress &pr : it->second.progress)
            if (pr.running && pr.end > pr.cursor &&
                pr.end - pr.cursor >= floor)
                return true;
    }
    return false;
}

std::optional<JobScheduler::Task>
JobScheduler::stealLocked()
{
    std::size_t floor = stealFloor();
    JobId bestId = 0;
    std::size_t bestShard = 0;
    std::size_t bestRemaining = 0;
    for (JobId id : activeSharded) {
        auto it = entries.find(id);
        if (it == entries.end())
            continue;
        const Entry &e = it->second;
        for (std::size_t s = 0; s < e.progress.size(); ++s) {
            const ShardProgress &pr = e.progress[s];
            if (!pr.running || pr.end <= pr.cursor)
                continue;
            std::size_t remaining = pr.end - pr.cursor;
            if (remaining >= floor && remaining > bestRemaining) {
                bestRemaining = remaining;
                bestId = id;
                bestShard = s;
            }
        }
    }
    if (bestRemaining == 0)
        return std::nullopt;

    // Split the victim's unclaimed tail in half. The victim always
    // keeps at least one round (stolen < remaining), so no partial
    // ever ends up empty.
    Entry &e = entries.at(bestId);
    ShardProgress &v = e.progress[bestShard];
    std::size_t stolen = (v.end - v.cursor) / 2;
    std::size_t mid = v.end - stolen;
    std::size_t oldEnd = v.end;
    v.end = mid;
    auto shardIdx = static_cast<std::uint32_t>(e.shardRanges.size());
    e.shardRanges.push_back({mid, oldEnd});
    e.partials.emplace_back();
    // Marked running immediately: the thief executes it without a
    // queue round-trip, and its own tail is stealable meanwhile.
    e.progress.push_back({mid, oldEnd, true});
    ++e.shardsRemaining;
    ++counters.shardsStolen;
    counters.roundsStolen += stolen;
    return Task{bestId, shardIdx};
}

void
JobScheduler::noteRunLocked(const RunSample &sample)
{
    noteSaturationLocked(sample.saturated);
    counters.eventsDispatched += sample.eventsDispatched;
    counters.staleEventDrops += sample.staleDrops;
    counters.roundsReplayed += sample.roundsReplayed;
    pool.machineResets += sample.machineResets;
}

JobScheduler::Task
JobScheduler::takeLocked(std::size_t slot)
{
    Task task = queue[slot];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(slot));
    Entry &entry = entries.at(task.id);
    entry.jobStatus = JobStatus::Running;
    entry.progress[task.shard].running = true;
    // Only a shard that can be a steal victim joins the steal scan's
    // candidate set; an opaque job's one-round shard never can.
    if (entry.shardRanges[task.shard].size() >= stealFloor())
        activeSharded.insert(task.id);
    return task;
}

void
JobScheduler::workerLoop()
{
    // This worker's machine: built at its first task, rebound to each
    // task whose config differs from the one it is bound to.
    std::unique_ptr<core::QumaMachine> machine;
    std::string boundKey;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cvWork.wait(lock, [this] {
            return stop || !queue.empty() || stealableLocked();
        });
        if (stop)
            return;

        Task task;
        if (!queue.empty()) {
            task = takeLocked(pickBestLocked());
        } else {
            // Queue drained but a running shard has rounds to spare:
            // split its tail off as a fresh shard and run it here,
            // without a queue round-trip.
            auto stolen = stealLocked();
            if (!stolen)
                continue; // raced with the victim finishing
            task = *stolen;
        }
        const Entry &entry = entries.at(task.id);
        std::shared_ptr<const JobSpec> spec = entry.spec;
        const std::string key = entry.key;
        const RoundRange range = entry.shardRanges[task.shard];
        ++inFlight;
        lock.unlock();
        cvSpace.notify_one();
        // A shard started at victim size is a steal candidate: wake
        // idle workers so they can carve it up.
        if (range.size() >= stealFloor())
            cvWork.notify_all();

        bool built = false;
        bool rebound = false;
        std::string unavailable;
        try {
            if (!machine) {
                auto m = std::make_unique<core::QumaMachine>(spec->machine);
                m->uploadStandardCalibration(cache.lutProvider(),
                                             cache.mduProvider());
                machine = std::move(m);
                built = true;
            } else if (key != boundKey) {
                machine->rebind(spec->machine);
                rebound = true;
            }
            boundKey = key;
        } catch (const std::exception &ex) {
            // The config was rejected: fail THIS task and keep the
            // machine bound to its old config. Letting the exception
            // leave the thread would terminate the whole service.
            unavailable = std::string("machine unavailable: ") + ex.what();
        }

        lock.lock();
        ++pool.acquisitions;
        if (!unavailable.empty()) {
            ShardPartial p;
            p.range = range;
            p.error = std::move(unavailable);
            deliverShardLocked(task.id, task.shard, std::move(p));
            --inFlight;
            cvDone.notify_all();
            continue;
        }
        if (built)
            ++pool.machinesCreated;
        else if (rebound)
            ++pool.rebinds;
        else
            ++pool.reuseHits;
        ++pool.leasedMachines;
        lock.unlock();

        traceRecord(task.id, TracePhase::Leased, task.shard);
        RunSample sample;
        traceRecord(task.id, TracePhase::ShardStart, task.shard);
        ShardPartial partial = runShard(*spec, key, *machine, task.id,
                                        task.shard, range, sample);
        traceRecord(task.id, TracePhase::ShardFinish, task.shard);
        lock.lock();
        --pool.leasedMachines;
        ++counters.shardsExecuted;
        deliverShardLocked(task.id, task.shard, std::move(partial));
        noteRunLocked(sample);
        --inFlight;
        cvDone.notify_all();
    }
}

} // namespace quma::runtime
