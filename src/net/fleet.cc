#include "net/fleet.hh"

#include <algorithm>

#include "common/logging.hh"

namespace quma::net {

namespace {

/** Shed a trySubmit when the routed backend's machine-saturation
 *  EWMA is at/over this (its scheduler would soft-reject anyway). */
constexpr double kShedSaturation = 0.9;
/** Same, for the pool-wait EWMA (seconds). */
constexpr double kShedPoolWaitSeconds = 0.5;
/** splitmix64 finalizer: the rendezvous-score mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** FNV-1a over a string, mixed: the affinity/name hash. */
std::uint64_t
hashKey(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return mix64(h);
}

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::shared_ptr<const runtime::JobResult>
failedResult(std::string why)
{
    auto r = std::make_shared<runtime::JobResult>();
    r->error = std::move(why);
    return r;
}

/**
 * Fold one backend's stats into the fleet view: counters and
 * capacities SUM (fleet totals), load signals and percentiles MAX
 * (the fleet is as saturated as its worst member -- summing EWMAs
 * would manufacture load no backend reports).
 */
void
mergeStats(runtime::ServiceStats &acc, const runtime::ServiceStats &s)
{
    auto &a = acc.scheduler;
    const auto &x = s.scheduler;
    a.submitted += x.submitted;
    a.rejected += x.rejected;
    a.completed += x.completed;
    a.failed += x.failed;
    a.cancelled += x.cancelled;
    a.queueHighWater += x.queueHighWater;
    a.batchedJobs += x.batchedJobs;
    a.shardedJobs += x.shardedJobs;
    a.shardsExecuted += x.shardsExecuted;
    a.saturatedRuns += x.saturatedRuns;
    a.shardsStolen += x.shardsStolen;
    a.roundsStolen += x.roundsStolen;
    a.eventsDispatched += x.eventsDispatched;
    a.staleEventDrops += x.staleEventDrops;
    a.roundsReplayed += x.roundsReplayed;
    a.admissionSoftRejects += x.admissionSoftRejects;
    a.progressNotifications += x.progressNotifications;
    a.machineSaturation =
        std::max(a.machineSaturation, x.machineSaturation);
    a.poolWaitEwmaSeconds =
        std::max(a.poolWaitEwmaSeconds, x.poolWaitEwmaSeconds);
    for (std::size_t i = 0; i < a.latency.size(); ++i) {
        a.latency[i].count += x.latency[i].count;
        a.latency[i].p50 = std::max(a.latency[i].p50, x.latency[i].p50);
        a.latency[i].p95 = std::max(a.latency[i].p95, x.latency[i].p95);
        a.latency[i].max = std::max(a.latency[i].max, x.latency[i].max);
    }
    auto &ap = acc.pool;
    const auto &xp = s.pool;
    ap.machinesCreated += xp.machinesCreated;
    ap.acquisitions += xp.acquisitions;
    ap.reuseHits += xp.reuseHits;
    ap.evictions += xp.evictions;
    ap.machineResets += xp.machineResets;
    ap.idleMachines += xp.idleMachines;
    ap.leasedMachines += xp.leasedMachines;
    auto &ac = acc.cache;
    const auto &xc = s.cache;
    ac.programHits += xc.programHits;
    ac.programMisses += xc.programMisses;
    ac.programEvictions += xc.programEvictions;
    ac.lutHits += xc.lutHits;
    ac.lutMisses += xc.lutMisses;
    ac.lutEvictions += xc.lutEvictions;
    ac.mduHits += xc.mduHits;
    ac.mduMisses += xc.mduMisses;
    ac.tapeHits += xc.tapeHits;
    ac.tapeMisses += xc.tapeMisses;
    ac.tapeRejections += xc.tapeRejections;
    acc.effectiveQueueCapacity += s.effectiveQueueCapacity;
}

} // namespace

GatewayBackend
tcpBackend(const std::string &host, std::uint16_t port)
{
    GatewayBackend b;
    b.name = host + ":" + std::to_string(port);
    b.connect = [host, port] { return tcpConnect(host, port); };
    return b;
}

// --- construction / lifecycle -----------------------------------------------

FleetBackend::FleetBackend(std::vector<GatewayBackend> backend_list,
                           std::chrono::milliseconds health_interval,
                           std::size_t max_retained_results)
    : healthInterval(health_interval),
      maxRetainedResults(max_retained_results)
{
    if (backend_list.empty())
        fatal("FleetBackend needs at least one backend");
    if (maxRetainedResults == 0)
        fatal("FleetBackend must retain at least one result");
    for (auto &gb : backend_list) {
        auto m = std::make_unique<Member>();
        m->cfg = std::move(gb);
        m->nameHash = hashKey(m->cfg.name);
        members.push_back(std::move(m));
    }
    // Probe everything once BEFORE serving: a backend that is down at
    // connect time must be out of the rotation from the first job.
    for (auto &m : members)
        refreshBackend(*m);
    health = std::thread([this] { healthLoop(); });
}

FleetBackend::~FleetBackend() { stop(); }

bool
FleetBackend::stopping() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stopped;
}

void
FleetBackend::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopped = true;
    }
    // Close the links first, outside every lock: that unblocks a
    // health probe or submit stuck behind a full backend, and fails
    // pending requests, whose callbacks take mu (and see `stopped`).
    std::vector<std::shared_ptr<QumaClient>> links;
    for (auto &m : members) {
        std::lock_guard<std::mutex> lock(m->linkMu);
        for (std::shared_ptr<QumaClient> *l : {&m->link, &m->control})
            if (*l)
                links.push_back(std::move(*l));
    }
    for (auto &l : links)
        l->disconnect();
    cvHealth.notify_all();
    if (health.joinable())
        health.join();
    {
        std::lock_guard<std::mutex> lock(mu);
        links.insert(links.end(), retired.begin(), retired.end());
        retired.clear();
    }
    links.clear(); // joins the readers, with mu released
}

bool
FleetBackend::setDraining(const std::string &name, bool draining)
{
    for (auto &m : members)
        if (m->cfg.name == name) {
            m->draining.store(draining);
            return true;
        }
    return false;
}

// --- health -----------------------------------------------------------------

std::shared_ptr<QumaClient>
FleetBackend::controlLink(Member &m) const
{
    std::shared_ptr<QumaClient> dead; // joined after the lock is gone
    std::lock_guard<std::mutex> lock(m.linkMu);
    if (m.control && m.control->connected())
        return m.control;
    if (stopping()) // stop() already collected the links
        throw WireError("fleet stopping");
    dead = std::move(m.control);
    m.control = std::make_shared<QumaClient>(m.cfg.connect());
    return m.control;
}

void
FleetBackend::refreshBackend(Member &m) const
{
    bool ok = false;
    try {
        runtime::ServiceStats s = controlLink(m)->stats();
        std::lock_guard<std::mutex> lock(m.statsMu);
        m.lastStats = s;
        m.haveStats = true;
        m.statsAt = std::chrono::steady_clock::now();
        ok = true;
    } catch (const std::exception &) {
        // Unreachable or mid-restart: unhealthy until a probe works.
    }
    m.healthy.store(ok, std::memory_order_relaxed);
}

void
FleetBackend::healthLoop()
{
    for (;;) {
        std::vector<std::shared_ptr<QumaClient>> dead;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvHealth.wait_for(lock, healthInterval,
                              [this] { return stopped; });
            if (stopped)
                return;
            dead.swap(retired);
        }
        // Joins the dead links' readers: never on their own thread.
        dead.clear();
        for (std::size_t i = 0; i < members.size(); ++i) {
            refreshBackend(*members[i]);
            // A link that died with nothing pending fired no
            // callback: its unawaited jobs fail over from here.
            std::shared_ptr<QumaClient> link = linkOf(i);
            if (link && !link->connected())
                linkDied(i, link.get());
        }
    }
}

runtime::ServiceStats
FleetBackend::fleetStats(std::chrono::milliseconds max_age) const
{
    const auto now = std::chrono::steady_clock::now();
    runtime::ServiceStats merged;
    for (const auto &mp : members) {
        Member &m = *mp;
        bool fresh;
        {
            std::lock_guard<std::mutex> lock(m.statsMu);
            fresh = m.haveStats && now - m.statsAt <= max_age;
        }
        if (!fresh)
            refreshBackend(m);
        std::lock_guard<std::mutex> lock(m.statsMu);
        // A dead backend contributes its last known snapshot: fleet
        // counters must not dip when a member goes away.
        if (m.haveStats)
            mergeStats(merged, m.lastStats);
    }
    return merged;
}

runtime::ServiceStats
FleetBackend::stats() const
{
    // An explicit stats request earns accuracy, not the health
    // loop's cache (which serves shedding and metrics callbacks).
    return fleetStats(std::chrono::milliseconds(0));
}

FleetBackend::Counters
FleetBackend::counters() const
{
    Counters c;
    c.requestsForwarded = requestsForwarded.load(std::memory_order_relaxed);
    c.resultsForwarded = resultsForwarded.load(std::memory_order_relaxed);
    c.jobsShed = jobsShed.load(std::memory_order_relaxed);
    c.jobsResubmitted = jobsResubmitted.load(std::memory_order_relaxed);
    c.failovers = failovers.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &[id, job] : jobs)
            if (!job.finished)
                ++c.jobsInFlight;
    }
    for (const auto &m : members) {
        BackendSnapshot snap;
        snap.name = m->cfg.name;
        snap.healthy = m->healthy.load(std::memory_order_relaxed);
        snap.draining = m->draining.load(std::memory_order_relaxed);
        snap.jobsRouted = m->jobsRouted.load(std::memory_order_relaxed);
        snap.jobsResubmittedAway =
            m->resubmittedAway.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(m->statsMu);
        snap.haveStats = m->haveStats;
        if (m->haveStats)
            snap.lastStats = m->lastStats;
        c.backends.push_back(std::move(snap));
    }
    return c;
}

// --- routing ----------------------------------------------------------------

std::optional<std::size_t>
FleetBackend::chooseBackend(std::uint64_t affinity,
                            std::size_t exclude) const
{
    std::optional<std::size_t> best;
    std::uint64_t bestScore = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const Member &m = *members[i];
        if (i == exclude || !m.healthy.load(std::memory_order_relaxed) ||
            m.draining.load(std::memory_order_relaxed))
            continue;
        // Rendezvous (highest-random-weight) hashing: stable under
        // membership change -- only keys whose winner left remap.
        std::uint64_t score = mix64(affinity ^ m.nameHash);
        if (!best || score > bestScore) {
            best = i;
            bestScore = score;
        }
    }
    return best;
}

bool
FleetBackend::backendSaturated(std::size_t index) const
{
    Member &m = *members[index];
    std::lock_guard<std::mutex> lock(m.statsMu);
    return m.haveStats &&
           (m.lastStats.scheduler.machineSaturation >= kShedSaturation ||
            m.lastStats.scheduler.poolWaitEwmaSeconds >=
                kShedPoolWaitSeconds);
}

std::shared_ptr<QumaClient>
FleetBackend::linkOf(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(members[index]->linkMu);
    return members[index]->link;
}

std::shared_ptr<QumaClient>
FleetBackend::connectLink(std::size_t index)
{
    std::shared_ptr<QumaClient> link = linkOf(index);
    if (link && link->connected())
        return link;
    if (link)
        linkDied(index, link.get());
    Member &m = *members[index];
    std::lock_guard<std::mutex> lock(m.linkMu);
    if (!m.link) {
        if (stopping()) // stop() already collected the links
            throw WireError("fleet stopping");
        m.link = std::make_shared<QumaClient>(m.cfg.connect());
    }
    return m.link;
}

runtime::JobId
FleetBackend::mint(Job job)
{
    std::lock_guard<std::mutex> lock(mu);
    const runtime::JobId id = nextId++;
    jobs.emplace(id, std::move(job));
    return id;
}

void
FleetBackend::retire(runtime::JobId id, Job &job)
{
    if (job.finished)
        return;
    job.finished = true;
    job.spec.reset();
    job.progress.clear();
    finishedOrder.push_back(id);
    if (finishedOrder.size() > maxRetainedResults) {
        jobs.erase(finishedOrder.front());
        finishedOrder.pop_front();
    }
}

// --- submit -----------------------------------------------------------------

std::optional<runtime::JobId>
FleetBackend::submitFor(const runtime::JobSpec &spec,
                        std::chrono::milliseconds, std::uint64_t trace_id)
{
    Job job;
    job.affinity = hashKey(runtime::configKey(spec.machine));
    job.traceId = trace_id;
    job.spec = std::make_shared<const runtime::JobSpec>(spec);
    const runtime::JobId id = mint(std::move(job));
    if (!place(id)) {
        std::lock_guard<std::mutex> lock(mu);
        jobs.erase(id);
        throw WireError("no healthy backend");
    }
    return id;
}

bool
FleetBackend::place(runtime::JobId id, std::size_t exclude)
{
    for (std::size_t attempt = 0; attempt < members.size(); ++attempt) {
        std::uint64_t affinity;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = jobs.find(id);
            if (it == jobs.end())
                return true; // forgotten: nobody can ask for it
            affinity = it->second.affinity;
        }
        std::optional<std::size_t> pick = chooseBackend(affinity, exclude);
        if (!pick)
            return false;
        std::shared_ptr<QumaClient> link;
        try {
            link = connectLink(*pick);
        } catch (const std::exception &) {
            members[*pick]->healthy.store(false, std::memory_order_relaxed);
            continue; // next-best backend
        }
        std::uint64_t epoch;
        std::uint64_t traceId;
        std::shared_ptr<const runtime::JobSpec> spec;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = jobs.find(id);
            if (it == jobs.end())
                return true;
            Job &job = it->second;
            epoch = ++job.epoch;
            job.member = *pick;
            job.remoteId = 0;
            job.awaiting = false;
            traceId = job.traceId;
            spec = job.spec;
        }
        members[*pick]->jobsRouted.fetch_add(1, std::memory_order_relaxed);
        requestsForwarded.fetch_add(1, std::memory_order_relaxed);
        const std::size_t index = *pick;
        const QumaClient *raw = link.get();
        try {
            link->submitAsync(
                *spec, traceId,
                [this, id, epoch, index, raw](
                    std::optional<runtime::JobId> remote,
                    std::string why) {
                    onAck(id, epoch, index, raw, remote, why);
                });
        } catch (const std::exception &ex) {
            // A dead link fails the job over; a live one refused to
            // encode it, so the spec itself cannot travel.
            if (!failOver(id, epoch, index, raw))
                finish(id, epoch, failedResult(ex.what()), true);
        }
        return true;
    }
    return false;
}

void
FleetBackend::onAck(runtime::JobId id, std::uint64_t epoch,
                    std::size_t index, const QumaClient *link,
                    std::optional<runtime::JobId> remote,
                    const std::string &why)
{
    if (!remote) {
        if (!failOver(id, epoch, index, link))
            finish(id, epoch,
                   failedResult("backend refused the job: " + why), true);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it == jobs.end() || it->second.epoch != epoch)
            return;
        it->second.remoteId = *remote;
    }
    forwardAwait(id);
}

std::optional<runtime::JobId>
FleetBackend::trySubmit(runtime::JobSpec spec, std::uint64_t trace_id)
{
    Job job;
    job.affinity = hashKey(runtime::configKey(spec.machine));
    std::optional<std::size_t> pick = chooseBackend(job.affinity);
    std::shared_ptr<QumaClient> link;
    if (pick && !backendSaturated(*pick)) {
        try {
            link = connectLink(*pick);
        } catch (const std::exception &) {
            members[*pick]->healthy.store(false, std::memory_order_relaxed);
        }
    }
    if (!link) {
        // Nothing to route to, or the backend's own admission would
        // soft-reject: shed here and save the round trip.
        jobsShed.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    members[*pick]->jobsRouted.fetch_add(1, std::memory_order_relaxed);
    requestsForwarded.fetch_add(1, std::memory_order_relaxed);
    std::optional<runtime::JobId> remote = link->trySubmit(spec, trace_id);
    if (!remote)
        return std::nullopt; // backend-side admission rejection
    job.member = *pick;
    job.remoteId = *remote;
    job.epoch = 1;
    job.traceId = trace_id;
    job.spec = std::make_shared<const runtime::JobSpec>(std::move(spec));
    return mint(std::move(job));
}

// --- results ----------------------------------------------------------------

void
FleetBackend::subscribeProgress(runtime::JobId id,
                                ProgressCallback callback)
{
    // Best-effort like the scheduler's: unknown ids are ignored.
    std::lock_guard<std::mutex> lock(mu);
    auto it = jobs.find(id);
    if (it != jobs.end() && !it->second.finished)
        it->second.progress.push_back(std::move(callback));
}

void
FleetBackend::subscribe(runtime::JobId id, CompletionCallback callback)
{
    std::shared_ptr<const runtime::JobResult> lost;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it == jobs.end())
            fatal("unknown job id ", id, " at the gateway");
        lost = it->second.lost;
        if (!lost)
            it->second.waiting.push_back(std::move(callback));
    }
    if (lost)
        callback(id, std::move(lost));
    else
        forwardAwait(id);
}

void
FleetBackend::forwardAwait(runtime::JobId id)
{
    std::uint64_t epoch;
    std::size_t index;
    runtime::JobId remote;
    std::vector<ProgressCallback> progress;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it == jobs.end())
            return;
        Job &job = it->second;
        // An in-flight subscription delivers to every waiter; an
        // unacked (re)submission forwards once acked.
        if (job.waiting.empty() || job.awaiting || job.remoteId == 0)
            return;
        job.awaiting = true;
        epoch = job.epoch;
        index = job.member;
        remote = job.remoteId;
        progress = job.progress;
    }
    std::shared_ptr<QumaClient> link = linkOf(index);
    if (!link) {
        // Retired under us: its failover moved this job on already.
        rehome(id, epoch, index);
        return;
    }
    const QumaClient *raw = link.get();
    requestsForwarded.fetch_add(1, std::memory_order_relaxed);
    try {
        if (!progress.empty())
            link->subscribeProgress(
                remote, [id, progress](runtime::JobId, std::size_t done,
                                       std::size_t total) {
                    // Under the FLEET id: the one its client knows.
                    for (const ProgressCallback &fn : progress)
                        fn(id, done, total);
                });
        link->subscribe(
            remote, [this, id, epoch, index, raw](
                        runtime::JobId,
                        std::shared_ptr<const runtime::JobResult> result) {
                // A failure from a dead link is the link's, not the
                // job's (and a real one reproduces on the re-run).
                if (!result->failed() || !failOver(id, epoch, index, raw))
                    finish(id, epoch, std::move(result), false);
            });
    } catch (const std::exception &) {
        // Only a dead connection refuses to send an await.
        failOver(id, epoch, index, raw);
    }
}

void
FleetBackend::finish(runtime::JobId id, std::uint64_t epoch,
                     std::shared_ptr<const runtime::JobResult> result,
                     bool lost)
{
    std::vector<CompletionCallback> waiting;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopped)
            return;
        auto it = jobs.find(id);
        if (it == jobs.end() || it->second.epoch != epoch)
            return;
        Job &job = it->second;
        waiting.swap(job.waiting);
        job.awaiting = false;
        if (lost)
            job.lost = result;
        retire(id, job);
    }
    if (!lost)
        resultsForwarded.fetch_add(waiting.size(),
                                   std::memory_order_relaxed);
    for (CompletionCallback &fn : waiting)
        fn(id, result);
}

// --- failover ---------------------------------------------------------------

void
FleetBackend::linkDied(std::size_t index, const QumaClient *link)
{
    Member &m = *members[index];
    {
        std::lock_guard<std::mutex> lock(m.linkMu);
        if (m.link.get() != link)
            return; // already failed over (or never current)
        std::lock_guard<std::mutex> jobsLock(mu);
        if (stopped)
            return;
        // Destroyed by the health thread: this may be the link's own
        // reader thread, which cannot join itself.
        retired.push_back(std::move(m.link));
    }
    m.healthy.store(false, std::memory_order_relaxed);
    failovers.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::pair<runtime::JobId, std::uint64_t>> stranded;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &[id, job] : jobs)
            if (job.member == index && !job.finished)
                stranded.emplace_back(id, job.epoch);
    }
    for (const auto &[id, epoch] : stranded)
        rehome(id, epoch, index);
}

bool
FleetBackend::failOver(runtime::JobId id, std::uint64_t epoch,
                       std::size_t index, const QumaClient *link)
{
    if (link->connected())
        return false;
    linkDied(index, link);
    rehome(id, epoch, index);
    return true;
}

void
FleetBackend::rehome(runtime::JobId id, std::uint64_t epoch,
                     std::size_t index)
{
    bool finished;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (stopped || it == jobs.end() || it->second.epoch != epoch)
            return;
        finished = it->second.finished;
    }
    if (finished) {
        // A re-await of a delivered job lost its backend: the spec
        // is gone, answer the waiters with a failure.
        finish(id, epoch,
               failedResult("backend lost the finished job's result"),
               false);
        return;
    }
    jobsResubmitted.fetch_add(1, std::memory_order_relaxed);
    members[index]->resubmittedAway.fetch_add(1, std::memory_order_relaxed);
    if (!place(id, index))
        finish(id, epoch,
               failedResult("backend lost and no healthy backend left "
                            "for failover"),
               true);
}

// --- status / poll / cancel -------------------------------------------------

std::optional<FleetBackend::Placement>
FleetBackend::locate(runtime::JobId id) const
{
    Placement at;
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it == jobs.end())
            return std::nullopt;
        at.lost = it->second.lost;
        at.epoch = it->second.epoch;
        at.remote = it->second.remoteId;
        index = it->second.member;
    }
    // No backend id (or no link) = a failover window: the job's
    // (re)submission is on the way.
    if (at.remote != 0 && !at.lost)
        at.link = linkOf(index);
    if (at.link)
        requestsForwarded.fetch_add(1, std::memory_order_relaxed);
    return at;
}

runtime::JobStatus
FleetBackend::status(runtime::JobId id) const
{
    std::optional<Placement> at = locate(id);
    if (!at)
        fatal("unknown job id ", id, " at the gateway");
    if (at->lost)
        return runtime::JobStatus::Failed;
    try {
        if (at->link)
            return at->link->status(at->remote);
    } catch (const WireError &) {
    }
    return runtime::JobStatus::Queued;
}

std::optional<runtime::JobResult>
FleetBackend::poll(runtime::JobId id) const
{
    std::optional<Placement> at = locate(id);
    if (!at)
        fatal("unknown job id ", id, " at the gateway");
    if (at->lost)
        return *at->lost;
    try {
        if (at->link)
            return at->link->poll(at->remote);
    } catch (const WireError &) {
    }
    return std::nullopt;
}

bool
FleetBackend::cancel(runtime::JobId id)
{
    // Unknown ids answer false, like the scheduler's cancel; so does
    // a failover window (the resubmission is already racing this).
    std::optional<Placement> at = locate(id);
    bool ok = false;
    try {
        ok = at && at->link && at->link->cancel(at->remote);
    } catch (const WireError &) {
    }
    if (ok) {
        // The backend finishes it as cancelled (a waiting
        // subscription still delivers that); nothing to fail over.
        std::lock_guard<std::mutex> lock(mu);
        auto it = jobs.find(id);
        if (it != jobs.end() && it->second.epoch == at->epoch &&
            it->second.waiting.empty())
            retire(id, it->second);
    }
    return ok;
}

// --- trace ------------------------------------------------------------------

std::uint64_t
FleetBackend::traceNowNanos() const
{
    return steadyNanos();
}

runtime::TraceDump
FleetBackend::traceDump() const
{
    runtime::TraceDump merged;
    // (backend, backend id) -> fleet id, for the jobs still tracked.
    std::vector<std::unordered_map<runtime::JobId, runtime::JobId>> fleetIdOf(
        members.size());
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &[id, job] : jobs) {
            if (job.remoteId != 0)
                fleetIdOf[job.member][job.remoteId] = id;
            if (job.traceId != 0)
                merged.traceIds.emplace_back(id, job.traceId);
        }
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
        runtime::TraceDump dump;
        std::int64_t offset;
        try {
            std::shared_ptr<QumaClient> control = controlLink(*members[i]);
            // Midpoint clock alignment, as QumaClient::clockSync.
            const std::uint64_t t0 = steadyNanos();
            const std::uint64_t remoteNow = control->traceNowNanos();
            const std::uint64_t t1 = steadyNanos();
            offset = static_cast<std::int64_t>(remoteNow) -
                     static_cast<std::int64_t>(t0 / 2 + t1 / 2);
            dump = control->traceDump();
        } catch (const std::exception &) {
            continue; // an unreachable backend's trace is lost
        }
        merged.dropped += dump.dropped;
        const auto &ids = fleetIdOf[i];
        for (runtime::TraceEvent e : dump.events) {
            auto it = ids.find(e.job);
            if (it == ids.end())
                continue; // not a fleet job (or no longer tracked)
            e.job = it->second;
            const std::int64_t local =
                static_cast<std::int64_t>(e.nanos) - offset;
            e.nanos = static_cast<std::uint64_t>(std::max<std::int64_t>(local, 0));
            merged.events.push_back(e);
        }
    }
    return merged;
}

} // namespace quma::net
