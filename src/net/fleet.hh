/**
 * @file
 * FleetBackend: N QumaServer backends behind one
 * runtime::IExperimentBackend -- what the gateway serves
 * (net/gateway.hh; docs/fleet.md is the operator contract).
 *
 * ROUTING. Submits route by CONFIG AFFINITY: rendezvous hashing of
 * runtime::configKey(spec.machine) over the healthy, non-draining
 * backends, so one machine configuration lands where its program
 * cache and tapes are warm, and a membership change only
 * remaps the keys that touched it.
 *
 * JOBS. Each backend is reached through one shared QumaClient (its
 * data link) carrying every client's job requests; a second one (its
 * control link) carries health probes, stats and trace dumps, so none
 * of them queues behind a submit blocked on that backend. The fleet mints its own job ids (backend id sequences would
 * collide) and maps each to (backend, backend id). submitFor()
 * returns once the Submit is on the wire, without waiting for the
 * SubmitReply, so pipelined sweeps stay pipelined; a full backend
 * queue blocks that send, which is the client's backpressure.
 * Completion subscriptions are forwarded once the backend id is
 * known.
 *
 * LIFECYCLE. A health thread probes every backend's stats each
 * healthInterval; drain() removes a backend from routing while its jobs finish. When a link
 * dies, every unfinished job placed there is resubmitted from its
 * stored spec to the next affinity choice and its subscriptions are
 * re-issued: fleet ids never change, and determinism makes the
 * re-run bit-identical, so failover is invisible.
 *
 * trySubmit is shed locally when the routed backend's admission
 * EWMAs say it is saturated. stats() and traceDump() merge the
 * backends' (trace events clock-aligned and re-keyed to fleet ids).
 */

#ifndef QUMA_NET_FLEET_HH
#define QUMA_NET_FLEET_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.hh"
#include "net/transport.hh"
#include "runtime/backend.hh"

namespace quma::net {

/** One routable backend: a name (stable identity for metrics and
 *  drain commands) plus how to reach it. */
struct GatewayBackend
{
    std::string name;
    /** Open a fresh wire connection (throws WireError when the
     *  backend is unreachable -- that IS the health signal). */
    std::function<std::unique_ptr<ByteStream>()> connect;
};

/** Convenience: a TCP backend named "host:port". */
GatewayBackend tcpBackend(const std::string &host, std::uint16_t port);

class FleetBackend final : public runtime::IExperimentBackend
{
  public:
    /** Point-in-time view of one backend. */
    struct BackendSnapshot
    {
        std::string name;
        bool healthy = false;
        bool draining = false;
        /** lastStats holds a real (possibly stale) snapshot. */
        bool haveStats = false;
        runtime::ServiceStats lastStats;
        /** Submits routed here (failover resubmissions included). */
        std::size_t jobsRouted = 0;
        /** Jobs moved OFF this backend by failover. */
        std::size_t jobsResubmittedAway = 0;
    };

    struct Counters
    {
        /** Job requests sent to backends (submit, await, status,
         *  poll, cancel). */
        std::size_t requestsForwarded = 0;
        /** Backend results handed to completion subscribers. */
        std::size_t resultsForwarded = 0;
        /** trySubmits rejected locally. */
        std::size_t jobsShed = 0;
        std::size_t jobsResubmitted = 0;
        /** Dead links that triggered failover. */
        std::size_t failovers = 0;
        /** Tracked jobs not yet finished. */
        std::size_t jobsInFlight = 0;
        std::vector<BackendSnapshot> backends;
    };

    /** Finished jobs remembered at most, oldest forgotten first --
     *  SchedulerConfig::maxRetainedResults' default, past which a
     *  backend could not answer for an old id anyway. Unfinished
     *  jobs are never forgotten. */
    static constexpr std::size_t kRetainedResults = 65536;

    /**
     * Probe every backend once (so routing has a health picture
     * before the first job), then keep probing every
     * `health_interval` until stop(). At least one backend is
     * required; `max_retained_results` (at least 1) bounds the
     * finished jobs remembered (see kRetainedResults).
     */
    FleetBackend(std::vector<GatewayBackend> backend_list,
                 std::chrono::milliseconds health_interval,
                 std::size_t max_retained_results = kRetainedResults);
    ~FleetBackend() override;

    FleetBackend(const FleetBackend &) = delete;
    FleetBackend &operator=(const FleetBackend &) = delete;

    /** Close every link and join all threads (idempotent); later
     *  submits throw WireError. */
    void stop();

    std::optional<runtime::JobId>
    trySubmit(runtime::JobSpec spec,
              std::uint64_t trace_id = 0) override;
    /** Never times out: returns the minted id once the Submit is on
     *  the wire; throws WireError when no backend is healthy. */
    std::optional<runtime::JobId>
    submitFor(const runtime::JobSpec &spec,
              std::chrono::milliseconds timeout,
              std::uint64_t trace_id) override;
    runtime::JobStatus status(runtime::JobId id) const override;
    std::optional<runtime::JobResult>
    poll(runtime::JobId id) const override;
    bool cancel(runtime::JobId id) override;
    void subscribe(runtime::JobId id,
                   CompletionCallback callback) override;
    void subscribeProgress(runtime::JobId id,
                           ProgressCallback callback) override;
    /** The merged fleet view, freshly probed (fleetStats(0)). */
    runtime::ServiceStats stats() const override;
    runtime::TraceDump traceDump() const override;
    std::uint64_t traceNowNanos() const override;

    /**
     * Take a backend out of routing (new jobs avoid it; in-flight
     * jobs keep running and their results still flow back). False
     * when no backend has that name.
     */
    bool drain(const std::string &name) { return setDraining(name, true); }
    /** Put a drained backend back into routing. */
    bool
    undrain(const std::string &name)
    {
        return setDraining(name, false);
    }

    /**
     * Per-backend stats no older than `max_age`, merged -- counters
     * and capacities summed, latency histograms merged bucket-wise,
     * EWMAs max-combined.
     * Stale backends are refreshed synchronously through their
     * control link; an unreachable backend contributes its last
     * known snapshot (or nothing).
     */
    runtime::ServiceStats
    fleetStats(std::chrono::milliseconds max_age) const;

    Counters counters() const;

  private:
    struct Member
    {
        GatewayBackend cfg;
        std::uint64_t nameHash = 0;
        std::atomic<bool> healthy{false};
        std::atomic<bool> draining{false};
        std::atomic<std::size_t> jobsRouted{0};
        std::atomic<std::size_t> resubmittedAway{0};
        /** Guards `link` and `control`, never held across a send
         *  (senders hold their own reference while on the wire). */
        std::mutex linkMu;
        /** Job requests: submit, await, status, poll, cancel. */
        std::shared_ptr<QumaClient> link;
        /** Health probes, stats and trace dumps. */
        std::shared_ptr<QumaClient> control;
        std::mutex statsMu;
        bool haveStats = false;
        runtime::ServiceStats lastStats;
        std::chrono::steady_clock::time_point statsAt{};
    };

    struct Job
    {
        std::size_t member = 0;
        /** 0 while a (re)submission is unacked. */
        runtime::JobId remoteId = 0;
        /** Bumped per (re)submission: callbacks of an earlier
         *  placement see a different epoch and drop out. */
        std::uint64_t epoch = 0;
        std::uint64_t affinity = 0;
        std::uint64_t traceId = 0;
        /** Kept until the job finishes, for failover. */
        std::shared_ptr<const runtime::JobSpec> spec;
        std::vector<CompletionCallback> waiting;
        std::vector<ProgressCallback> progress;
        /** A backend subscription for `waiting` is in flight. */
        bool awaiting = false;
        /** Result delivered, job cancelled, or job lost. */
        bool finished = false;
        /** The failed result of a job the fleet lost. */
        std::shared_ptr<const runtime::JobResult> lost;
    };

    /** Where a job lives (see locate()). */
    struct Placement
    {
        runtime::JobId remote = 0;
        std::uint64_t epoch = 0;
        std::shared_ptr<const runtime::JobResult> lost;
        /** Null without a live backend id to ask. */
        std::shared_ptr<QumaClient> link;
    };

    void healthLoop();
    /** Stats probe; updates healthy/lastStats. */
    void refreshBackend(Member &m) const;
    /** The member's live control link, (re)connecting it; throws
     *  WireError when unreachable. */
    std::shared_ptr<QumaClient> controlLink(Member &m) const;
    /** nullopt for an unknown id. */
    std::optional<Placement> locate(runtime::JobId id) const;
    /** Rendezvous pick over healthy, non-draining backends. */
    std::optional<std::size_t>
    chooseBackend(std::uint64_t affinity,
                  std::size_t exclude = SIZE_MAX) const;
    bool backendSaturated(std::size_t index) const;
    /** The live link, connecting one (after failing a dead one
     *  over); throws WireError when unreachable. */
    std::shared_ptr<QumaClient> connectLink(std::size_t index);
    /** The current link (possibly dead), or null. */
    std::shared_ptr<QumaClient> linkOf(std::size_t index) const;

    /** Send job `id` to its best backend but `exclude`; false when
     *  none is left. */
    bool place(runtime::JobId id, std::size_t exclude = SIZE_MAX);
    void onAck(runtime::JobId id, std::uint64_t epoch, std::size_t index,
               const QumaClient *link,
               std::optional<runtime::JobId> remote,
               const std::string &why);
    /** Forward job `id`'s waiters to its backend, unless it has no
     *  backend id yet or a forwarded subscription is in flight. */
    void forwardAwait(runtime::JobId id);
    /** Hand `result` to every waiter of job `id` (still at `epoch`);
     *  `lost` marks a failure of the fleet itself. */
    void finish(runtime::JobId id, std::uint64_t epoch,
                std::shared_ptr<const runtime::JobResult> result,
                bool lost);
    /** Retire dead `link` of backend `index` and rehome every
     *  unfinished job placed there (once per link). */
    void linkDied(std::size_t index, const QumaClient *link);
    /** If `link` is dead: linkDied, then rehome job `id` (a failed
     *  request showed it at `epoch` there); false if alive. */
    bool failOver(runtime::JobId id, std::uint64_t epoch,
                  std::size_t index, const QumaClient *link);
    /** Resubmit job `id` elsewhere unless it moved on already. */
    void rehome(runtime::JobId id, std::uint64_t epoch,
                std::size_t index);
    runtime::JobId mint(Job job);
    /** Under mu: mark `job` (= jobs[id]) finished and forget the
     *  oldest finished job past the retention bound. */
    void retire(runtime::JobId id, Job &job);
    bool stopping() const;
    bool setDraining(const std::string &name, bool draining);

    /** Indexed by backend; fixed after construction. */
    std::vector<std::unique_ptr<Member>> members;
    const std::chrono::milliseconds healthInterval;

    mutable std::mutex mu;
    bool stopped = false;
    std::unordered_map<runtime::JobId, Job> jobs;
    /** Finished jobs, oldest first (see kRetainedResults). */
    std::deque<runtime::JobId> finishedOrder;
    const std::size_t maxRetainedResults;
    runtime::JobId nextId = 1;
    /** Dead data links, destroyed off their own reader thread. */
    std::vector<std::shared_ptr<QumaClient>> retired;

    std::condition_variable cvHealth;
    std::thread health;

    mutable std::atomic<std::size_t> requestsForwarded{0};
    std::atomic<std::size_t> resultsForwarded{0};
    std::atomic<std::size_t> jobsShed{0};
    std::atomic<std::size_t> jobsResubmitted{0};
    std::atomic<std::size_t> failovers{0};
};

} // namespace quma::net

#endif // QUMA_NET_FLEET_HH
