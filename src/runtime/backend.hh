/**
 * @file
 * The experiment-backend interface: the submit / poll / await surface
 * of the concurrent runtime, abstracted away from WHERE the runtime
 * runs.
 *
 * Three implementations exist today:
 *
 *  - runtime::ExperimentService executes jobs in-process (the worker
 *    machines live in this address space);
 *  - net::QumaClient forwards the same calls over a wire connection
 *    to a QumaServer driving a remote backend;
 *  - net::FleetBackend spreads jobs over N QumaClients (one per
 *    fleet member) with config affinity and failover.
 *
 * Experiment fan-outs (AllXY, RB, coherence sweeps) program against
 * this interface, so the same sweep code runs unchanged against a
 * local service or a remote one -- and the determinism contract
 * (results are a pure function of the JobSpec) holds identically on
 * every path, which is what the remote-vs-local bit-identity tests
 * pin. net::QumaServer serves any implementation, so the fleet
 * gateway is a QumaServer over a FleetBackend.
 */

#ifndef QUMA_RUNTIME_BACKEND_HH
#define QUMA_RUNTIME_BACKEND_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/job.hh"
#include "runtime/program_cache.hh"
#include "runtime/scheduler.hh"
#include "runtime/trace.hh"

namespace quma::runtime {

/** One-call snapshot across the runtime's layers (the payload of a
 *  wire StatsReply). */
struct ServiceStats
{
    JobScheduler::Stats scheduler;
    PoolStats pool;
    ProgramCache::Stats cache;
    std::size_t effectiveQueueCapacity = 0;
};

class IExperimentBackend
{
  public:
    /** See JobScheduler::CompletionCallback; a backend that cannot
     *  deliver a result passes a failed one saying why. */
    using CompletionCallback = JobScheduler::CompletionCallback;
    /** See JobScheduler::ProgressCallback. */
    using ProgressCallback = JobScheduler::ProgressCallback;

    virtual ~IExperimentBackend() = default;

    /** Enqueue a job; blocks while the backend is at capacity. */
    virtual JobId
    submit(JobSpec spec)
    {
        std::optional<JobId> id;
        while (!(id = submitFor(spec, std::chrono::seconds(1), 0))) {
        }
        return *id;
    }
    /** Enqueue a job; nullopt when admission rejects it. Traced
     *  under `trace_id` (0 = no distributed trace). */
    virtual std::optional<JobId> trySubmit(JobSpec spec,
                                           std::uint64_t trace_id = 0) = 0;
    /** submit() that gives up with nullopt while the backend stays
     *  full for `timeout`; traced like trySubmit. */
    virtual std::optional<JobId>
    submitFor(const JobSpec &spec, std::chrono::milliseconds timeout,
              std::uint64_t trace_id) = 0;

    virtual JobStatus status(JobId id) const = 0;
    /** The result once the job finished, nullopt while in flight. */
    virtual std::optional<JobResult> poll(JobId id) const = 0;
    /** Block until the job finishes and return its result. The
     *  default waits for subscribe() to deliver it. */
    virtual JobResult
    await(JobId id)
    {
        auto done =
            std::make_shared<std::promise<std::shared_ptr<const JobResult>>>();
        std::future<std::shared_ptr<const JobResult>> result =
            done->get_future();
        subscribe(id, [done](JobId, std::shared_ptr<const JobResult> r) {
            done->set_value(std::move(r));
        });
        return *result.get();
    }
    /** Cancel a still-queued job (see JobScheduler::cancel). */
    virtual bool cancel(JobId id) = 0;

    /** One-shot completion (JobScheduler::subscribe contract);
     *  unknown ids fatal() where the backend can tell at once. */
    virtual void subscribe(JobId id, CompletionCallback callback) = 0;
    /** Best-effort progress (JobScheduler::subscribeProgress).
     *  Remote backends deliver it through the job's next
     *  subscribe(), so subscribe progress FIRST. */
    virtual void subscribeProgress(JobId id,
                                   ProgressCallback callback) = 0;

    /** Scheduler / machine / cache snapshot of the backend. */
    virtual ServiceStats stats() const = 0;
    /** The buffered job-lifecycle trace, in traceNowNanos() time. */
    virtual TraceDump traceDump() const = 0;
    /** "Now" on the clock traceDump() timestamps are taken on. */
    virtual std::uint64_t traceNowNanos() const = 0;

    /**
     * Submit a whole sweep's jobs at once; ids in argument order.
     * The default loops over submit(); remote backends override it
     * to PIPELINE the batch -- every spec leaves on the connection
     * before the first acknowledgement is read, so an N-point
     * fan-out pays roughly one round-trip instead of N.
     */
    virtual std::vector<JobId>
    submitAll(std::vector<JobSpec> specs)
    {
        std::vector<JobId> ids;
        ids.reserve(specs.size());
        for (JobSpec &spec : specs)
            ids.push_back(submit(std::move(spec)));
        return ids;
    }

    /** Await many jobs, results in argument order. */
    virtual std::vector<JobResult>
    awaitAll(const std::vector<JobId> &ids)
    {
        std::vector<JobResult> out;
        out.reserve(ids.size());
        for (JobId id : ids)
            out.push_back(await(id));
        return out;
    }

    /** Convenience: submit and block for the result. */
    virtual JobResult
    runSync(JobSpec spec)
    {
        return await(submit(std::move(spec)));
    }
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_BACKEND_HH
