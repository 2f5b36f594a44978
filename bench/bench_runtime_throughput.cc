/**
 * @file
 * Throughput and scheduling-policy benchmarks of the concurrent
 * experiment runtime, in three sections:
 *
 *  1. BATCH THROUGHPUT -- a fixed batch of opaque AllXY jobs is
 *     pushed through the ExperimentService at increasing worker
 *     counts, reporting jobs/sec and the speedup over one worker,
 *     with a determinism check (results must not depend on width).
 *
 *  2. SHARDED SINGLE JOB -- ONE large AllXY job (many averaging
 *     rounds) is run unsharded on a single machine, then
 *     round-structured and split across the workers. Sharding is what
 *     lets one big job use more than one machine; the section checks
 *     the 2-way and 4-way merges are bit-identical and reports the
 *     rounds/sec gain over the unsharded baseline.
 *
 *  3. PRIORITY LATENCY -- a backlog of Normal jobs is queued behind
 *     a paused service, one High job is appended, and the service is
 *     started: the High job's completion position and latency show
 *     the queue-jump the priority policy buys.
 *
 *  4. METRICS OVERHEAD -- the same batch run three ways: without
 *     observability, bound to a live MetricsRegistry, and live with
 *     job-lifecycle tracing enabled. The jobs/sec ratios pin the
 *     "near-zero overhead" claim of docs/observability.md.
 *
 * Tunables (environment): QUMA_BENCH_JOBS (batch size, default 48),
 * QUMA_BENCH_ROUNDS (averaged shots per batch job, default 24),
 * QUMA_BENCH_MAX_WORKERS (default 8), QUMA_BENCH_SHARD_ROUNDS
 * (rounds of the single sharded job, default 192).
 *
 * Scaling requires physical cores: on an N-core host the curve
 * saturates near N, and on a single-core host it stays flat -- the
 * simulation is pure CPU.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/report.hh"
#include "common/metrics.hh"
#include "experiments/allxy.hh"
#include "runtime/service.hh"

using namespace quma;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct BatchOutcome
{
    double seconds = 0.0;
    std::vector<runtime::JobResult> results;
    runtime::ProgramCache::Stats cache;
    runtime::PoolStats pool;
};

/** The job mix: AllXY runs over a few distinct error configurations,
 *  so the workers rebind between configs and the cache holds several
 *  programs.
 *  shards = 1 keeps the jobs opaque (the averaging loop stays in the
 *  program), matching the historical batch numbers. */
std::vector<runtime::JobSpec>
makeBatch(std::size_t jobs, std::size_t rounds)
{
    std::vector<runtime::JobSpec> batch;
    for (std::size_t i = 0; i < jobs; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        cfg.shards = 1;
        cfg.amplitudeError = 0.02 * static_cast<double>(i % 3);
        cfg.seed = 0xbe9c + i;
        batch.push_back(experiments::allxyJob(cfg));
    }
    return batch;
}

BatchOutcome
runBatch(const std::vector<runtime::JobSpec> &batch, unsigned workers)
{
    runtime::ServiceConfig sc;
    sc.workers = workers;
    sc.queueCapacity = batch.size() + 1;
    runtime::ExperimentService svc(sc);

    auto start = std::chrono::steady_clock::now();
    std::vector<runtime::JobId> ids;
    ids.reserve(batch.size());
    for (const auto &job : batch)
        ids.push_back(svc.submit(job));
    BatchOutcome out;
    out.results = svc.awaitAll(ids);
    out.seconds = secondsSince(start);
    out.cache = svc.cache().stats();
    out.pool = svc.stats().pool;
    return out;
}

/** One large AllXY job, shard-split `shards` ways (1 = opaque). */
runtime::JobSpec
bigJob(std::size_t rounds, std::size_t shards)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = rounds;
    cfg.shards = shards;
    cfg.seed = 0x51a6;
    return experiments::allxyJob(cfg);
}

double
timedSingleJob(runtime::JobSpec job, unsigned workers,
               runtime::JobResult &result)
{
    runtime::ExperimentService svc({.workers = workers});
    auto start = std::chrono::steady_clock::now();
    result = svc.runSync(std::move(job));
    return secondsSince(start);
}

int
shardedSingleJobSection(std::size_t rounds, unsigned workers,
                        bench::JsonReport &json)
{
    bench::banner("shot sharding: one large job across the workers");
    std::printf("one AllXY job x %zu rounds on a %u-worker service\n",
                rounds, workers);
    std::printf("%-22s %-12s %-14s %-10s\n", "variant", "seconds",
                "rounds/sec", "speedup");
    bench::rule();

    runtime::JobResult unsharded;
    double tUnsharded =
        timedSingleJob(bigJob(rounds, 1), workers, unsharded);
    double unshardedRate = static_cast<double>(rounds) / tUnsharded;
    std::printf("%-22s %-12.3f %-14.1f %-10.2f\n", "unsharded (1 machine)",
                tUnsharded, unshardedRate, 1.0);

    runtime::JobResult twoWay;
    runtime::JobResult sharded;
    timedSingleJob(bigJob(rounds, 2), workers, twoWay);
    double tSharded =
        timedSingleJob(bigJob(rounds, workers), workers, sharded);
    // The determinism check needs two genuinely different
    // partitions: when the timed run was itself 2-way, run a 4-way
    // split for the comparison (shard count may exceed workers).
    runtime::JobResult fourWay;
    if (workers == 4)
        fourWay = sharded;
    else
        timedSingleJob(bigJob(rounds, 4), workers, fourWay);
    double shardedRate = static_cast<double>(rounds) / tSharded;
    std::printf("%-22s %-12.3f %-14.1f %-10.2f\n", "sharded (auto split)",
                tSharded, shardedRate, tUnsharded / tSharded);
    bench::rule();

    json.metric("single_job_rounds", static_cast<double>(rounds));
    json.metric("single_job_unsharded_rounds_per_sec", unshardedRate,
                "rounds/s");
    json.metric("single_job_sharded_rounds_per_sec", shardedRate,
                "rounds/s");
    json.metric("single_job_sharded_speedup", tUnsharded / tSharded);

    // The tentpole invariant, re-checked where it is marketed: the
    // 2-way and 4-way merges of the same job must match bit for bit.
    // (The unsharded variant keeps its averaging loop in the program
    // and is a different -- legacy -- execution mode, so it is
    // compared for physics, not bits, by the tests.)
    if (!(twoWay == fourWay)) {
        std::printf("SHARD MERGE DETERMINISM VIOLATION\n");
        return 1;
    }
    std::printf("2-way and 4-way shard merges are bit-identical; the\n"
                "unsharded run pins one machine while the other\n"
                "workers idle -- sharding is what turns worker count\n"
                "into single-job latency.\n");
    return 0;
}

void
priorityLatencySection(std::size_t backlog, std::size_t rounds,
                       unsigned workers, bench::JsonReport &json)
{
    bench::banner("priority scheduling: queue-jump latency");
    runtime::ServiceConfig sc;
    sc.workers = workers;
    sc.queueCapacity = backlog + 2;
    sc.startPaused = true;
    runtime::ExperimentService svc(sc);

    std::vector<runtime::JobSpec> batch = makeBatch(backlog, rounds);
    for (auto &job : batch)
        svc.submit(std::move(job));

    experiments::AllxyConfig cfg;
    cfg.rounds = rounds;
    cfg.shards = 1;
    cfg.seed = 0xfa57;
    runtime::JobSpec urgent = experiments::allxyJob(cfg);
    urgent.priority = runtime::JobPriority::High;
    runtime::JobId urgentId = svc.submit(std::move(urgent));

    auto start = std::chrono::steady_clock::now();
    svc.start();
    svc.await(urgentId);
    double urgentLatency = secondsSince(start);
    svc.drain();
    double drainSeconds = secondsSince(start);

    std::vector<runtime::JobId> order =
        svc.scheduler().finishedIds();
    auto pos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), urgentId) -
        order.begin());

    std::printf("backlog: %zu Normal jobs, then 1 High job, %u workers\n",
                backlog, workers);
    std::printf("high-priority job finished #%zu of %zu, after %.3f s\n",
                pos + 1, order.size(), urgentLatency);
    std::printf("full drain: %.3f s (FIFO would have held the High\n"
                "job for most of it)\n",
                drainSeconds);
    bench::rule();

    json.metric("priority_backlog", static_cast<double>(backlog));
    json.metric("priority_finish_position", static_cast<double>(pos + 1));
    json.metric("priority_latency_s", urgentLatency, "s");
    json.metric("priority_drain_s", drainSeconds, "s");
}

/** How a metrics-overhead variant instruments the service. */
enum class Observability
{
    None,          // no registry bound, tracing off
    LiveRegistry,  // bound: every series read from Stats at render
    LiveWithTrace, // bound, plus the lifecycle trace recorder
};

double
observedBatchRate(const std::vector<runtime::JobSpec> &batch,
                  unsigned workers, Observability mode)
{
    // Its callbacks read the service's Stats at render time; nothing
    // renders here, so this measures what binding costs the hot path.
    metrics::MetricsRegistry registry;

    runtime::ServiceConfig sc;
    sc.workers = workers;
    sc.queueCapacity = batch.size() + 1;
    runtime::ExperimentService svc(sc);
    if (mode != Observability::None)
        svc.bindMetrics(registry);
    if (mode == Observability::LiveWithTrace)
        svc.trace().enable();

    auto start = std::chrono::steady_clock::now();
    std::vector<runtime::JobId> ids;
    ids.reserve(batch.size());
    for (const auto &job : batch)
        ids.push_back(svc.submit(job));
    svc.awaitAll(ids);
    return static_cast<double>(batch.size()) / secondsSince(start);
}

void
metricsOverheadSection(std::size_t jobs, std::size_t rounds,
                       unsigned workers, bench::JsonReport &json)
{
    bench::banner("metrics overhead: observability on the hot path");
    std::printf("batch: %zu AllXY jobs x %zu rounds, %u workers\n",
                jobs, rounds, workers);
    std::printf("%-26s %-12s %-10s\n", "variant", "jobs/sec",
                "vs plain");
    bench::rule();

    std::vector<runtime::JobSpec> batch = makeBatch(jobs, rounds);
    struct Variant
    {
        const char *name;
        const char *key;
        Observability mode;
    };
    const Variant variants[] = {
        {"plain (unbound)", "plain", Observability::None},
        {"live registry", "live", Observability::LiveRegistry},
        {"live + job tracing", "traced", Observability::LiveWithTrace},
    };
    // Warm-up run: page in the code and prime the allocator so the
    // first measured variant is not charged the cold-start cost.
    observedBatchRate(batch, workers, Observability::None);

    double plainRate = 0.0;
    for (const Variant &v : variants) {
        double rate = observedBatchRate(batch, workers, v.mode);
        if (v.mode == Observability::None)
            plainRate = rate;
        std::printf("%-26s %-12.1f %-10.3f\n", v.name, rate,
                    plainRate > 0 ? rate / plainRate : 1.0);
        json.metric(std::string("metrics_overhead_") + v.key +
                        "_jobs_per_sec",
                    rate, "jobs/s");
    }
    bench::rule();
    std::printf(
        "every series is read from Stats at render time and each job\n"
        "records its latency whether bound or not: all variants should\n"
        "sit within run-to-run noise of the plain rate.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = bench::envSize("QUMA_BENCH_JOBS", 48);
    std::size_t rounds = bench::envSize("QUMA_BENCH_ROUNDS", 24);
    std::size_t maxWorkers = bench::envSize("QUMA_BENCH_MAX_WORKERS", 8);
    std::size_t shardRounds =
        bench::envSize("QUMA_BENCH_SHARD_ROUNDS", 192);
    std::string jsonPath = bench::argValue(argc, argv, "--json");
    bench::JsonReport json("runtime_throughput");
    json.metric("jobs", static_cast<double>(jobs));
    json.metric("rounds", static_cast<double>(rounds));

    bench::banner("concurrent experiment runtime: jobs/sec vs workers");
    std::printf("batch: %zu AllXY jobs x %zu rounds, host cores: %u\n",
                jobs, rounds, std::thread::hardware_concurrency());
    std::printf("%-10s %-12s %-12s %-10s %-10s %-10s %-12s\n", "workers",
                "seconds", "jobs/sec", "speedup", "machines", "rebinds",
                "cache hits");
    bench::rule();

    std::vector<runtime::JobSpec> batch = makeBatch(jobs, rounds);
    double baseline = 0.0;
    std::vector<runtime::JobResult> baselineResults;
    unsigned widest = 1;
    for (unsigned workers = 1; workers <= maxWorkers; workers *= 2) {
        BatchOutcome out = runBatch(batch, workers);
        double rate = static_cast<double>(jobs) / out.seconds;
        if (workers == 1) {
            baseline = rate;
            baselineResults = out.results;
        }
        widest = workers;
        std::printf("%-10u %-12.3f %-12.1f %-10.2f %-10zu %-10zu %-12zu\n",
                    workers, out.seconds, rate,
                    baseline > 0 ? rate / baseline : 1.0,
                    out.pool.machinesCreated, out.pool.rebinds,
                    out.cache.programHits);
        json.metric("jobs_per_sec_" + std::to_string(workers) + "w",
                    rate, "jobs/s");
        // Determinism invariant: identical results at every width.
        if (workers > 1 && out.results != baselineResults) {
            std::printf("DETERMINISM VIOLATION at %u workers\n",
                        workers);
            return 1;
        }
    }
    bench::rule();
    std::printf(
        "every width produced bit-identical results (per-job RNG\n"
        "streams derived from the job seed); each worker builds one\n"
        "machine at most and rebinds it between configs, and repeated\n"
        "jobs hit the compiled-program cache instead of the assembler.\n\n");

    unsigned shardWorkers = std::max(
        2u, static_cast<unsigned>(std::min<std::size_t>(maxWorkers, 4)));
    if (int rc = shardedSingleJobSection(shardRounds, shardWorkers, json))
        return rc;
    std::printf("\n");

    priorityLatencySection(std::min<std::size_t>(jobs, 24), rounds,
                           std::min<unsigned>(widest, 2), json);
    std::printf("\n");

    metricsOverheadSection(jobs, rounds, shardWorkers, json);

    json.writeTo(jsonPath);
    return 0;
}
