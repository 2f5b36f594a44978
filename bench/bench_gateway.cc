/**
 * @file
 * Cost and scaling of the fleet front door: the same pipelined AllXY
 * batch is driven (a) directly against one QumaServer and (b)
 * through a QumaGateway over 1, 2, and 4 backends, all on TCP
 * loopback. The 1-backend ratio prices the extra hop -- one more
 * socket, a second spec and result codec pass -- with no routing win
 * to hide it; the 2- and 4-backend rows show what config-affinity
 * spreading buys back once the fleet can actually parallelise.
 *
 * Every configuration must return per-seed results bit-identical to
 * an in-process run of the same specs: the gateway adds transport
 * and placement, never physics.
 *
 * Tunables (environment): QUMA_BENCH_GW_JOBS (batch size, default
 * 32), QUMA_BENCH_GW_ROUNDS (averaged shots per job, default 8),
 * QUMA_BENCH_GW_WORKERS (workers PER BACKEND, default 2),
 * QUMA_BENCH_GW_MAX_BACKENDS (default 4).
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/report.hh"
#include "experiments/allxy.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
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

/** Jobs with PER-JOB machine configs, so affinity can spread them. */
std::vector<runtime::JobSpec>
makeBatch(std::size_t jobs, std::size_t rounds)
{
    std::vector<runtime::JobSpec> batch;
    for (std::size_t i = 0; i < jobs; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        cfg.shards = 1;
        cfg.amplitudeError =
            0.001 * static_cast<double>(i); // distinct config per job
        cfg.seed = 0x9a7e + i;
        batch.push_back(experiments::allxyJob(cfg));
    }
    return batch;
}

/** One live backend: service + server on an ephemeral port. */
struct Backend
{
    runtime::ExperimentService service;
    std::uint16_t port = 0;
    std::unique_ptr<net::QumaServer> server;

    explicit Backend(runtime::ServiceConfig sc) : service(sc)
    {
        auto listener = std::make_unique<net::TcpListener>(0);
        port = listener->port();
        server = std::make_unique<net::QumaServer>(service,
                                                   std::move(listener));
    }
};

/** Pipeline the batch through `port`; jobs/sec + per-seed results. */
std::pair<double, std::map<std::uint64_t, runtime::JobResult>>
runBatch(const std::vector<runtime::JobSpec> &batch, std::uint16_t port)
{
    net::QumaClient client("127.0.0.1", port);
    auto start = std::chrono::steady_clock::now();
    std::vector<runtime::JobId> ids = client.submitAll(batch);
    std::map<runtime::JobId, std::uint64_t> seedOf;
    for (std::size_t i = 0; i < ids.size(); ++i)
        seedOf.emplace(ids[i], batch[i].seed);
    std::map<std::uint64_t, runtime::JobResult> got;
    for (auto &[id, result] : client.awaitMany(ids))
        got.emplace(seedOf.at(id), std::move(result));
    double rate =
        static_cast<double>(batch.size()) / secondsSince(start);
    return {rate, std::move(got)};
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = bench::envSize("QUMA_BENCH_GW_JOBS", 32);
    std::size_t rounds = bench::envSize("QUMA_BENCH_GW_ROUNDS", 8);
    std::size_t workers = bench::envSize("QUMA_BENCH_GW_WORKERS", 2);
    std::size_t maxBackends =
        bench::envSize("QUMA_BENCH_GW_MAX_BACKENDS", 4);
    std::string jsonPath = bench::argValue(argc, argv, "--json");
    bench::JsonReport json("gateway");
    json.metric("jobs", static_cast<double>(jobs));
    json.metric("rounds", static_cast<double>(rounds));
    json.metric("workers_per_backend", static_cast<double>(workers));

    bench::banner("fleet gateway: hop overhead and backend scaling");
    std::printf("batch: %zu AllXY jobs x %zu rounds, %zu workers per "
                "backend, TCP loopback\n",
                jobs, rounds, workers);

    runtime::ServiceConfig sc;
    sc.workers = static_cast<unsigned>(workers);
    sc.queueCapacity = jobs + 2;

    std::vector<runtime::JobSpec> batch = makeBatch(jobs, rounds);

    // In-process reference: everything below must reproduce it.
    std::map<std::uint64_t, runtime::JobResult> reference;
    {
        runtime::ExperimentService local(sc);
        std::vector<runtime::JobId> ids = local.submitAll(batch);
        std::vector<runtime::JobResult> results = local.awaitAll(ids);
        for (std::size_t i = 0; i < batch.size(); ++i)
            reference.emplace(batch[i].seed, std::move(results[i]));
    }

    std::printf("%-22s %-12s %-10s\n", "path", "jobs/sec",
                "vs direct");
    bench::rule();

    // Direct: one backend, no gateway in the path.
    double directRate;
    {
        Backend be(sc);
        auto [rate, got] = runBatch(batch, be.port);
        directRate = rate;
        if (got != reference) {
            std::printf("DIRECT DETERMINISM VIOLATION\n");
            return 1;
        }
    }
    std::printf("%-22s %-12.1f %-10s\n", "direct (no gateway)",
                directRate, "1.00x");
    json.metric("gateway_direct_jobs_per_sec", directRate, "jobs/s");

    double oneBackendRate = directRate;
    for (std::size_t n = 1; n <= maxBackends; n *= 2) {
        std::vector<std::unique_ptr<Backend>> fleet;
        std::vector<net::GatewayBackend> backends;
        for (std::size_t i = 0; i < n; ++i) {
            fleet.push_back(std::make_unique<Backend>(sc));
            net::GatewayBackend b =
                net::tcpBackend("127.0.0.1", fleet[i]->port);
            b.name = "be-" + std::to_string(i);
            backends.push_back(std::move(b));
        }
        auto listener = std::make_unique<net::TcpListener>(0);
        std::uint16_t gwPort = listener->port();
        net::QumaGateway gateway(std::move(backends),
                                 std::move(listener));

        auto [rate, got] = runBatch(batch, gwPort);
        if (got != reference) {
            std::printf("GATEWAY DETERMINISM VIOLATION at %zu "
                        "backends\n",
                        n);
            return 1;
        }
        char label[32];
        std::snprintf(label, sizeof label, "gateway, %zu backend%s",
                      n, n == 1 ? "" : "s");
        std::printf("%-22s %-12.1f %.2fx\n", label, rate,
                    rate / directRate);
        json.metric("gateway_jobs_per_sec_" + std::to_string(n) + "b",
                    rate, "jobs/s");
        if (n == 1)
            oneBackendRate = rate;
        gateway.stop();
    }
    bench::rule();

    // The hop cost: direct over gateway-with-one-backend. >1 means
    // the hop costs throughput; routing wins must buy it back.
    double hopOverhead = directRate / oneBackendRate;
    std::printf("gateway hop overhead at 1 backend: %.3fx "
                "(direct %.1f vs routed %.1f jobs/sec)\n",
                hopOverhead, directRate, oneBackendRate);
    std::printf(
        "every path returned the bit-identical per-seed results the\n"
        "in-process service computes: the gateway adds placement and\n"
        "a hop, not physics.\n");
    json.metric("gateway_hop_overhead_1b", hopOverhead);

    json.writeTo(jsonPath);
    return 0;
}
