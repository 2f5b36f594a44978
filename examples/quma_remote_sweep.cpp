/**
 * @file
 * quma_remote_sweep: a remote AllXY amplitude sweep against a
 * running quma_serve, exercising the full serving surface.
 *
 * Connects a net::QumaClient to the given host/port, pipelines one
 * AllXY job per amplitude-error point (submitAll: every spec is on
 * the wire before the first id comes back), then streams the results
 * in COMPLETION order (awaitMany: the server pushes each result the
 * moment its job finishes). Afterwards the serving runtime's stats
 * frame -- scheduler, worker machines and program/LUT cache -- is
 * fetched and printed alongside this connection's own link meter.
 *
 *   $ ./example_quma_serve --port 7777 &
 *   $ ./example_quma_remote_sweep --port 7777 [--host 127.0.0.1]
 *                                 [--points N] [--rounds N]
 *                                 [--progress] [--trace-out FILE]
 *                                 [--dump FILE]
 *
 * --dump FILE writes every result bin as exact hex floats (%a),
 * keyed by SUBMISSION index rather than job id -- so two runs are
 * byte-diffable no matter what ids were minted or in what order
 * results streamed back. The CI fleet job diffs a gateway-routed
 * sweep against a direct single-server run with it (bit-identity
 * through the fleet; docs/fleet.md).
 *
 * --progress prints live per-job shard progress as the server pushes
 * it (wire v4 ProgressFrames; rate-limited server-side). --trace-out
 * FILE records client spans, pulls the server's job-lifecycle trace
 * over the wire, and writes ONE merged clock-aligned Chrome trace
 * JSON to FILE (QumaClient::mergedChromeTrace; the server needs
 * --trace for its half, but the client half works regardless).
 *
 * Used by the CI metrics-scrape job as the load generator behind a
 * /metrics validation (.github/workflows/ci.yml).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "experiments/allxy.hh"
#include "net/client.hh"

namespace {

unsigned long
argNum(int argc, char **argv, const char *flag, unsigned long fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return std::strtoul(argv[i + 1], nullptr, 10);
    return fallback;
}

const char *
argStr(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

bool
argFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quma;

    auto port =
        static_cast<std::uint16_t>(argNum(argc, argv, "--port", 0));
    auto points =
        static_cast<std::size_t>(argNum(argc, argv, "--points", 8));
    auto rounds =
        static_cast<std::size_t>(argNum(argc, argv, "--rounds", 16));
    auto shards =
        static_cast<std::uint32_t>(argNum(argc, argv, "--shards", 1));
    std::string host = argStr(argc, argv, "--host", "127.0.0.1");
    bool progress = argFlag(argc, argv, "--progress");
    const char *traceOut = argStr(argc, argv, "--trace-out", nullptr);
    const char *dumpFile = argStr(argc, argv, "--dump", nullptr);
    if (port == 0) {
        std::fprintf(stderr,
                     "usage: %s --port N [--host H] [--points N] "
                     "[--rounds N] [--shards N] [--progress] "
                     "[--trace-out FILE] [--dump FILE]\n",
                     argv[0]);
        return 2;
    }

    net::QumaClient client(host, port);
    if (traceOut)
        client.enableSpans();

    // One job per amplitude-error point. Identical machine config
    // across points would defeat the sweep, so each point's error is
    // distinct -- which also exercises rebinding the workers'
    // machines between configs and the program cache on the serving
    // side.
    std::vector<runtime::JobSpec> specs;
    specs.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        // Sharded jobs (--shards > 1) execute round by round and so
        // stream INCREMENTAL progress; a 1-shard job is one machine
        // run and reports a single 100% frame at completion.
        cfg.shards = shards;
        cfg.amplitudeError =
            0.05 * static_cast<double>(i) /
            static_cast<double>(points > 1 ? points - 1 : 1);
        cfg.seed = 0x5eed + i;
        specs.push_back(experiments::allxyJob(cfg));
    }

    std::printf("submitting %zu AllXY jobs (%zu rounds each) to "
                "%s:%u...\n",
                specs.size(), rounds, host.c_str(), port);
    std::vector<runtime::JobId> ids =
        client.submitAll(std::move(specs));

    // Live progress, if asked for: the server pushes per-job shard
    // progress down this connection (wire v4); the callback runs on
    // the client's reader thread (stdio locks per call, so the
    // lines never shear against the result prints below).
    net::QumaClient::ProgressFn onProgress;
    if (progress)
        onProgress = [](runtime::JobId id, std::uint64_t done,
                        std::uint64_t total) {
            std::printf("progress: job %llu %llu/%llu rounds\n",
                        static_cast<unsigned long long>(id),
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(total));
        };

    // id -> submission index, so the --dump artifact is ordered by
    // the sweep point, not by whatever ids the server (or a gateway
    // in front of it) minted.
    std::unordered_map<runtime::JobId, std::size_t> indexOf;
    for (std::size_t i = 0; i < ids.size(); ++i)
        indexOf.emplace(ids[i], i);
    std::vector<runtime::JobResult> byIndex(ids.size());

    std::size_t streamed = 0;
    for (const auto &[id, result] : client.awaitMany(ids, onProgress)) {
        ++streamed;
        if (dumpFile)
            byIndex[indexOf.at(id)] = result;
        if (result.failed()) {
            std::printf("job %llu FAILED: %s\n",
                        static_cast<unsigned long long>(id),
                        result.error.c_str());
            continue;
        }
        double first =
            result.averages.empty() ? 0.0 : result.averages.front();
        std::printf("job %llu done (%zu/%zu): %zu bins, "
                    "point0 = %.4f\n",
                    static_cast<unsigned long long>(id), streamed,
                    ids.size(), result.averages.size(), first);
    }

    net::StatsFrame stats = client.stats();
    std::printf("\nserver scheduler: %zu submitted, %zu completed, "
                "%zu failed\n",
                stats.scheduler.submitted, stats.scheduler.completed,
                stats.scheduler.failed);
    std::printf("server machines: %zu created, %zu rebinds, "
                "%zu reuse hits, %zu resets\n",
                stats.pool.machinesCreated, stats.pool.rebinds,
                stats.pool.reuseHits, stats.pool.machineResets);
    std::printf("server cache: programs %zu hit / %zu miss "
                "(%zu evicted), LUTs %zu hit / %zu miss "
                "(%zu evicted)\n",
                stats.cache.programHits, stats.cache.programMisses,
                stats.cache.programEvictions, stats.cache.lutHits,
                stats.cache.lutMisses, stats.cache.lutEvictions);
    core::LinkStats link = client.linkStats();
    std::printf("wire traffic: %zu bytes up / %zu bytes down\n",
                link.bytesUp, link.bytesDown);

    if (dumpFile) {
        // Exact hex floats (%a) keyed by sweep-point index: two runs
        // of the same sweep are `diff`-equal iff bit-identical.
        std::FILE *f = std::fopen(dumpFile, "w");
        if (!f) {
            std::printf("dump: could not open %s\n", dumpFile);
            return 1;
        }
        for (std::size_t i = 0; i < byIndex.size(); ++i) {
            const runtime::JobResult &r = byIndex[i];
            if (r.failed()) {
                std::fprintf(f, "point %zu FAILED %s\n", i,
                             r.error.c_str());
                continue;
            }
            std::fprintf(f, "point %zu samples %zu\n", i,
                         r.sampleCount);
            for (std::size_t b = 0; b < r.averages.size(); ++b)
                std::fprintf(f, "point %zu avg %zu %a\n", i, b,
                             r.averages[b]);
            for (std::size_t b = 0; b < r.bitAverages.size(); ++b)
                std::fprintf(f, "point %zu bit %zu %a\n", i, b,
                             r.bitAverages[b]);
        }
        std::fclose(f);
        std::printf("dump: %zu points -> %s\n", byIndex.size(),
                    dumpFile);
    }

    if (traceOut) {
        // One merged trace: client spans + the server's lifecycle
        // events pulled over the wire, clock-aligned into the client
        // timebase (docs/observability.md has the recipe).
        std::string json = client.mergedChromeTrace();
        if (std::FILE *f = std::fopen(traceOut, "w")) {
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("trace: %zu client spans merged with server "
                        "dump -> %s (traceId %016llx)\n",
                        client.spans().size(), traceOut,
                        static_cast<unsigned long long>(
                            client.traceId()));
        } else {
            std::printf("trace: could not open %s\n", traceOut);
            return 1;
        }
    }
    return 0;
}
