/**
 * @file
 * quma_serve: the experiment runtime behind a TCP socket.
 *
 * Starts a shared runtime::ExperimentService and a net::QumaServer
 * speaking the QuMA wire protocol (src/net/README.md), then serves
 * until stdin closes (Ctrl-D, or the end of a piped script). Remote
 * clients -- net::QumaClient, or anything speaking the frame format
 * -- submit jobs, poll, await, and read scheduler/machine stats; each
 * connection is served by its own thread against the one shared
 * service, whose workers each own one machine.
 *
 *   $ ./example_quma_serve [--port N] [--workers N] [--queue N]
 *                          [--metrics-port N] [--trace FILE] [--public]
 *                          [--journal FILE] [--journal-fsync MODE]
 *                          [--capture DIR] [--name NAME]
 *
 * --name NAME gives the instance a stable identity in a fleet
 * (surfaced on /healthz and /statusz; the quma_gateway front door
 * labels its per-backend metrics with it -- docs/fleet.md).
 *
 * Default is an ephemeral port on 127.0.0.1 (printed on startup);
 * --public binds all interfaces instead. On shutdown the serving
 * stats -- connections, requests, wire traffic in §7.1 host-link
 * terms -- are printed.
 *
 * OBSERVABILITY. --metrics-port N additionally serves Prometheus
 * text exposition on `GET http://127.0.0.1:N/metrics` (0 = pick an
 * ephemeral port, printed on startup; docs/observability.md lists
 * the families) plus the live introspection pages: /healthz
 * (liveness + journal/recovery state), /statusz (a JSON snapshot of
 * service and serving stats) and /tracez (the current job-lifecycle
 * trace as Chrome trace JSON, without restarting anything). --trace
 * FILE enables job-lifecycle tracing and writes the capture as
 * Chrome trace-event JSON to FILE at shutdown (load it in
 * chrome://tracing or Perfetto); /tracez serves the same dump live
 * and v4 clients can pull-and-merge it over the wire
 * (QumaClient::mergedChromeTrace).
 *
 * DURABILITY (docs/durability.md). --journal FILE write-ahead
 * journals every accepted job; on startup, submitted-but-unfinished
 * work found in FILE is recovered and re-run (a recovery summary is
 * printed). --journal-fsync none|batch|always picks the
 * latency/durability trade-off (default batch). --capture DIR
 * records each connection's wire traffic as DIR/conn-<N>.qcap,
 * replayable byte-for-byte with example_quma_replay.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/metrics.hh"
#include "net/metrics_endpoint.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "runtime/service.hh"

namespace {

unsigned long
argNum(int argc, char **argv, const char *flag, unsigned long fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return std::strtoul(argv[i + 1], nullptr, 10);
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

/** The value following `flag`, or null when the flag is absent. */
const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quma;

    auto port = static_cast<std::uint16_t>(argNum(argc, argv, "--port", 0));
    auto workers = static_cast<unsigned>(argNum(argc, argv, "--workers", 4));
    auto queue = static_cast<std::size_t>(argNum(argc, argv, "--queue", 256));
    bool open = argFlag(argc, argv, "--public");
    const char *metricsPortArg =
        argValue(argc, argv, "--metrics-port");
    const char *traceFile = argValue(argc, argv, "--trace");
    const char *journalFile = argValue(argc, argv, "--journal");
    const char *journalFsync =
        argValue(argc, argv, "--journal-fsync");
    const char *captureDir = argValue(argc, argv, "--capture");
    const char *instanceName = argValue(argc, argv, "--name");

    // The registry is declared BEFORE the components whose callbacks
    // it will render (and is only built when somebody asked to
    // scrape): the components outlive its last render.
    std::optional<metrics::MetricsRegistry> registry;

    runtime::ServiceConfig sc;
    sc.workers = workers;
    sc.queueCapacity = queue;
    if (journalFile)
        sc.journalPath = journalFile;
    if (instanceName)
        sc.instanceName = instanceName;
    if (journalFsync) {
        auto policy = runtime::fsyncPolicyFromName(journalFsync);
        if (!policy) {
            std::fprintf(stderr,
                         "quma_serve: --journal-fsync wants "
                         "none|batch|always, got '%s'\n",
                         journalFsync);
            return 2;
        }
        sc.journalFsync = *policy;
    }
    runtime::ExperimentService service(sc);
    if (traceFile)
        service.trace().enable();
    if (journalFile) {
        const runtime::RecoveryReport &rec = service.recovery();
        std::printf("journal: %s (fsync %s)\n", journalFile,
                    journalFsync ? journalFsync : "batch");
        if (rec.journalExisted)
            std::printf("recovery: %zu records scanned, %zu jobs "
                        "recovered, %zu corrupt records\n",
                        rec.recordsScanned,
                        service.recoveredIds().size(),
                        rec.corruptRecords);
        const runtime::CompactionReport &cr = service.compaction();
        if (cr.performed)
            std::printf("compaction: journal rewritten %zu -> %zu "
                        "records (%zu -> %zu bytes)\n",
                        cr.recordsBefore, cr.recordsAfter,
                        cr.bytesBefore, cr.bytesAfter);
    }

    net::ServerConfig server_cfg;
    if (captureDir)
        server_cfg.captureDir = captureDir;
    auto listener = std::make_unique<net::TcpListener>(port, !open);
    std::uint16_t bound = listener->port();
    net::QumaServer server(service, std::move(listener), server_cfg);
    if (captureDir)
        std::printf("capture: wire traffic -> %s/conn-<N>.qcap\n",
                    captureDir);

    // Declared after the server: destroyed (and stopped) first, so
    // no scrape renders callbacks into dying components.
    std::unique_ptr<net::MetricsEndpoint> metricsEndpoint;
    std::uint16_t metricsBound = 0;
    if (metricsPortArg) {
        // Counters read each component's lifetime totals, so binding
        // after journal recovery still counts the recovered jobs.
        registry.emplace();
        service.bindMetrics(*registry);
        server.bindMetrics(*registry);
        auto mp = static_cast<std::uint16_t>(
            std::strtoul(metricsPortArg, nullptr, 10));
        auto mlistener =
            std::make_unique<net::TcpListener>(mp, !open);
        metricsBound = mlistener->port();
        metricsEndpoint = std::make_unique<net::MetricsEndpoint>(
            *registry, std::move(mlistener));

        // The introspection surface: three live pages next to
        // /metrics. Handlers render on the endpoint's acceptor
        // thread against components that outlive it (the endpoint
        // is stopped first at shutdown).
        const bool traced = traceFile != nullptr;
        metricsEndpoint->addHandler(
            "/healthz", "application/json",
            [&service, traced] {
                const runtime::RecoveryReport &rec =
                    service.recovery();
                char buf[256];
                std::snprintf(
                    buf, sizeof buf,
                    "{\"status\":\"ok\",\"instance\":\"%s\","
                    "\"journal\":%s,"
                    "\"recoveredJobs\":%zu,"
                    "\"corruptRecords\":%zu,"
                    "\"journalCompacted\":%s,"
                    "\"traceEnabled\":%s}\n",
                    service.instanceName().c_str(),
                    service.journal() ? "true" : "false",
                    service.recoveredIds().size(),
                    rec.corruptRecords,
                    service.compaction().performed ? "true"
                                                   : "false",
                    traced ? "true" : "false");
                return std::string(buf);
            });
        metricsEndpoint->addHandler(
            "/statusz", "application/json", [&service, &server] {
                runtime::ServiceStats st = service.stats();
                net::QumaServer::Stats sv = server.stats();
                char buf[1024];
                std::snprintf(
                    buf, sizeof buf,
                    "{\"instance\":\"%s\","
                    "\"scheduler\":{\"submitted\":%zu,"
                    "\"completed\":%zu,\"failed\":%zu,"
                    "\"cancelled\":%zu,\"queueHighWater\":%zu,"
                    "\"shardsExecuted\":%zu,\"shardsStolen\":%zu,"
                    "\"roundsStolen\":%zu},"
                    "\"pool\":{\"machinesCreated\":%zu,"
                    "\"acquisitions\":%zu,\"reuseHits\":%zu,"
                    "\"rebinds\":%zu},"
                    "\"cache\":{\"programHits\":%zu,"
                    "\"programMisses\":%zu},"
                    "\"effectiveQueueCapacity\":%zu,"
                    "\"server\":{\"connectionsAccepted\":%zu,"
                    "\"connectionsActive\":%zu,"
                    "\"requestsServed\":%zu,\"errorsReturned\":%zu,"
                    "\"resultsStreamed\":%zu,"
                    "\"progressFramesPushed\":%zu,"
                    "\"bytesUp\":%zu,\"bytesDown\":%zu}}\n",
                    service.instanceName().c_str(),
                    st.scheduler.submitted, st.scheduler.completed,
                    st.scheduler.failed, st.scheduler.cancelled,
                    st.scheduler.queueHighWater,
                    st.scheduler.shardsExecuted,
                    st.scheduler.shardsStolen,
                    st.scheduler.roundsStolen,
                    st.pool.machinesCreated, st.pool.acquisitions,
                    st.pool.reuseHits, st.pool.rebinds,
                    st.cache.programHits,
                    st.cache.programMisses,
                    st.effectiveQueueCapacity,
                    sv.connectionsAccepted, sv.connectionsActive,
                    sv.requestsServed, sv.errorsReturned,
                    sv.resultsStreamed, sv.progressFramesPushed,
                    sv.link.bytesUp, sv.link.bytesDown);
                return std::string(buf);
            });
        metricsEndpoint->addHandler(
            "/tracez", "application/json", [&service] {
                // The same dump --trace writes at shutdown, served
                // live (empty unless tracing is enabled).
                return service.trace().chromeTraceJson();
            });
    }

    std::printf("quma_serve%s%s: listening on %s:%u (%u workers, "
                "queue %zu)\n",
                instanceName ? " " : "",
                instanceName ? instanceName : "",
                open ? "0.0.0.0" : "127.0.0.1", bound, workers, queue);
    if (metricsEndpoint)
        std::printf("metrics: http://%s:%u/metrics\n",
                    open ? "0.0.0.0" : "127.0.0.1", metricsBound);
    if (traceFile)
        std::printf("tracing: job lifecycle -> %s at shutdown\n",
                    traceFile);
    std::printf("serving until stdin closes...\n");
    std::fflush(stdout);

    // Park until the operator hangs up; the accept and connection
    // threads do all the work.
    while (std::fgetc(stdin) != EOF) {
    }

    if (metricsEndpoint)
        metricsEndpoint->stop();
    server.stop();
    if (traceFile) {
        std::string json = service.trace().chromeTraceJson();
        if (std::FILE *f = std::fopen(traceFile, "w")) {
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("trace: %zu events -> %s (%zu dropped)\n",
                        service.trace().eventCount(), traceFile,
                        service.trace().dropped());
        } else {
            std::printf("trace: could not open %s\n", traceFile);
        }
    }
    net::QumaServer::Stats s = server.stats();
    auto sched = service.scheduler().stats();
    std::printf("connections: %zu  requests: %zu  errors: %zu\n",
                s.connectionsAccepted, s.requestsServed,
                s.errorsReturned);
    std::printf("jobs: %zu completed, %zu failed, %zu cancelled "
                "(%zu on disconnect)\n",
                sched.completed, sched.failed, sched.cancelled,
                s.jobsCancelledOnDisconnect);
    std::printf("wire traffic: %zu bytes up / %zu bytes down "
                "(%.3f ms / %.3f ms at the modeled link rate)\n",
                s.link.bytesUp, s.link.bytesDown,
                s.link.secondsUp * 1e3, s.link.secondsDown * 1e3);
    if (service.journal()) {
        runtime::JournalStats js = service.journal()->stats();
        std::printf("journal: %zu records / %zu bytes appended, "
                    "%zu fsyncs, %zu errors\n",
                    js.recordsAppended, js.bytesAppended, js.fsyncs,
                    js.appendErrors);
    }
    return 0;
}
