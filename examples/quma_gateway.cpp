/**
 * @file
 * quma_gateway: the fleet front door -- N quma_serve backends behind
 * one config-affinity routing gateway (src/net/gateway.hh has the
 * mechanism, docs/fleet.md the operator contract).
 *
 *   $ ./example_quma_serve --port 7001 --name be-a &
 *   $ ./example_quma_serve --port 7002 --name be-b &
 *   $ ./example_quma_gateway --backend be-a=127.0.0.1:7001 \
 *                            --backend be-b=127.0.0.1:7002 \
 *                            [--port N] [--metrics-port N]
 *                            [--health-interval MS] [--public]
 *
 * Each --backend is NAME=HOST:PORT (or just HOST:PORT, which names
 * the backend after its address). Clients connect to the gateway
 * exactly as they would to a single quma_serve -- net::QumaClient,
 * pipelined sweeps, progress pushes, everything -- and the gateway
 * spreads the work across the fleet, fails over dead backends, and
 * answers StatsRequests with the merged fleet view.
 *
 * OBSERVABILITY. --metrics-port serves /metrics (quma_gateway_* and
 * the merged quma_fleet_* families), /healthz (gateway liveness +
 * healthy-backend count) and /statusz (JSON: gateway counters plus
 * per-backend health/routing state -- the CI fleet job reads it to
 * pick its kill -9 victim).
 *
 * OPERATIONS. stdin is a command console until EOF ends the process:
 *
 *     drain NAME      take NAME out of routing (in-flight finishes)
 *     undrain NAME    put NAME back into the rotation
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "net/gateway.hh"
#include "net/metrics_endpoint.hh"
#include "net/transport.hh"

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

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

/** Parse NAME=HOST:PORT (or HOST:PORT); false on a malformed spec. */
bool
parseBackend(const std::string &spec, quma::net::GatewayBackend &out)
{
    std::string name;
    std::string addr = spec;
    if (auto eq = spec.find('='); eq != std::string::npos) {
        name = spec.substr(0, eq);
        addr = spec.substr(eq + 1);
    }
    auto colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == addr.size())
        return false;
    const std::string host = addr.substr(0, colon);
    const unsigned long port =
        std::strtoul(addr.c_str() + colon + 1, nullptr, 10);
    if (port == 0 || port > 65535)
        return false;
    out = quma::net::tcpBackend(host,
                                static_cast<std::uint16_t>(port));
    if (!name.empty())
        out.name = name;
    return true;
}

std::string
statuszJson(const quma::net::QumaGateway &gateway)
{
    quma::net::QumaGateway::Stats s = gateway.stats();
    std::string json = "{\"gateway\":{";
    auto num = [&json](const char *key, std::size_t v, bool comma) {
        json += "\"";
        json += key;
        json += "\":";
        json += std::to_string(v);
        if (comma)
            json += ",";
    };
    num("connectionsAccepted", s.connectionsAccepted, true);
    num("connectionsActive", s.connectionsActive, true);
    num("requestsForwarded", s.requestsForwarded, true);
    num("resultsForwarded", s.resultsForwarded, true);
    num("progressForwarded", s.progressForwarded, true);
    num("errorsReturned", s.errorsReturned, true);
    num("jobsShed", s.jobsShed, true);
    num("jobsResubmitted", s.jobsResubmitted, true);
    num("failovers", s.failovers, true);
    num("jobsInFlight", s.jobsInFlight, false);
    json += "},\"backends\":[";
    for (std::size_t i = 0; i < s.backends.size(); ++i) {
        const auto &b = s.backends[i];
        if (i)
            json += ",";
        json += "{\"name\":\"" + b.name + "\",";
        json += std::string("\"healthy\":") +
                (b.healthy ? "true" : "false") + ",";
        json += std::string("\"draining\":") +
                (b.draining ? "true" : "false") + ",";
        json += "\"jobsRouted\":" + std::to_string(b.jobsRouted) +
                ",";
        json += "\"jobsResubmittedAway\":" +
                std::to_string(b.jobsResubmittedAway);
        if (b.haveStats) {
            json += ",\"completed\":" +
                    std::to_string(b.lastStats.scheduler.completed);
            json += ",\"submitted\":" +
                    std::to_string(b.lastStats.scheduler.submitted);
        }
        json += "}";
    }
    json += "]}\n";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quma;

    auto port =
        static_cast<std::uint16_t>(argNum(argc, argv, "--port", 0));
    bool open = argFlag(argc, argv, "--public");
    const char *metricsPortArg = argValue(argc, argv, "--metrics-port");

    net::GatewayConfig gc;
    gc.healthInterval = std::chrono::milliseconds(
        argNum(argc, argv, "--health-interval", 500));

    std::vector<net::GatewayBackend> backends;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--backend") != 0)
            continue;
        net::GatewayBackend b;
        if (!parseBackend(argv[i + 1], b)) {
            std::fprintf(stderr,
                         "quma_gateway: bad --backend '%s' "
                         "(want NAME=HOST:PORT or HOST:PORT)\n",
                         argv[i + 1]);
            return 2;
        }
        backends.push_back(std::move(b));
    }
    if (backends.empty()) {
        std::fprintf(
            stderr,
            "usage: %s --backend NAME=HOST:PORT [--backend ...] "
            "[--port N] [--metrics-port N] "
            "[--health-interval MS] [--public]\n",
            argv[0]);
        return 2;
    }

    // Built only when somebody asked to scrape; declared before the
    // gateway whose callbacks it renders.
    std::optional<metrics::MetricsRegistry> registry;

    auto listener = std::make_unique<net::TcpListener>(port, !open);
    std::uint16_t bound = listener->port();
    net::QumaGateway gateway(std::move(backends), std::move(listener),
                             gc);

    std::unique_ptr<net::MetricsEndpoint> metricsEndpoint;
    std::uint16_t metricsBound = 0;
    if (metricsPortArg) {
        registry.emplace();
        gateway.bindMetrics(*registry);
        auto mp = static_cast<std::uint16_t>(
            std::strtoul(metricsPortArg, nullptr, 10));
        auto mlistener = std::make_unique<net::TcpListener>(mp, !open);
        metricsBound = mlistener->port();
        metricsEndpoint = std::make_unique<net::MetricsEndpoint>(
            *registry, std::move(mlistener));
        metricsEndpoint->addHandler(
            "/healthz", "application/json", [&gateway] {
                net::QumaGateway::Stats s = gateway.stats();
                std::size_t healthy = 0;
                for (const auto &b : s.backends)
                    if (b.healthy)
                        ++healthy;
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "{\"status\":\"%s\","
                              "\"backendsHealthy\":%zu,"
                              "\"backends\":%zu}\n",
                              healthy > 0 ? "ok" : "degraded",
                              healthy, s.backends.size());
                return std::string(buf);
            });
        metricsEndpoint->addHandler(
            "/statusz", "application/json",
            [&gateway] { return statuszJson(gateway); });
    }

    net::QumaGateway::Stats boot = gateway.stats();
    std::printf("quma_gateway: listening on %s:%u (%zu backends)\n",
                open ? "0.0.0.0" : "127.0.0.1", bound,
                boot.backends.size());
    for (const auto &b : boot.backends)
        std::printf("backend %s: %s\n", b.name.c_str(),
                    b.healthy ? "healthy" : "DOWN");
    if (metricsEndpoint)
        std::printf("metrics: http://%s:%u/metrics\n",
                    open ? "0.0.0.0" : "127.0.0.1", metricsBound);
    std::printf("routing until stdin closes "
                "(drain NAME / undrain NAME)...\n");
    std::fflush(stdout);

    // The operator console: one command per line until EOF.
    char line[256];
    while (std::fgets(line, sizeof line, stdin)) {
        std::string cmd(line);
        while (!cmd.empty() &&
               (cmd.back() == '\n' || cmd.back() == '\r'))
            cmd.pop_back();
        if (cmd.rfind("drain ", 0) == 0) {
            const std::string name = cmd.substr(6);
            std::printf("%s\n", gateway.drain(name)
                                    ? "draining"
                                    : "no such backend");
        } else if (cmd.rfind("undrain ", 0) == 0) {
            const std::string name = cmd.substr(8);
            std::printf("%s\n", gateway.undrain(name)
                                    ? "undrained"
                                    : "no such backend");
        } else if (!cmd.empty()) {
            std::printf("commands: drain NAME / undrain NAME\n");
        }
        std::fflush(stdout);
    }

    if (metricsEndpoint)
        metricsEndpoint->stop();
    gateway.stop();

    net::QumaGateway::Stats s = gateway.stats();
    std::printf("connections: %zu  forwarded: %zu requests / "
                "%zu results / %zu progress\n",
                s.connectionsAccepted, s.requestsForwarded,
                s.resultsForwarded, s.progressForwarded);
    std::printf("failover: %zu events, %zu jobs resubmitted; "
                "%zu shed, %zu errors\n",
                s.failovers, s.jobsResubmitted, s.jobsShed,
                s.errorsReturned);
    return 0;
}
