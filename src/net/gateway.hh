/**
 * @file
 * QumaGateway: the fleet front door -- a QumaServer serving a
 * FleetBackend over N QumaServer backends (docs/fleet.md is the
 * operator contract).
 *
 * Clients connect exactly as they would to a single server: the
 * gateway's network edge IS net::QumaServer (accept loop, per-
 * connection reader/writer, wire version check, result streaming),
 * and everything fleet-shaped -- config-affinity routing, health and drain, trySubmit shedding, fleet-minted job
 * ids, failover resubmission, merged stats and merged trace dumps --
 * lives in the backend it serves (net/fleet.hh). Results travel as
 * decoded JobResults and are re-encoded by the gateway's writer; the
 * JobResult codec is canonical (pinned by tests/test_net.cc), so the
 * fleet preserves the runtime's bit-identity contract end to end
 * (pinned by tests/test_gateway.cc).
 *
 * Backpressure needs no gateway mechanism of its own: a submit blocks
 * on the backend link while the backend's queue is full, which stops
 * the gateway's reader for that client, which the client feels as
 * ordinary TCP backpressure.
 *
 * bindMetrics() exposes the gateway's own counters (quma_gateway_*)
 * and the merged per-backend runtime stats (quma_fleet_*).
 */

#ifndef QUMA_NET_GATEWAY_HH
#define QUMA_NET_GATEWAY_HH

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "net/fleet.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"

namespace quma::net {

struct GatewayConfig
{
    /** Health-probe cadence (also the staleness bound metric
     *  callbacks accept before refreshing backend stats). */
    std::chrono::milliseconds healthInterval{500};
};

class QumaGateway
{
  public:
    using BackendSnapshot = FleetBackend::BackendSnapshot;

    /** The fleet's counters plus the serving edge's. */
    struct Stats : FleetBackend::Counters
    {
        std::size_t connectionsAccepted = 0;
        std::size_t connectionsActive = 0;
        /** ProgressFrame pushes delivered to clients. */
        std::size_t progressForwarded = 0;
        /** Requests answered with an ErrorReply. */
        std::size_t errorsReturned = 0;
        /** StatsRequests answered with the merged fleet view. */
        std::size_t statsServed = 0;
    };

    /**
     * Start the front door: probes every backend once (so routing
     * has a health picture before the first client), then accepts
     * until stop(). At least one backend is required.
     */
    QumaGateway(std::vector<GatewayBackend> backend_list,
                std::unique_ptr<Listener> listener,
                GatewayConfig config = {});
    ~QumaGateway();

    QumaGateway(const QumaGateway &) = delete;
    QumaGateway &operator=(const QumaGateway &) = delete;

    /** Stop accepting, close every connection and link, join all
     *  threads (idempotent). */
    void stop();

    /** See FleetBackend::drain. */
    bool drain(const std::string &name) { return fleet.drain(name); }
    /** Put a drained backend back into routing. */
    bool undrain(const std::string &name) { return fleet.undrain(name); }

    Stats stats() const;

    /** The merged fleet view (see FleetBackend::fleetStats). */
    StatsFrame
    fleetStats(std::chrono::milliseconds max_age)
    {
        return fleet.fleetStats(max_age);
    }

    /**
     * Register the gateway's own series (quma_gateway_*) and the
     * merged backend runtime series (quma_fleet_*) with `registry`.
     * The gateway must outlive the registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    const GatewayConfig cfg;
    FleetBackend fleet;
    /** After `fleet`: destroyed first, it serves the fleet. */
    QumaServer server;
};

} // namespace quma::net

#endif // QUMA_NET_GATEWAY_HH
