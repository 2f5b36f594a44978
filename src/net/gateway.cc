#include "net/gateway.hh"

namespace quma::net {

QumaGateway::QumaGateway(std::vector<GatewayBackend> backend_list,
                         std::unique_ptr<Listener> listener,
                         GatewayConfig config)
    : cfg(config), fleet(std::move(backend_list), cfg.healthInterval),
      server(fleet, std::move(listener))
{
}

QumaGateway::~QumaGateway() { stop(); }

void
QumaGateway::stop()
{
    // The fleet first: a connection reader blocked in a submit
    // against a full backend queue only wakes when its link closes,
    // and the server's stop joins that reader.
    fleet.stop();
    server.stop();
}

QumaGateway::Stats
QumaGateway::stats() const
{
    const QumaServer::Stats edge = server.stats();
    Stats s;
    static_cast<FleetBackend::Counters &>(s) = fleet.counters();
    s.connectionsAccepted = edge.connectionsAccepted;
    s.connectionsActive = edge.connectionsActive;
    s.progressForwarded = edge.progressFramesPushed;
    s.errorsReturned = edge.errorsReturned;
    s.statsServed = edge.requestsByType[static_cast<std::size_t>(
        MsgType::StatsRequest)];
    return s;
}

void
QumaGateway::bindMetrics(metrics::MetricsRegistry &registry)
{
    // Callback series read fresh snapshots (scrapes are rare).
    auto stat = [this](std::size_t Stats::*field) {
        return [this, field] { return static_cast<double>(stats().*field); };
    };
    auto counter = [&registry](const char *name, const char *help,
                               std::function<double()> fn,
                               metrics::Labels labels = {}) {
        registry.counterFn(name, help, labels, std::move(fn));
    };
    auto gauge = [&registry](const char *name, const char *help,
                             std::function<double()> fn,
                             metrics::Labels labels = {}) {
        registry.gaugeFn(name, help, labels, std::move(fn));
    };
    counter("quma_gateway_connections_accepted_total",
            "Client connections accepted by the gateway.",
            stat(&Stats::connectionsAccepted));
    gauge("quma_gateway_connections_active",
          "Client connections currently multiplexed.",
          stat(&Stats::connectionsActive));
    counter("quma_gateway_requests_forwarded_total",
            "Job requests forwarded to a backend.",
            stat(&Stats::requestsForwarded));
    counter("quma_gateway_results_forwarded_total",
            "Backend results streamed back to clients.",
            stat(&Stats::resultsForwarded));
    counter("quma_gateway_progress_forwarded_total",
            "ProgressFrame pushes delivered to clients.",
            stat(&Stats::progressForwarded));
    counter("quma_gateway_errors_returned_total",
            "Requests answered with an ErrorReply frame.",
            stat(&Stats::errorsReturned));
    counter("quma_gateway_jobs_shed_total",
            "TrySubmits rejected locally on backend saturation.",
            stat(&Stats::jobsShed));
    counter("quma_gateway_jobs_resubmitted_total",
            "Jobs re-homed to another backend by failover.",
            stat(&Stats::jobsResubmitted));
    counter("quma_gateway_failovers_total",
            "Dead-backend-link events that triggered failover.",
            stat(&Stats::failovers));
    counter("quma_gateway_stats_served_total",
            "StatsRequests answered with the merged fleet view.",
            stat(&Stats::statsServed));
    gauge("quma_gateway_jobs_in_flight",
          "Tracked jobs whose results were not yet delivered.",
          stat(&Stats::jobsInFlight));
    gauge("quma_gateway_backends_healthy",
          "Backends currently passing health checks.", [this] {
              std::size_t n = 0;
              for (const auto &b : fleet.counters().backends)
                  n += b.healthy ? 1 : 0;
              return static_cast<double>(n);
          });
    const std::vector<BackendSnapshot> backends = fleet.counters().backends;
    for (std::size_t i = 0; i < backends.size(); ++i) {
        auto backend = [this, i](auto pick) {
            return [this, i, pick] {
                return static_cast<double>(
                    pick(fleet.counters().backends[i]));
            };
        };
        const metrics::Labels labels{{"backend", backends[i].name}};
        gauge("quma_gateway_backend_healthy",
              "1 while the backend passes health checks.",
              backend([](const BackendSnapshot &b) { return b.healthy; }),
              labels);
        gauge("quma_gateway_backend_draining",
              "1 while the backend is drained out of routing.",
              backend([](const BackendSnapshot &b) { return b.draining; }),
              labels);
        counter("quma_gateway_backend_jobs_routed_total",
                "Submit frames routed to the backend.",
                backend([](const BackendSnapshot &b) { return b.jobsRouted; }),
                labels);
        counter("quma_gateway_backend_jobs_resubmitted_away_total",
                "Jobs failover moved OFF the backend.",
                backend([](const BackendSnapshot &b) {
                    return b.jobsResubmittedAway;
                }),
                labels);
    }
    // The merged fleet view: one scrape of the gateway answers
    // fleet-wide capacity questions.
    auto fleetView = [this](auto pick) {
        return [this, pick] {
            return static_cast<double>(
                pick(fleet.fleetStats(cfg.healthInterval)));
        };
    };
    counter("quma_fleet_jobs_submitted_total",
            "Jobs accepted across all live backends.",
            fleetView([](const StatsFrame &s) { return s.scheduler.submitted; }));
    counter("quma_fleet_jobs_completed_total",
            "Jobs completed across all live backends.",
            fleetView([](const StatsFrame &s) { return s.scheduler.completed; }));
    counter("quma_fleet_jobs_failed_total",
            "Jobs failed across all live backends.",
            fleetView([](const StatsFrame &s) { return s.scheduler.failed; }));
    counter("quma_fleet_shards_executed_total",
            "Tasks executed across all live backends: every shard, "
            "opaque jobs included.",
            fleetView([](const StatsFrame &s) {
                return s.scheduler.shardsExecuted;
            }));
    gauge("quma_fleet_machine_saturation",
          "Worst machine-saturation EWMA across the fleet.",
          fleetView([](const StatsFrame &s) {
              return s.scheduler.machineSaturation;
          }));
    gauge("quma_fleet_queue_capacity",
          "Summed effective queue capacity across the fleet.",
          fleetView([](const StatsFrame &s) {
              return s.effectiveQueueCapacity;
          }));
    counter("quma_fleet_pool_machines_created_total",
            "Machines constructed across all live backends.",
            fleetView([](const StatsFrame &s) { return s.pool.machinesCreated; }));
    counter("quma_fleet_cache_program_hits_total",
            "Program-cache hits across all live backends.",
            fleetView([](const StatsFrame &s) { return s.cache.programHits; }));
}

} // namespace quma::net
