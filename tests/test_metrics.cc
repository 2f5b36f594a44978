/**
 * @file
 * Tests of the observability layer: MetricsRegistry semantics, the
 * Prometheus text-exposition invariants (name/label grammar,
 * escaping, cumulative buckets, +Inf == _count, deterministic
 * ordering), the HTTP /metrics endpoint, and the metrics wiring
 * through the runtime (every counter equals its Stats field).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "net/metrics_endpoint.hh"
#include "net/transport.hh"
#include "runtime/service.hh"

namespace quma {
namespace {

using metrics::MetricsRegistry;

/** A callback that always reads `v`. */
std::function<double()>
constant(double v)
{
    return [v] { return v; };
}

// --- grammar ----------------------------------------------------------------

TEST(MetricsGrammar, MetricNames)
{
    EXPECT_TRUE(MetricsRegistry::validMetricName("quma_jobs_total"));
    EXPECT_TRUE(MetricsRegistry::validMetricName("a:b:c"));
    EXPECT_TRUE(MetricsRegistry::validMetricName("_leading"));
    EXPECT_FALSE(MetricsRegistry::validMetricName(""));
    EXPECT_FALSE(MetricsRegistry::validMetricName("9starts_digit"));
    EXPECT_FALSE(MetricsRegistry::validMetricName("has-dash"));
    EXPECT_FALSE(MetricsRegistry::validMetricName("has space"));
}

TEST(MetricsGrammar, LabelNames)
{
    EXPECT_TRUE(MetricsRegistry::validLabelName("priority"));
    EXPECT_TRUE(MetricsRegistry::validLabelName("_x1"));
    EXPECT_FALSE(MetricsRegistry::validLabelName(""));
    EXPECT_FALSE(MetricsRegistry::validLabelName("9p"));
    EXPECT_FALSE(MetricsRegistry::validLabelName("a:b"));
    // "__" prefix is reserved by the Prometheus ecosystem.
    EXPECT_FALSE(MetricsRegistry::validLabelName("__reserved"));
}

TEST(MetricsGrammar, LabelValueEscaping)
{
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\nb"), "a\\nb");
}

TEST(MetricsGrammar, ValueFormatting)
{
    EXPECT_EQ(MetricsRegistry::formatValue(0.0), "0");
    EXPECT_EQ(MetricsRegistry::formatValue(42.0), "42");
    EXPECT_EQ(MetricsRegistry::formatValue(-3.0), "-3");
    EXPECT_EQ(MetricsRegistry::formatValue(0.25), "0.25");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  std::numeric_limits<double>::infinity()),
              "+Inf");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  -std::numeric_limits<double>::infinity()),
              "-Inf");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  std::numeric_limits<double>::quiet_NaN()),
              "NaN");
}

// --- registration semantics -------------------------------------------------

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counterFn("quma_twice", "help", {}, constant(1));
    EXPECT_THROW(reg.gaugeFn("quma_twice", "help", {}, constant(1)),
                 FatalError);
}

TEST(MetricsRegistry, LabelNameSetMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counterFn("quma_labeled", "help", {{"priority", "high"}},
                  constant(1));
    // Same name, different VALUE of the same label: fine (new series).
    reg.counterFn("quma_labeled", "help", {{"priority", "batch"}},
                  constant(1));
    // Different label-name set: a schema violation.
    EXPECT_THROW(reg.counterFn("quma_labeled", "help", {{"type", "x"}},
                               constant(1)),
                 FatalError);
}

TEST(MetricsRegistry, InvalidNamesAreFatal)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.counterFn("bad-name", "help", {}, constant(1)),
                 FatalError);
    EXPECT_THROW(reg.counterFn("quma_x", "help", {{"bad-label", "v"}},
                               constant(1)),
                 FatalError);
    EXPECT_THROW(
        reg.counterFn("quma_x", "help", {{"le", "v"}}, constant(1)),
        FatalError);
}

// --- exposition format ------------------------------------------------------

TEST(MetricsRender, HelpTypeAndSampleLines)
{
    MetricsRegistry reg;
    reg.counterFn("quma_events_total", "Things that\nhappened \\ here",
                  {}, constant(3));
    std::string out = reg.renderPrometheus();
    // HELP escapes newline and backslash; TYPE names the kind.
    EXPECT_NE(out.find("# HELP quma_events_total Things "
                       "that\\nhappened \\\\ here\n"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE quma_events_total counter\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_events_total 3\n"), std::string::npos);
}

TEST(MetricsRender, LabelsRenderEscaped)
{
    MetricsRegistry reg;
    reg.gaugeFn("quma_g", "help", {{"name", "a\"b\\c"}}, constant(1));
    std::string out = reg.renderPrometheus();
    EXPECT_NE(out.find("quma_g{name=\"a\\\"b\\\\c\"} 1\n"),
              std::string::npos);
}

TEST(MetricsRender, DeterministicOrdering)
{
    // Families sorted by name, series by label values, regardless of
    // registration order.
    MetricsRegistry reg;
    reg.counterFn("quma_zzz_total", "z", {}, constant(1));
    reg.counterFn("quma_aaa_total", "a", {}, constant(1));
    reg.gaugeFn("quma_mid", "m", {{"k", "beta"}}, constant(1));
    reg.gaugeFn("quma_mid", "m", {{"k", "alpha"}}, constant(2));
    std::string out = reg.renderPrometheus();
    std::size_t aaa = out.find("quma_aaa_total");
    std::size_t mid = out.find("quma_mid");
    std::size_t zzz = out.find("quma_zzz_total");
    ASSERT_NE(aaa, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(zzz, std::string::npos);
    EXPECT_LT(aaa, mid);
    EXPECT_LT(mid, zzz);
    EXPECT_LT(out.find("k=\"alpha\""), out.find("k=\"beta\""));
    // Two renders are byte-identical.
    EXPECT_EQ(out, reg.renderPrometheus());
}

/** A histogram callback that always reads `h`. */
std::function<metrics::LatencyHistogram()>
constantHistogram(const metrics::LatencyHistogram &h)
{
    return [h] { return h; };
}

TEST(MetricsRender, HistogramInvariants)
{
    metrics::LatencyHistogram h;
    h.observe(0.05);  // bucket le=0.05 (an edge value)
    h.observe(0.5);   // bucket le=0.5
    h.observe(0.5);
    h.observe(100.0); // +Inf overflow
    MetricsRegistry reg;
    reg.histogramFn("quma_lat_seconds", "help", {}, constantHistogram(h));
    std::string out = reg.renderPrometheus();

    EXPECT_NE(out.find("# TYPE quma_lat_seconds histogram\n"),
              std::string::npos);
    // One line per fixed bound, each CUMULATIVE.
    for (double le : metrics::kLatencyBoundsSeconds) {
        const int expected = le < 0.05 ? 0 : le < 0.5 ? 1 : 3;
        EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"" +
                           MetricsRegistry::formatValue(le) + "\"} " +
                           std::to_string(expected) + "\n"),
                  std::string::npos)
            << le << "\n"
            << out;
    }
    // +Inf bucket equals _count -- the scrape-consistency invariant.
    EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_count 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_sum 101.05\n"),
              std::string::npos);
    EXPECT_EQ(h.count(), 4u);
}

TEST(MetricsRender, HistogramLabelsComposeWithLe)
{
    metrics::LatencyHistogram h;
    h.observe(0.5);
    MetricsRegistry reg;
    reg.histogramFn("quma_hl_seconds", "help", {{"priority", "high"}},
                    constantHistogram(h));
    std::string out = reg.renderPrometheus();
    EXPECT_NE(out.find("quma_hl_seconds_bucket{priority=\"high\","
                       "le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_hl_seconds_bucket{priority=\"high\","
                       "le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_hl_seconds_count{priority=\"high\"} 1\n"),
              std::string::npos);
}

TEST(MetricsRender, CallbackSeries)
{
    MetricsRegistry reg;
    double depth = 12.0;
    reg.gaugeFn("quma_cb_depth", "help", {},
                [&depth] { return depth; });
    EXPECT_NE(reg.renderPrometheus().find("quma_cb_depth 12\n"),
              std::string::npos);
    depth = 3.0; // evaluated at render time, not registration time
    EXPECT_NE(reg.renderPrometheus().find("quma_cb_depth 3\n"),
              std::string::npos);
}

// --- the latency value type -------------------------------------------------

TEST(LatencyHistogram, ObserveMergeAndEquality)
{
    metrics::LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    // A value equal to a bound lands in that bound's `le` bucket...
    h.observe(0.001);
    h.observe(10.0);
    // ...one just above it in the next bucket...
    h.observe(0.0011);
    // ...and anything past the last finite bound in +Inf.
    h.observe(10.5);
    const std::size_t inf = metrics::kLatencyBoundsSeconds.size();
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[inf - 1], 1u);
    EXPECT_EQ(h.buckets[inf], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.max, 10.5);

    // merge() equals observing both streams (dyadic values keep the
    // sums exact whatever the addition order).
    const std::vector<double> a = {0.5, 0.125, 20.0};
    const std::vector<double> b = {0.25, 0.0078125, 2.0, 0.5};
    metrics::LatencyHistogram ha;
    metrics::LatencyHistogram hb;
    metrics::LatencyHistogram both;
    for (double v : a) {
        ha.observe(v);
        both.observe(v);
    }
    for (double v : b) {
        hb.observe(v);
        both.observe(v);
    }
    EXPECT_NE(ha, both);
    ha.merge(hb);
    EXPECT_EQ(ha, both);
    EXPECT_EQ(ha.count(), 7u);
    EXPECT_EQ(ha.max, 20.0);
    // Merging the empty histogram is the identity.
    ha.merge(metrics::LatencyHistogram{});
    EXPECT_EQ(ha, both);
}

// --- HTTP endpoint ----------------------------------------------------------

namespace {

/** One HTTP exchange over an in-process loopback connection. */
std::string
httpExchange(net::LoopbackListener &listener,
             const std::string &request)
{
    std::unique_ptr<net::ByteStream> conn = listener.connect();
    conn->sendAll(
        reinterpret_cast<const std::uint8_t *>(request.data()),
        request.size());
    std::string response;
    std::uint8_t byte = 0;
    // The endpoint closes after one response: read to EOF.
    while (conn->recvAll(&byte, 1))
        response.push_back(static_cast<char>(byte));
    return response;
}

} // namespace

TEST(MetricsEndpoint, ServesPrometheusExposition)
{
    metrics::MetricsRegistry reg;
    reg.counterFn("quma_scraped_total", "help", {}, constant(7));
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));

    std::string response = httpExchange(
        *lp, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
    EXPECT_NE(response.find(
                  "Content-Type: text/plain; version=0.0.4; "
                  "charset=utf-8\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("quma_scraped_total 7\n"),
              std::string::npos);
    // Content-Length matches the body exactly.
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string body = response.substr(split + 4);
    EXPECT_NE(response.find("Content-Length: " +
                            std::to_string(body.size()) + "\r\n"),
              std::string::npos);
    EXPECT_EQ(endpoint.scrapesServed(), 1u);
    endpoint.stop();
}

TEST(MetricsEndpoint, UnknownPathIs404)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "GET /other HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found\r\n"),
              std::string::npos);
    EXPECT_EQ(endpoint.scrapesServed(), 0u);
}

TEST(MetricsEndpoint, NonGetIs400)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 400 Bad Request\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, ServesScrapesSerially)
{
    metrics::MetricsRegistry reg;
    reg.counterFn("quma_serial_total", "help", {}, constant(1));
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    for (int i = 0; i < 3; ++i) {
        std::string response =
            httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
        EXPECT_NE(response.find("quma_serial_total 1\n"),
                  std::string::npos);
    }
    EXPECT_EQ(endpoint.scrapesServed(), 3u);
}

TEST(MetricsEndpoint, NotFoundBodyAndLengthAreExact)
{
    // Regression pin: the 404 carries its hint body with an exact
    // Content-Length and an explicit Connection: close.
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "GET /nosuch HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("Connection: close\r\n"),
              std::string::npos);
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(response.substr(split + 4), "try GET /metrics\n");
    EXPECT_NE(response.find("Content-Length: 17\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, HeadAnswersHeadersOnly)
{
    metrics::MetricsRegistry reg;
    reg.counterFn("quma_head_total", "help", {}, constant(3));
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));

    // The GET body's size is what HEAD must state...
    std::string get =
        httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    std::size_t split = get.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string body = get.substr(split + 4);

    // ...while sending zero body bytes itself.
    std::string head =
        httpExchange(*lp, "HEAD /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(head.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
    EXPECT_NE(head.find("Content-Length: " +
                        std::to_string(body.size()) + "\r\n"),
              std::string::npos);
    split = head.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(head.substr(split + 4), "");
    // HEAD routes like GET: both counted as served scrapes.
    EXPECT_EQ(endpoint.scrapesServed(), 2u);
}

TEST(MetricsEndpoint, RegisteredHandlerServesItsPath)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    int renders = 0;
    endpoint.addHandler("/healthz", "application/json",
                        [&renders] {
                            ++renders;
                            return std::string(
                                "{\"status\":\"ok\"}\n");
                        });

    std::string response =
        httpExchange(*lp, "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("{\"status\":\"ok\"}"),
              std::string::npos);
    EXPECT_EQ(renders, 1);

    // HEAD still renders (for the length) but ships no body.
    response = httpExchange(*lp, "HEAD /healthz HTTP/1.0\r\n\r\n");
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(response.substr(split + 4), "");
    EXPECT_EQ(renders, 2);

    // Unregistered paths still 404; /metrics still serves.
    response = httpExchange(*lp, "GET /statusz HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("404 Not Found"), std::string::npos);
    response = httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, ThrowingHandlerIs500AndEndpointSurvives)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    endpoint.addHandler("/boom", "text/plain",
                        []() -> std::string {
                            throw std::runtime_error("render died");
                        });
    std::string response =
        httpExchange(*lp, "GET /boom HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 500 Internal Server Error"),
              std::string::npos);
    EXPECT_NE(response.find("render died"), std::string::npos);
    // The endpoint keeps serving after the failed render.
    response = httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
}

// --- runtime integration ----------------------------------------------------

namespace {

runtime::JobSpec
sweepJob(std::uint64_t seed)
{
    runtime::JobSpec job;
    job.name = "metrics-sweep";
    job.assembly = R"(
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        halt
    )";
    job.bins = 1;
    job.seed = seed;
    job.maxCycles = 2'000'000;
    return job;
}

} // namespace

/** Sample lines of a scrape, keyed by name plus rendered labels. */
std::map<std::string, double>
samplesOf(const std::string &scrape)
{
    std::map<std::string, double> samples;
    std::istringstream in(scrape);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t space = line.rfind(' ');
        samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
    }
    return samples;
}

TEST(MetricsIntegration, ServiceFamiliesCoverAllLayers)
{
    // Paused with room for five tasks: two plain jobs, one to cancel
    // and a 2-shard job fill the queue, so a trySubmit is rejected.
    runtime::ExperimentService service(
        {.workers = 2, .queueCapacity = 5, .startPaused = true});
    metrics::MetricsRegistry reg;
    service.bindMetrics(reg);

    std::vector<runtime::JobId> ids;
    for (int i = 0; i < 2; ++i)
        ids.push_back(service.submit(sweepJob(0x5eed + i)));
    const runtime::JobId axed = service.submit(sweepJob(0x5eed + 2));
    runtime::JobSpec sharded = sweepJob(0x5eed + 3);
    sharded.rounds = 16;
    sharded.shards = 2;
    ids.push_back(service.submit(sharded));
    EXPECT_FALSE(service.trySubmit(sweepJob(0x5eed + 4)).has_value());
    EXPECT_TRUE(service.cancel(axed));
    service.start();
    for (runtime::JobId id : ids)
        EXPECT_FALSE(service.await(id).failed());

    const std::string out = reg.renderPrometheus();
    // Latency histogram: per-priority series with the le label; the
    // cancelled job never ran and records no latency.
    EXPECT_NE(out.find("quma_job_latency_seconds_count"
                       "{priority=\"normal\"} 3\n"),
              std::string::npos);
    // Queue drained: depth gauge renders 0.
    EXPECT_NE(out.find("quma_queue_depth 0\n"), std::string::npos);

    // Every counter is its Stats field, read at render time.
    const runtime::ServiceStats s = service.stats();
    EXPECT_EQ(s.scheduler.submitted, 4u);
    EXPECT_EQ(s.scheduler.completed, 3u);
    EXPECT_EQ(s.scheduler.rejected, 1u);
    EXPECT_EQ(s.scheduler.cancelled, 1u);
    EXPECT_EQ(s.scheduler.shardedJobs, 1u);
    EXPECT_GE(s.cache.programHits + s.cache.programMisses, 3u);
    const std::map<std::string, double> samples = samplesOf(out);
    const std::pair<const char *, std::size_t> expected[] = {
        {"quma_jobs_submitted_total", s.scheduler.submitted},
        {"quma_jobs_completed_total", s.scheduler.completed},
        {"quma_jobs_failed_total", s.scheduler.failed},
        {"quma_jobs_cancelled_total", s.scheduler.cancelled},
        {"quma_jobs_sharded_total", s.scheduler.shardedJobs},
        {"quma_submit_rejected_total", s.scheduler.rejected},
        {"quma_admission_soft_rejects_total",
         s.scheduler.admissionSoftRejects},
        {"quma_shards_executed_total", s.scheduler.shardsExecuted},
        {"quma_shards_stolen_total", s.scheduler.shardsStolen},
        {"quma_rounds_stolen_total", s.scheduler.roundsStolen},
        {"quma_saturated_runs_total", s.scheduler.saturatedRuns},
        {"quma_machine_cycles_visited_total",
         s.scheduler.eventsDispatched},
        {"quma_rounds_replayed_total", s.scheduler.roundsReplayed},
        {"quma_pool_acquisitions_total", s.pool.acquisitions},
        {"quma_pool_reuse_hits_total", s.pool.reuseHits},
        {"quma_pool_machines_created_total", s.pool.machinesCreated},
        {"quma_pool_rebinds_total", s.pool.rebinds},
        {"quma_pool_machine_resets_total", s.pool.machineResets},
        {"quma_pool_machines_idle", s.pool.idleMachines},
        {"quma_pool_machines_leased", s.pool.leasedMachines},
        {"quma_cache_program_hits_total", s.cache.programHits},
        {"quma_cache_program_misses_total", s.cache.programMisses},
        {"quma_cache_program_evictions_total", s.cache.programEvictions},
        {"quma_cache_lut_hits_total", s.cache.lutHits},
        {"quma_cache_lut_misses_total", s.cache.lutMisses},
        {"quma_cache_lut_evictions_total", s.cache.lutEvictions},
        {"quma_cache_tape_hits_total", s.cache.tapeHits},
        {"quma_cache_tape_misses_total", s.cache.tapeMisses},
        {"quma_cache_tape_rejections_total", s.cache.tapeRejections},
    };
    for (const auto &[name, value] : expected) {
        ASSERT_EQ(samples.count(name), 1u) << name;
        EXPECT_EQ(samples.at(name), static_cast<double>(value)) << name;
    }
    // The scrape has no jobs/pool/cache counter this table misses.
    for (const auto &[name, value] : samples) {
        (void)value;
        const bool layered = name.rfind("quma_jobs_", 0) == 0 ||
                             name.rfind("quma_pool_", 0) == 0 ||
                             name.rfind("quma_cache_", 0) == 0;
        if (!layered || name.find("_total") == std::string::npos)
            continue;
        EXPECT_TRUE(std::any_of(std::begin(expected), std::end(expected),
                                [&](const auto &e) {
                                    return name == e.first;
                                }))
            << name;
    }
}

/**
 * A registry bound while jobs run still sees every completion: the
 * latency histogram is the scheduler's Stats field, read at render
 * time, so jobs that finished before the bind are in the scrape. The
 * bind itself races the workers' completions (the TSan lane runs
 * this).
 */
TEST(MetricsIntegration, LateBindSeesEveryCompletion)
{
    runtime::ExperimentService service({.workers = 2});
    std::vector<runtime::JobId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(service.submit(sweepJob(0x1a7e + i)));
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(service.await(ids[i]).failed());

    metrics::MetricsRegistry reg;
    service.bindMetrics(reg);
    for (runtime::JobId id : ids)
        EXPECT_FALSE(service.await(id).failed());

    const std::map<std::string, double> samples =
        samplesOf(reg.renderPrometheus());
    double latencyCount = 0.0;
    for (const char *cls : {"batch", "normal", "high"})
        latencyCount += samples.at(
            std::string("quma_job_latency_seconds_count{priority=\"") +
            cls + "\"}");
    EXPECT_EQ(samples.at("quma_jobs_completed_total"), 8.0);
    EXPECT_EQ(latencyCount, samples.at("quma_jobs_completed_total"));
}

} // namespace
} // namespace quma
