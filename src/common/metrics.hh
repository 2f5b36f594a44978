/**
 * @file
 * MetricsRegistry: the observability substrate of the serving
 * runtime.
 *
 * A registry holds metric FAMILIES (name + help + type), each fanned
 * out into SERIES by label values -- the Prometheus data model. Three
 * kinds cover everything the runtime exports:
 *
 *  - counter: monotonically increasing event count (jobs completed,
 *    frames served, bytes moved);
 *  - gauge: a value that goes both ways (queue depth, leased
 *    machines, an admission EWMA);
 *  - histogram: fixed-bucket distribution of observations (job
 *    latency), rendered with the cumulative
 *    `_bucket{le=...}` / `_sum` / `_count` triple Prometheus expects.
 *
 * EVERY SERIES IS READ, NOT PUSHED. Each series is a callback
 * (counterFn / gaugeFn / histogramFn) evaluated at render time. Each
 * component already keeps its counts and latency distributions in
 * its own Stats struct under its own lock; its bindMetrics()
 * registers callbacks that read those fields, so the Stats field is
 * the only record of a count or a distribution and a scrape always
 * equals stats(). An unbound component costs nothing, and no
 * component holds a pointer into a registry: the one lifetime rule
 * is that a bound component outlives the registry's last render. A
 * callback must be thread-safe and must not call back into this
 * registry (it runs under the registry mutex).
 *
 * RENDERING. renderPrometheus() emits text exposition format v0.0.4:
 * families sorted by name, series sorted by label values, label
 * values escaped (backslash, double quote, newline), histograms
 * cumulative with a final le="+Inf" bucket equal to `_count`. The
 * ordering is deterministic so scrapes diff cleanly and tests can
 * pin exact output.
 *
 * Metric and label names are validated against the Prometheus
 * grammar at registration (fatal() on violation -- a bad name is a
 * programming error, not load-dependent).
 */

#ifndef QUMA_COMMON_METRICS_HH
#define QUMA_COMMON_METRICS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace quma::metrics {

/** Label set of one series: (name, value) pairs. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Upper bounds (seconds) of the finite latency buckets: 1 ms to 10 s,
 * roughly 1-2.5-5 per decade (the Prometheus convention). Every
 * latency histogram shares them.
 */
inline constexpr std::array<double, 13> kLatencyBoundsSeconds = {
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

/**
 * Fixed-bucket latency distribution: a plain value that its owner
 * observes under the lock that already guards its Stats, and that
 * copies, merges and travels on the wire as it is. No atomics, no
 * allocation.
 */
struct LatencyHistogram
{
    /** Per-bucket NON-cumulative counts (render accumulates); the
     *  last slot is the +Inf overflow bucket. */
    std::array<std::uint64_t, kLatencyBoundsSeconds.size() + 1>
        buckets{};
    double sum = 0.0;
    double max = 0.0;

    void observe(double seconds);
    /** Observations recorded (the bucket total). */
    std::uint64_t count() const;
    /** Fold `other` in: the result is as if this histogram had
     *  observed both streams. */
    void merge(const LatencyHistogram &other);
    bool operator==(const LatencyHistogram &) const = default;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Callback series: `fn` is evaluated at every render, under the
     * registry mutex. The fn must be thread-safe and must not touch
     * this registry. Re-registering a series replaces its callback.
     */
    void gaugeFn(const std::string &name, const std::string &help,
                 const Labels &labels, std::function<double()> fn);
    void counterFn(const std::string &name, const std::string &help,
                   const Labels &labels, std::function<double()> fn);
    /** Rendered with the kLatencyBoundsSeconds `le` buckets. */
    void histogramFn(const std::string &name, const std::string &help,
                     const Labels &labels,
                     std::function<LatencyHistogram()> fn);

    /** Text exposition format v0.0.4. */
    std::string renderPrometheus() const;

    // --- grammar helpers (exposed for the format tests) ---
    /** [a-zA-Z_:][a-zA-Z0-9_:]* */
    static bool validMetricName(const std::string &name);
    /** [a-zA-Z_][a-zA-Z0-9_]* and not starting "__" (reserved). */
    static bool validLabelName(const std::string &name);
    /** Escape backslash, double-quote and newline for label values. */
    static std::string escapeLabelValue(const std::string &value);
    /** Render a sample value the way the exposition format expects. */
    static std::string formatValue(double v);

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Series
    {
        Labels labels;
        /** Set for counter and gauge series only. */
        std::function<double()> fn;
        /** Set for histogram series only. */
        std::function<LatencyHistogram()> readHistogram;
    };

    struct Family
    {
        std::string help;
        Kind kind = Kind::Counter;
        /** Label names every series of this family must carry. */
        std::vector<std::string> labelNames;
        /** Keyed by the rendered label string: deterministic order
         *  and duplicate detection in one structure. */
        std::map<std::string, Series> series;
    };

    Family &familyLocked(const std::string &name,
                         const std::string &help, Kind kind,
                         const Labels &labels);
    static std::string labelKey(const Labels &labels);
    static void checkLabels(const std::string &name,
                            const Labels &labels);

    mutable std::mutex mu;
    /** std::map: families render sorted by name. */
    std::map<std::string, Family> families;
};

} // namespace quma::metrics

#endif // QUMA_COMMON_METRICS_HH
