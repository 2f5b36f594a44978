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
 * COUNTERS AND GAUGES ARE READ, NOT PUSHED. Every counter and gauge
 * is a callback series (counterFn / gaugeFn) evaluated at render
 * time. Each component already keeps its counts in its own Stats
 * struct under its own lock; its bindMetrics() registers callbacks
 * that read those fields, so the Stats field is the only record of a
 * count and a scrape always equals stats(). An unbound component
 * costs nothing. A callback must be thread-safe and must not call
 * back into this registry (it runs under the registry mutex).
 *
 * HISTOGRAMS are the one pushed kind: a distribution has no Stats
 * field to read. histogram() returns a HANDLE, a plain pointer into
 * a registry-owned cell; observe() is a handful of relaxed atomic
 * ops -- no lock, no allocation -- and a default-constructed handle
 * is a no-op.
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace quma::metrics {

/** Label set of one series: (name, value) pairs. */
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/**
 * Lock-free double accumulator: C++20 guarantees atomic<double>, but
 * fetch_add on floating atomics is patchily available, so add() is a
 * CAS loop on the bit pattern (one iteration in the uncontended
 * case). Relaxed ordering throughout: metrics are statistical, a
 * scrape needs no synchronizes-with edge with the instrumented code.
 */
struct AtomicDouble
{
    std::atomic<std::uint64_t> bits{0};

    void add(double v);
    double get() const;
};

struct HistogramCell
{
    /** Per-bucket NON-cumulative counts (render accumulates);
     *  one extra slot at the end is the +Inf overflow bucket. */
    std::vector<std::atomic<std::uint64_t>> bucketCounts;
    AtomicDouble sum;
    std::atomic<std::uint64_t> observations{0};
    /** Upper bounds, strictly increasing, +Inf excluded. */
    std::vector<double> bounds;

    explicit HistogramCell(std::vector<double> upper_bounds);
    void observe(double v);
};

} // namespace detail

/** Fixed-bucket distribution handle (no-op when default-constructed). */
class Histogram
{
  public:
    void
    observe(double v)
    {
        if (cell)
            cell->observe(v);
    }
    std::uint64_t
    count() const
    {
        return cell ? cell->observations.load(std::memory_order_relaxed)
                    : 0;
    }

  private:
    friend class MetricsRegistry;
    detail::HistogramCell *cell = nullptr;
};

/**
 * Default histogram buckets for latencies in seconds: 1 ms to 10 s,
 * roughly 1-2.5-5 per decade (the Prometheus convention).
 */
std::vector<double> latencyBucketsSeconds();

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register (or re-fetch) the histogram series `name`+`labels`.
     * Re-registering an identical series returns a handle to the
     * SAME cell; registering `name` with a different type or a
     * different label-name set fatal()s (as for every kind).
     * @param upper_bounds strictly increasing finite bucket bounds
     *        (+Inf is implicit and always appended). Every series of
     *        one family must use the same bounds.
     */
    Histogram histogram(const std::string &name,
                        const std::string &help,
                        const std::vector<double> &upper_bounds,
                        const Labels &labels = {});

    /**
     * Callback series: `fn` is evaluated at every render, under the
     * registry mutex. The fn must be thread-safe and must not touch
     * this registry. Re-registering a series replaces its callback.
     */
    void gaugeFn(const std::string &name, const std::string &help,
                 const Labels &labels, std::function<double()> fn);
    void counterFn(const std::string &name, const std::string &help,
                   const Labels &labels, std::function<double()> fn);

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
        /** Set for histogram series only. */
        std::unique_ptr<detail::HistogramCell> histogram;
        /** Set for counter and gauge series only. */
        std::function<double()> fn;
    };

    struct Family
    {
        std::string help;
        Kind kind = Kind::Counter;
        /** Label names every series of this family must carry. */
        std::vector<std::string> labelNames;
        /** Histogram bucket bounds shared by the family. */
        std::vector<double> buckets;
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
