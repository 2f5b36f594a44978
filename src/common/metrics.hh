/**
 * @file
 * MetricsRegistry: the observability substrate of the serving
 * runtime.
 *
 * A registry holds metric FAMILIES (name + help + type), each fanned
 * out into SERIES by label values -- the Prometheus data model. Three
 * instrument kinds cover everything the runtime counts:
 *
 *  - Counter: monotonically increasing event count (jobs completed,
 *    frames served, bytes moved);
 *  - Gauge: a value that goes both ways (queue depth, leased
 *    machines, an admission EWMA);
 *  - Histogram: fixed-bucket distribution of observations (job
 *    latency), rendered with the cumulative
 *    `_bucket{le=...}` / `_sum` / `_count` triple Prometheus expects.
 *
 * THREADING AND COST. Registration takes the registry mutex;
 * instrument HANDLES returned by it are plain pointers into
 * registry-owned cells, and every hot-path operation (inc / set /
 * observe) is a handful of relaxed atomic ops -- no lock, no
 * allocation. A default-constructed handle (and every handle from a
 * DISABLED registry) is a no-op, which is how instrumented code runs
 * at full speed when nobody is scraping: the instrumentation sites
 * always exist, the registry decides whether they cost anything
 * (pinned by the metrics-overhead section of
 * bench_runtime_throughput).
 *
 * CALLBACK SERIES (gaugeFn / counterFn) are evaluated at render time
 * -- the natural fit for point-in-time values a subsystem already
 * computes under its own lock (queue depth, idle machines). The
 * callback must be thread-safe and must not call back into this
 * registry.
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
    void set(double v);
    double get() const;
};

struct CounterCell
{
    AtomicDouble value;
};

struct GaugeCell
{
    AtomicDouble value;
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

/** Monotone event counter handle (no-op when default-constructed). */
class Counter
{
  public:
    void
    inc(double v = 1.0)
    {
        if (cell)
            cell->value.add(v);
    }
    double value() const { return cell ? cell->value.get() : 0.0; }
    bool bound() const { return cell != nullptr; }

  private:
    friend class MetricsRegistry;
    detail::CounterCell *cell = nullptr;
};

/** Point-in-time value handle (no-op when default-constructed). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (cell)
            cell->value.set(v);
    }
    void
    add(double v)
    {
        if (cell)
            cell->value.add(v);
    }
    double value() const { return cell ? cell->value.get() : 0.0; }
    bool bound() const { return cell != nullptr; }

  private:
    friend class MetricsRegistry;
    detail::GaugeCell *cell = nullptr;
};

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
    double sum() const { return cell ? cell->sum.get() : 0.0; }
    bool bound() const { return cell != nullptr; }

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
    /**
     * @param enabled false = every instrument this registry hands
     *        out is a no-op and renderPrometheus() returns "" --
     *        the zero-cost configuration the overhead bench pins.
     */
    explicit MetricsRegistry(bool enabled = true);
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    bool enabled() const { return on; }

    /**
     * Register (or re-fetch) the counter series `name`+`labels`.
     * Re-registering an identical series returns a handle to the
     * SAME cell; registering `name` with a different type or a
     * different label-name set fatal()s.
     */
    Counter counter(const std::string &name, const std::string &help,
                    const Labels &labels = {});
    Gauge gauge(const std::string &name, const std::string &help,
                const Labels &labels = {});
    /**
     * @param upper_bounds strictly increasing finite bucket bounds
     *        (+Inf is implicit and always appended). Every series of
     *        one family must use the same bounds.
     */
    Histogram histogram(const std::string &name,
                        const std::string &help,
                        const std::vector<double> &upper_bounds,
                        const Labels &labels = {});

    /**
     * Callback series: `fn` is evaluated at every render, under no
     * registry lock ordering guarantees beyond "during
     * renderPrometheus()". The fn must be thread-safe and must not
     * touch this registry.
     */
    void gaugeFn(const std::string &name, const std::string &help,
                 const Labels &labels, std::function<double()> fn);
    void counterFn(const std::string &name, const std::string &help,
                   const Labels &labels, std::function<double()> fn);

    /** Text exposition format v0.0.4; "" when disabled. */
    std::string renderPrometheus() const;

    /** Registered family count (diagnostics/tests). */
    std::size_t familyCount() const;

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
        std::unique_ptr<detail::CounterCell> counter;
        std::unique_ptr<detail::GaugeCell> gauge;
        std::unique_ptr<detail::HistogramCell> histogram;
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

    const bool on;
    mutable std::mutex mu;
    /** std::map: families render sorted by name. */
    std::map<std::string, Family> families;
};

} // namespace quma::metrics

#endif // QUMA_COMMON_METRICS_HH
