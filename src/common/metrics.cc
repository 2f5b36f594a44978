#include "common/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace quma::metrics {

namespace detail {

void
AtomicDouble::add(double v)
{
    std::uint64_t old = bits.load(std::memory_order_relaxed);
    for (;;) {
        double next = std::bit_cast<double>(old) + v;
        if (bits.compare_exchange_weak(old,
                                       std::bit_cast<std::uint64_t>(next),
                                       std::memory_order_relaxed))
            return;
    }
}

double
AtomicDouble::get() const
{
    return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

HistogramCell::HistogramCell(std::vector<double> upper_bounds)
    : bucketCounts(upper_bounds.size() + 1),
      bounds(std::move(upper_bounds))
{
}

void
HistogramCell::observe(double v)
{
    // First bucket whose upper bound admits v; the extra final slot
    // is the +Inf overflow. Bounds are few and sorted -- a linear
    // scan beats binary search at these sizes and stays branch-
    // predictable for clustered observations.
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i])
        ++i;
    bucketCounts[i].fetch_add(1, std::memory_order_relaxed);
    sum.add(v);
    observations.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

std::vector<double>
latencyBucketsSeconds()
{
    return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
            0.1,   0.25,   0.5,   1.0,  2.5,   5.0, 10.0};
}

MetricsRegistry::~MetricsRegistry() = default;

bool
MetricsRegistry::validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

bool
MetricsRegistry::validLabelName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    // "__"-prefixed label names are reserved for internal use by the
    // Prometheus ecosystem.
    return name.rfind("__", 0) != 0;
}

std::string
MetricsRegistry::escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
MetricsRegistry::formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    // Counts render as integers (the common case, and what the
    // format tests pin); everything else as shortest round-trippable
    // decimal.
    if (v == std::rint(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    // Shortest decimal that round-trips: bucket bounds like 0.1 must
    // render as "0.1", not "0.10000000000000001" -- scrape parsers
    // key histogram buckets on the literal `le` string.
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
MetricsRegistry::labelKey(const Labels &labels)
{
    // The rendered form IS the key: series with the same values
    // dedupe, and std::map order over it is the deterministic
    // exposition order.
    std::string key;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i)
            key += ',';
        key += labels[i].first;
        key += "=\"";
        key += escapeLabelValue(labels[i].second);
        key += '"';
    }
    return key;
}

void
MetricsRegistry::checkLabels(const std::string &name,
                             const Labels &labels)
{
    for (const auto &[k, v] : labels) {
        (void)v;
        if (!validLabelName(k))
            fatal("metric ", name, ": invalid label name '", k, "'");
        if (k == "le")
            fatal("metric ", name,
                  ": label 'le' is reserved for histogram buckets");
    }
}

MetricsRegistry::Family &
MetricsRegistry::familyLocked(const std::string &name,
                              const std::string &help, Kind kind,
                              const Labels &labels)
{
    if (!validMetricName(name))
        fatal("invalid metric name '", name, "'");
    checkLabels(name, labels);
    std::vector<std::string> names;
    names.reserve(labels.size());
    for (const auto &[k, v] : labels) {
        (void)v;
        names.push_back(k);
    }
    auto it = families.find(name);
    if (it == families.end()) {
        Family f;
        f.help = help;
        f.kind = kind;
        f.labelNames = std::move(names);
        it = families.emplace(name, std::move(f)).first;
        return it->second;
    }
    Family &f = it->second;
    if (f.kind != kind)
        fatal("metric '", name, "' re-registered with another type");
    if (f.labelNames != names)
        fatal("metric '", name,
              "' re-registered with a different label-name set");
    return f;
}

Histogram
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           const std::vector<double> &upper_bounds,
                           const Labels &labels)
{
    Histogram handle;
    for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
        if (!std::isfinite(upper_bounds[i]))
            fatal("histogram '", name,
                  "': bucket bounds must be finite (+Inf is implicit)");
        if (i > 0 && upper_bounds[i] <= upper_bounds[i - 1])
            fatal("histogram '", name,
                  "': bucket bounds must be strictly increasing");
    }
    std::lock_guard<std::mutex> lock(mu);
    Family &f = familyLocked(name, help, Kind::Histogram, labels);
    if (f.series.empty())
        f.buckets = upper_bounds;
    else if (f.buckets != upper_bounds)
        fatal("histogram '", name,
              "': every series must share the family's bucket bounds");
    Series &s = f.series[labelKey(labels)];
    if (!s.histogram) {
        s.labels = labels;
        s.histogram =
            std::make_unique<detail::HistogramCell>(upper_bounds);
    }
    handle.cell = s.histogram.get();
    return handle;
}

void
MetricsRegistry::gaugeFn(const std::string &name,
                         const std::string &help, const Labels &labels,
                         std::function<double()> fn)
{
    if (!fn)
        fatal("metric '", name, "': callback series needs a callable");
    std::lock_guard<std::mutex> lock(mu);
    Family &f = familyLocked(name, help, Kind::Gauge, labels);
    Series &s = f.series[labelKey(labels)];
    s.labels = labels;
    s.fn = std::move(fn);
}

void
MetricsRegistry::counterFn(const std::string &name,
                           const std::string &help,
                           const Labels &labels,
                           std::function<double()> fn)
{
    if (!fn)
        fatal("metric '", name, "': callback series needs a callable");
    std::lock_guard<std::mutex> lock(mu);
    Family &f = familyLocked(name, help, Kind::Counter, labels);
    Series &s = f.series[labelKey(labels)];
    s.labels = labels;
    s.fn = std::move(fn);
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    out.reserve(4096);

    auto escapeHelp = [](const std::string &help) {
        // HELP lines escape backslash and newline (not quotes --
        // help text is not quoted in the exposition format).
        std::string h;
        h.reserve(help.size());
        for (char c : help) {
            if (c == '\\')
                h += "\\\\";
            else if (c == '\n')
                h += "\\n";
            else
                h += c;
        }
        return h;
    };

    auto sampleLine = [&out](const std::string &name,
                             const std::string &labelStr, double v) {
        out += name;
        if (!labelStr.empty()) {
            out += '{';
            out += labelStr;
            out += '}';
        }
        out += ' ';
        out += formatValue(v);
        out += '\n';
    };

    for (const auto &[name, family] : families) {
        out += "# HELP " + name + ' ' + escapeHelp(family.help) + '\n';
        out += "# TYPE " + name + ' ';
        switch (family.kind) {
        case Kind::Counter:
            out += "counter";
            break;
        case Kind::Gauge:
            out += "gauge";
            break;
        case Kind::Histogram:
            out += "histogram";
            break;
        }
        out += '\n';

        for (const auto &[key, series] : family.series) {
            // Counters and gauges are callbacks; the rest are
            // histogram cells.
            if (series.fn) {
                sampleLine(name, key, series.fn());
                continue;
            }
            const detail::HistogramCell &h = *series.histogram;
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.bounds.size(); ++i) {
                cumulative += h.bucketCounts[i].load(
                    std::memory_order_relaxed);
                std::string bucketLabels = key;
                if (!bucketLabels.empty())
                    bucketLabels += ',';
                bucketLabels +=
                    "le=\"" + formatValue(h.bounds[i]) + '"';
                sampleLine(name + "_bucket", bucketLabels,
                           static_cast<double>(cumulative));
            }
            cumulative += h.bucketCounts[h.bounds.size()].load(
                std::memory_order_relaxed);
            std::string infLabels = key;
            if (!infLabels.empty())
                infLabels += ',';
            infLabels += "le=\"+Inf\"";
            sampleLine(name + "_bucket", infLabels,
                       static_cast<double>(cumulative));
            sampleLine(name + "_sum", key, h.sum.get());
            // _count from the SAME accumulation as the +Inf
            // bucket: the two must be equal in every scrape,
            // even one racing live observations.
            sampleLine(name + "_count", key,
                       static_cast<double>(cumulative));
        }
    }
    return out;
}

} // namespace quma::metrics
