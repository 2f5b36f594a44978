#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace quma::metrics {

void
LatencyHistogram::observe(double seconds)
{
    // First bucket whose upper bound admits the value; the final
    // slot is the +Inf overflow. The bounds are few and sorted -- a
    // linear scan beats binary search at this size.
    std::size_t i = 0;
    while (i < kLatencyBoundsSeconds.size() &&
           seconds > kLatencyBoundsSeconds[i])
        ++i;
    ++buckets[i];
    sum += seconds;
    max = std::max(max, seconds);
}

std::uint64_t
LatencyHistogram::count() const
{
    std::uint64_t n = 0;
    for (std::uint64_t b : buckets)
        n += b;
    return n;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    sum += other.sum;
    max = std::max(max, other.max);
}

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

void
MetricsRegistry::histogramFn(const std::string &name,
                             const std::string &help,
                             const Labels &labels,
                             std::function<LatencyHistogram()> fn)
{
    if (!fn)
        fatal("metric '", name, "': callback series needs a callable");
    std::lock_guard<std::mutex> lock(mu);
    Family &f = familyLocked(name, help, Kind::Histogram, labels);
    Series &s = f.series[labelKey(labels)];
    s.labels = labels;
    s.readHistogram = std::move(fn);
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
            if (family.kind != Kind::Histogram) {
                sampleLine(name, key, series.fn());
                continue;
            }
            const LatencyHistogram h = series.readHistogram();
            auto bucketLine = [&](const std::string &le,
                                  std::uint64_t cumulative) {
                std::string bucketLabels = key;
                if (!bucketLabels.empty())
                    bucketLabels += ',';
                bucketLabels += "le=\"" + le + '"';
                sampleLine(name + "_bucket", bucketLabels,
                           static_cast<double>(cumulative));
            };
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < kLatencyBoundsSeconds.size();
                 ++i) {
                cumulative += h.buckets[i];
                bucketLine(formatValue(kLatencyBoundsSeconds[i]),
                           cumulative);
            }
            cumulative += h.buckets.back();
            bucketLine("+Inf", cumulative);
            sampleLine(name + "_sum", key, h.sum);
            // _count is the +Inf bucket's own accumulation over one
            // copy of the histogram: the two match in every scrape.
            sampleLine(name + "_count", key,
                       static_cast<double>(cumulative));
        }
    }
    return out;
}

} // namespace quma::metrics
