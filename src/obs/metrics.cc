#include "obs/metrics.h"

#include <stdexcept>

namespace c4::obs {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Window:
        return "window";
    }
    return "unknown";
}

bool
kindFromName(std::string_view text, MetricKind &out)
{
    if (text == "counter") {
        out = MetricKind::Counter;
        return true;
    }
    if (text == "gauge") {
        out = MetricKind::Gauge;
        return true;
    }
    if (text == "window") {
        out = MetricKind::Window;
        return true;
    }
    return false;
}

MetricRegistry::Metric &
MetricRegistry::metricFor(std::string_view name, MetricKind kind)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        Metric &m = metrics_[it->second];
        if (m.kind != kind) {
            throw std::logic_error(
                "metric '" + std::string(name) + "' registered as " +
                kindName(m.kind) + ", touched as " + kindName(kind));
        }
        return m;
    }
    Metric &m = metrics_.emplace_back(name, kind);
    index_.emplace(m.name, metrics_.size() - 1);
    return m;
}

void
MetricRegistry::addCounter(std::string_view name, std::int64_t delta)
{
    metricFor(name, MetricKind::Counter).counter += delta;
}

void
MetricRegistry::setCounter(std::string_view name, std::int64_t absolute)
{
    metricFor(name, MetricKind::Counter).counter = absolute;
}

void
MetricRegistry::setGauge(std::string_view name, double v)
{
    metricFor(name, MetricKind::Gauge).gauge = v;
}

void
MetricRegistry::observe(std::string_view name, double v)
{
    metricFor(name, MetricKind::Window).window.add(v);
}

void
MetricRegistry::snapshot(Time now)
{
    for (const Metric &m : metrics_) {
        Sample s;
        s.when = now;
        s.name = m.name;
        s.kind = m.kind;
        switch (m.kind) {
        case MetricKind::Counter:
            s.count = m.counter;
            break;
        case MetricKind::Gauge:
            s.value = m.gauge;
            break;
        case MetricKind::Window:
            s.count = static_cast<std::int64_t>(m.window.count());
            s.min = m.window.min();
            s.p50 = m.window.percentile(50.0);
            s.p90 = m.window.percentile(90.0);
            s.p99 = m.window.percentile(99.0);
            s.max = m.window.max();
            break;
        }
        samples_.push_back(std::move(s));
    }
}

} // namespace c4::obs
