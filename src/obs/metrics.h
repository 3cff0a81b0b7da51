/**
 * @file
 * Deterministic live-metrics registry: named counters, gauges, and
 * sliding-window histograms, sampled on a simulated-time cadence.
 *
 * The registry is the live half of the observability story (traces are
 * the forensic half): instrumented code pushes counter bumps and window
 * observations through a nullable MetricsScope handle — the exact
 * pattern of trace::TraceScope, zero overhead when detached — and a
 * per-trial sampler pulls gauge state and appends one Sample per metric
 * per tick. Everything is keyed on simulated time and plain data, so
 * snapshots are byte-identical across `--threads` values.
 *
 * Metric names are passed as `std::string_view` and looked up without
 * building a string, so a metered hot path (every fabric recompute)
 * allocates nothing once each of its names has been touched: a name is
 * copied only when it first registers. Registration, and so snapshot
 * order, stays first-touch order.
 */

#ifndef C4_OBS_METRICS_H
#define C4_OBS_METRICS_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace c4::obs {

enum class MetricKind : std::uint8_t {
    Counter, ///< monotonic (or externally-set) integer total
    Gauge,   ///< last-write-wins instantaneous value
    Window,  ///< sliding-window quantile histogram over observations
};

/** Stable short name, used in the c4metrics/1 JSONL `k` field. */
const char *kindName(MetricKind kind);

/** Inverse of kindName(); false when @p text names no kind. */
bool kindFromName(std::string_view text, MetricKind &out);

/**
 * One metric's state captured at one sampling tick. Counter samples
 * carry `count`; gauge samples carry `value`; window samples carry
 * `count` (observations ever) plus the window min/p50/p90/p99/max.
 */
struct Sample {
    Time when = 0;
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::int64_t count = 0;
    double value = 0.0;
    double min = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;

    bool operator==(const Sample &) const = default;
};

/**
 * Registry of named metrics plus the samples collected so far. Metrics
 * are created on first touch and iterated in first-registration order,
 * so snapshot output depends only on the instrumented code path — never
 * on hash-map iteration order. Re-using a name with a different kind is
 * a programming error and throws std::logic_error.
 */
class MetricRegistry
{
  public:
    /** Bump a counter by @p delta (creating it at zero). */
    void addCounter(std::string_view name, std::int64_t delta = 1);
    /** Overwrite a counter with an externally-tracked absolute total. */
    void setCounter(std::string_view name, std::int64_t absolute);
    void setGauge(std::string_view name, double v);
    /** Feed one observation into a sliding-window histogram. */
    void observe(std::string_view name, double v);

    /** Append one Sample per registered metric, stamped @p now. */
    void snapshot(Time now);

    std::size_t metricCount() const { return metrics_.size(); }
    const std::vector<Sample> &samples() const { return samples_; }

  private:
    /** Ring size for every Window metric. */
    static constexpr std::size_t kWindowCapacity = 512;

    struct Metric {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        std::int64_t counter = 0;
        double gauge = 0.0;
        WindowedQuantile window;

        Metric(std::string_view n, MetricKind k)
            : name(n), kind(k), window(kWindowCapacity)
        {
        }
    };

    /** Hashes a name the same whether it is a string or a view, so
     * index_.find() takes a view without building a string. */
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    // Deque for stable addresses + deterministic registration order;
    // the unordered_map is lookup-only and never iterated.
    std::deque<Metric> metrics_;
    std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
        index_;
    std::vector<Sample> samples_;

    Metric &metricFor(std::string_view name, MetricKind kind);
};

/**
 * Nullable, copyable handle to a MetricRegistry — the metrics twin of
 * trace::TraceScope. Instrumented code holds a scope by value and calls
 * the emitters unconditionally; a detached scope (the default) makes
 * every emitter a cheap no-op, so production paths carry no metrics
 * cost unless a registry is attached.
 */
class MetricsScope
{
  public:
    MetricsScope() = default;
    explicit MetricsScope(MetricRegistry *registry) : registry_(registry)
    {
    }

    bool attached() const { return registry_ != nullptr; }
    MetricRegistry *registry() const { return registry_; }

    void count(std::string_view name, std::int64_t delta = 1)
    {
        if (registry_ != nullptr)
            registry_->addCounter(name, delta);
    }

    void set(std::string_view name, std::int64_t absolute)
    {
        if (registry_ != nullptr)
            registry_->setCounter(name, absolute);
    }

    void gauge(std::string_view name, double v)
    {
        if (registry_ != nullptr)
            registry_->setGauge(name, v);
    }

    void observe(std::string_view name, double v)
    {
        if (registry_ != nullptr)
            registry_->observe(name, v);
    }

  private:
    MetricRegistry *registry_ = nullptr;
};

} // namespace c4::obs

#endif // C4_OBS_METRICS_H
