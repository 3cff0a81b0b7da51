/**
 * @file
 * Shared run options and per-trial result containers for the scenario
 * engine. Every scenario — paper figure, ablation, or ad-hoc workload —
 * runs under the same RunOptions, so the CLI flags (--smoke, --seed,
 * --trials, --threads, --csv) mean the same thing everywhere.
 */

#ifndef C4_SCENARIO_OPTIONS_H
#define C4_SCENARIO_OPTIONS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "trace/trace.h"

namespace c4::scenario {

/** Options shared by every scenario run (the unified bench CLI). */
struct RunOptions
{
    /** Seconds-scale pass over the full code path; numbers are NOT
     * paper-comparable. */
    bool smoke = false;

    /** Trials per variant; 0 = the scenario's own default. */
    int trials = 0;

    /** Worker threads for the trial sweep; 0 = hardware concurrency.
     * Results are byte-identical regardless of the thread count. */
    int threads = 0;

    /** Base seed; per-trial seeds are derived deterministically. */
    std::uint64_t seed = 0;
    bool seedSet = false;

    /**
     * Event-trace output directory (`--trace DIR`); empty = tracing
     * off (the default — zero overhead). When set, every (variant,
     * trial) writes a deterministic JSONL trace plus a combined
     * Chrome trace per scenario; the CSV/JSON results are unchanged.
     */
    std::string traceDir;

    /** Which event kinds to record (`--trace-filter k1,k2`). */
    trace::KindMask traceFilter = trace::kAllKinds;

    /**
     * Metric-snapshot output directory (`--metrics DIR`); empty =
     * metrics off (the default — zero overhead). When set, every
     * (variant, trial) samples its registry on a simulated-time
     * cadence and writes a deterministic c4metrics/1 JSONL snapshot;
     * the CSV/JSON results are unchanged.
     */
    std::string metricsDir;

    /** Sampling cadence in simulated time (`--metrics-period S`). */
    Duration metricsPeriod = seconds(1);
};

/** One named measurement produced by a trial. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** Everything one (variant, trial) execution produced. */
struct TrialResult
{
    std::string scenario;
    std::string variant;
    int variantIndex = 0;
    int trial = 0;
    std::uint64_t seed = 0;
    std::vector<Metric> metrics;
};

/**
 * Handed to a trial execution; collects metrics. Each trial owns an
 * independent context (and Simulator), so trials may run on parallel
 * workers without synchronization.
 */
class TrialContext
{
  public:
    TrialContext(const RunOptions &opt, std::uint64_t seed, int trial)
        : opt(opt), seed(seed), trial(trial)
    {
    }

    TrialContext(const TrialContext &) = delete;
    TrialContext &operator=(const TrialContext &) = delete;

    const RunOptions &opt;
    const std::uint64_t seed;
    const int trial;

    /**
     * This trial's event recorder, or nullptr when tracing is off.
     * The spec interpreter attaches it to the trial's Simulator
     * (`sim.setTracer(...)`); custom executors that build their own
     * Simulator may do the same to get traced.
     */
    trace::TraceRecorder *tracer = nullptr;

    /**
     * This trial's metric registry, or nullptr when metrics are off.
     * The spec interpreter attaches it to the trial's Simulator
     * (`sim.setMetrics(...)`) and samples it on the metricsPeriod
     * cadence; custom executors may do the same to get sampled.
     */
    obs::MetricRegistry *meter = nullptr;

    /** Record one measurement. Order is preserved into sinks. */
    void
    metric(std::string name, double value)
    {
        metrics_.push_back({std::move(name), value});
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** The full-fidelity value, or the slashed one in smoke mode
     * (custom executors; spec files say it in their `smoke` key). */
    template <typename T>
    T
    pick(T full, T tiny) const
    {
        return opt.smoke ? std::move(tiny) : std::move(full);
    }

  private:
    std::vector<Metric> metrics_;
};

/** splitmix64-derived per-trial seed; independent of thread schedule. */
std::uint64_t trialSeed(std::uint64_t base, int trial);

} // namespace c4::scenario

#endif // C4_SCENARIO_OPTIONS_H
