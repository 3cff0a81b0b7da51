#include "scenario/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common/random.h"
#include "obs/snapshot.h"
#include "scenario/workload.h"
#include "trace/export.h"

namespace c4::scenario {

namespace {

/**
 * Write the per-trial JSONL traces plus one combined Chrome trace for
 * the scenario. File naming is index-prefixed (`v<K>_<label>.t<N>`)
 * so sanitized variant labels cannot collide. Recorder slot order is
 * the runner's work-item order (variant-major, then trial) — the same
 * deterministic order the sinks see.
 * @return "" on success, else an error message.
 */
std::string
writeTraces(const RunOptions &opt, const Scenario &scenario,
            const std::vector<ScenarioSpec> &variants, int trialBegin,
            int trialCount,
            const std::vector<std::unique_ptr<trace::TraceRecorder>>
                &recorders)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(opt.traceDir) / trace::sanitizeFileComponent(
                                     scenario.name);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        return "cannot create trace directory '" + dir.string() +
               "': " + ec.message();
    }

    std::vector<trace::ChromeTrack> tracks;
    tracks.reserve(recorders.size());
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::string stem =
            "v" + std::to_string(v) + "_" +
            trace::sanitizeFileComponent(variants[v].variant);
        for (int t = 0; t < trialCount; ++t) {
            const int trial = trialBegin + t;
            const std::size_t i =
                v * static_cast<std::size_t>(trialCount) +
                static_cast<std::size_t>(t);
            const fs::path path =
                dir / (stem + ".t" + std::to_string(trial) +
                       ".jsonl");
            std::ofstream out(path, std::ios::binary);
            if (!out)
                return "cannot write '" + path.string() + "'";
            const std::string text =
                trace::writeJsonl(recorders[i]->events());
            out.write(text.data(),
                      static_cast<std::streamsize>(text.size()));
            if (!out)
                return "cannot write '" + path.string() + "'";

            trace::ChromeTrack track;
            track.processName = variants[v].variant;
            track.threadName = "trial " + std::to_string(trial);
            track.pid = static_cast<int>(v);
            track.tid = trial;
            track.events = &recorders[i]->events();
            tracks.push_back(std::move(track));
        }
    }

    const fs::path chrome =
        fs::path(opt.traceDir) /
        (trace::sanitizeFileComponent(scenario.name) + ".trace.json");
    std::ofstream out(chrome, std::ios::binary);
    if (!out)
        return "cannot write '" + chrome.string() + "'";
    const std::string text = trace::writeChromeTrace(tracks);
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    if (!out)
        return "cannot write '" + chrome.string() + "'";
    return "";
}

/**
 * Write the per-trial c4metrics/1 snapshots. File naming mirrors
 * writeTraces (`v<K>_<label>.t<N>.jsonl` under a sanitized scenario
 * directory) and registry slot order is the same variant-major work-
 * item order, so snapshot bytes are independent of the thread
 * schedule.
 * @return "" on success, else an error message.
 */
std::string
writeMetricSnapshots(
    const RunOptions &opt, const Scenario &scenario,
    const std::vector<ScenarioSpec> &variants, int trialBegin,
    int trialCount,
    const std::vector<std::unique_ptr<obs::MetricRegistry>>
        &registries)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(opt.metricsDir) /
        obs::sanitizeFileComponent(scenario.name);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        return "cannot create metrics directory '" + dir.string() +
               "': " + ec.message();
    }

    for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::string stem =
            "v" + std::to_string(v) + "_" +
            obs::sanitizeFileComponent(variants[v].variant);
        for (int t = 0; t < trialCount; ++t) {
            const int trial = trialBegin + t;
            const std::size_t i =
                v * static_cast<std::size_t>(trialCount) +
                static_cast<std::size_t>(t);
            const fs::path path =
                dir / (stem + ".t" + std::to_string(trial) +
                       ".jsonl");
            obs::SnapshotMeta meta;
            meta.scenario = scenario.name;
            meta.variant = variants[v].variant;
            meta.trial = trial;
            meta.periodNs = opt.metricsPeriod;
            std::ofstream out(path, std::ios::binary);
            if (!out)
                return "cannot write '" + path.string() + "'";
            const std::string text =
                obs::writeSnapshot(meta, registries[i]->samples());
            out.write(text.data(),
                      static_cast<std::streamsize>(text.size()));
            if (!out)
                return "cannot write '" + path.string() + "'";
        }
    }
    return "";
}

} // namespace

std::uint64_t
trialSeed(std::uint64_t base, int trial)
{
    // Mixed per-trial streams, independent of execution order.
    return deriveSeed(base, static_cast<std::uint64_t>(trial));
}

ScenarioRunner::ScenarioRunner(RunOptions opt) : opt_(opt) {}

void
ScenarioRunner::addSink(ResultSink &sink)
{
    sinks_.push_back(&sink);
}

RunOptions
ScenarioRunner::resolved(const Scenario &scenario) const
{
    RunOptions opt = opt_;
    if (opt.trials <= 0) {
        opt.trials =
            opt.smoke ? scenario.smokeTrials : scenario.fullTrials;
    }
    if (!opt.seedSet) {
        opt.seed = scenario.seed;
        opt.seedSet = true;
    }
    if (opt.threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opt.threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    return opt;
}

int
ScenarioRunner::run(const Scenario &scenario)
{
    const RunOptions opt = resolved(scenario);
    const std::vector<ScenarioSpec> variants = scenario.variants(opt);
    if (variants.empty()) {
        std::fprintf(stderr, "scenario '%s' produced no variants\n",
                     scenario.name.c_str());
        return 1;
    }
    for (const ScenarioSpec &spec : variants) {
        const std::string invalid = validateSpec(spec);
        if (!invalid.empty()) {
            std::fprintf(stderr, "scenario '%s': invalid spec: %s\n",
                         scenario.name.c_str(), invalid.c_str());
            return 1;
        }
    }

    // Shard support: only trials [trialBegin, trialBegin + count) of
    // the resolved sweep execute, but the trial indices handed to
    // trialSeed() (and reported in results) stay absolute, so shard
    // output is byte-identical to the same rows of the full run.
    const std::string badRange = validateTrialRange(
        scenario.trialBegin, scenario.trialCount, opt.trials);
    if (!badRange.empty()) {
        std::fprintf(stderr, "scenario '%s': %s\n",
                     scenario.name.c_str(), badRange.c_str());
        return 1;
    }
    const int trialCount = scenario.trialCount > 0
                               ? scenario.trialCount
                               : opt.trials - scenario.trialBegin;

    const std::size_t items = variants.size() *
                              static_cast<std::size_t>(trialCount);
    std::vector<TrialResult> results(items);
    std::vector<std::exception_ptr> errors(items);
    // One recorder per work item when tracing: each trial records
    // into its own slot, so workers stay synchronization-free and the
    // output order is independent of the thread schedule.
    const bool tracing = !opt.traceDir.empty();
    std::vector<std::unique_ptr<trace::TraceRecorder>> recorders(
        tracing ? items : 0);
    // Same slot-per-item scheme for metric registries.
    const bool metricsOn = !opt.metricsDir.empty();
    std::vector<std::unique_ptr<obs::MetricRegistry>> registries(
        metricsOn ? items : 0);
    std::atomic<std::size_t> next{0};

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= items)
                return;
            const std::size_t v =
                i / static_cast<std::size_t>(trialCount);
            const int trial =
                scenario.trialBegin +
                static_cast<int>(
                    i % static_cast<std::size_t>(trialCount));
            const ScenarioSpec &spec = variants[v];
            TrialContext ctx(opt, trialSeed(opt.seed, trial), trial);
            if (tracing) {
                recorders[i] = std::make_unique<trace::TraceRecorder>(
                    opt.traceFilter);
                ctx.tracer = recorders[i].get();
            }
            if (metricsOn) {
                registries[i] = std::make_unique<obs::MetricRegistry>();
                ctx.meter = registries[i].get();
            }
            try {
                if (spec.custom)
                    spec.custom(ctx);
                else
                    runSpecTrial(spec, ctx);
            } catch (...) {
                errors[i] = std::current_exception();
                continue;
            }
            TrialResult &r = results[i];
            r.scenario = scenario.name;
            r.variant = spec.variant;
            r.variantIndex = static_cast<int>(v);
            r.trial = trial;
            r.seed = ctx.seed;
            r.metrics = ctx.metrics();
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(opt.threads), items);
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    // Traces and metric snapshots are written BEFORE failed trials are
    // reported: a failed trial's recorder holds every event up to the
    // exception, and shipping that partial trace with the failure is
    // the whole point of the sweep executor's forensics bundles.
    if (tracing) {
        const std::string traceError =
            writeTraces(opt, scenario, variants, scenario.trialBegin,
                        trialCount, recorders);
        if (!traceError.empty()) {
            std::fprintf(stderr, "scenario '%s': %s\n",
                         scenario.name.c_str(), traceError.c_str());
            return 1;
        }
    }

    if (metricsOn) {
        const std::string metricsError = writeMetricSnapshots(
            opt, scenario, variants, scenario.trialBegin, trialCount,
            registries);
        if (!metricsError.empty()) {
            std::fprintf(stderr, "scenario '%s': %s\n",
                         scenario.name.c_str(), metricsError.c_str());
            return 1;
        }
    }

    for (std::size_t i = 0; i < items; ++i) {
        if (!errors[i])
            continue;
        std::string what = "unknown exception";
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        std::fprintf(
            stderr,
            "scenario '%s' variant '%s' trial %d failed: %s\n",
            scenario.name.c_str(),
            variants[i / static_cast<std::size_t>(trialCount)]
                .variant.c_str(),
            scenario.trialBegin +
                static_cast<int>(
                    i % static_cast<std::size_t>(trialCount)),
            what.c_str());
        return 1;
    }

    // Deterministic emission order: variant-major, then trial.
    for (ResultSink *sink : sinks_)
        sink->begin(scenario, opt);
    for (const TrialResult &r : results) {
        for (ResultSink *sink : sinks_)
            sink->trial(r);
    }
    for (ResultSink *sink : sinks_)
        sink->end(scenario);
    return 0;
}

} // namespace c4::scenario
