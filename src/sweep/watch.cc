#include "sweep/watch.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "common/jsonl_files.h"
#include "common/table.h"
#include "obs/analyze.h"
#include "sweep/forensics.h"
#include "sweep/manifest.h"

namespace c4::sweep {

namespace {

/** What one shard's snapshot directory currently holds. */
struct ShardPulse
{
    bool present = false;  ///< any *.jsonl under metrics/<id>/
    bool midWrite = false; ///< a file failed to parse (child writing)
    int files = 0;
    double lastSeconds = 0.0; ///< latest sample tick seen
    double samplesPerSec = 0.0; ///< latest jobs.samples_per_sec gauge
};

/**
 * Read whatever snapshots the shard child has written so far. A shard
 * that is mid-write (or has not started) is a normal dashboard state,
 * never an error.
 */
ShardPulse
readPulse(const std::string &dir, const Shard &shard)
{
    ShardPulse pulse;
    const std::string metricsDir =
        campaignPath(dir, "metrics/" + shard.id);
    std::vector<std::string> files;
    try {
        files = collectJsonlFiles(metricsDir);
    } catch (const std::exception &) {
        return pulse; // nothing written yet
    }
    pulse.present = true;
    pulse.files = static_cast<int>(files.size());
    for (const std::string &file : files) {
        obs::SnapshotFile snap;
        try {
            snap = obs::loadSnapshotFile(file);
        } catch (const std::exception &) {
            pulse.midWrite = true;
            continue;
        }
        for (const obs::Sample &s : snap.samples) {
            const double sec =
                static_cast<double>(s.when) * 1e-9;
            if (sec > pulse.lastSeconds)
                pulse.lastSeconds = sec;
            if (s.name == "jobs.samples_per_sec")
                pulse.samplesPerSec = s.value;
        }
    }
    return pulse;
}

/**
 * Forensics column: "bundle" once the bundle.json landed (it is
 * written via tmp+rename, so existence means complete), "(cutting)"
 * while the executor's traced re-run is still filling the directory,
 * "-" otherwise. Pure reader — mid-capture is a normal state.
 */
std::string
describeForensics(const std::string &dir, const Shard &shard)
{
    if (bundleExists(dir, shard.id))
        return "bundle";
    std::error_code ec;
    if (std::filesystem::is_directory(
            campaignPath(dir, bundleDir(shard.id)), ec))
        return "(cutting)";
    return "-";
}

std::string
describePulse(const ShardPulse &pulse)
{
    if (!pulse.present)
        return "-";
    if (pulse.midWrite)
        return "(mid-write)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "t=%.1fs %.1f samp/s",
                  pulse.lastSeconds, pulse.samplesPerSec);
    return buf;
}

/** Render one dashboard frame, ending in the next-step hint.
 * @return true when complete. */
bool
renderFrame(const std::string &dir, const Manifest &manifest,
            int tick, std::ostream &out)
{
    int done = 0, failed = 0, runningCount = 0, pending = 0;
    int retriesBurned = 0;
    // Per-scenario rollup: shards done / total, summed latest
    // throughput across shards with snapshots.
    std::map<std::string, std::pair<int, int>> coverage;
    std::map<std::string, double> throughput;

    AsciiTable table({"shard", "trials", "status", "attempts", "exit",
                      "metrics", "forensic"});
    std::vector<std::string> bundlePaths;
    for (const Shard &s : manifest.shards) {
        switch (s.status) {
        case ShardStatus::Done: ++done; break;
        case ShardStatus::Failed: ++failed; break;
        case ShardStatus::Running: ++runningCount; break;
        case ShardStatus::Pending: ++pending; break;
        }
        if (s.attempts > 1)
            retriesBurned += s.attempts - 1;
        ++coverage[s.scenario].second;
        if (s.status == ShardStatus::Done)
            ++coverage[s.scenario].first;

        const ShardPulse pulse = readPulse(dir, s);
        if (pulse.present && !pulse.midWrite)
            throughput[s.scenario] += pulse.samplesPerSec;
        const std::string forensic = describeForensics(dir, s);
        if (forensic == "bundle")
            bundlePaths.push_back(campaignPath(dir, bundleDir(s.id)));
        table.addRow({s.id,
                      "[" + std::to_string(s.trialBegin) + ", " +
                          std::to_string(s.trialBegin +
                                         s.trialCount) +
                          ")",
                      shardStatusName(s.status),
                      AsciiTable::integer(s.attempts),
                      s.attempts > 0
                          ? AsciiTable::integer(s.exitCode)
                          : "-",
                      describePulse(pulse), forensic});
    }

    out << table.str("campaign " + dir + " — tick " +
                     std::to_string(tick));
    out << done << " done, " << runningCount << " running, "
        << failed << " failed, " << pending
        << " pending; retry budget burned: " << retriesBurned
        << "\n";
    if (!bundlePaths.empty()) {
        out << "forensics bundles (score with `c4sweep forensics`):\n";
        for (const std::string &path : bundlePaths)
            out << "  " << path << "\n";
    }
    if (!throughput.empty()) {
        AsciiTable hi({"scenario", "shards done", "samples/s"});
        for (const auto &[scenario, cover] : coverage) {
            const auto it = throughput.find(scenario);
            hi.addRow({scenario,
                       std::to_string(cover.first) + "/" +
                           std::to_string(cover.second),
                       AsciiTable::num(
                           it != throughput.end() ? it->second
                                                  : 0.0,
                           1)});
        }
        out << hi.str();
    }

    const bool complete = campaignComplete(manifest);
    if (failed > 0) {
        out << "next: see the shard logs, then `c4sweep run --retries "
               "N` (N higher than the attempts used) to re-try\n";
    } else if (complete) {
        out << "campaign complete — ready to `c4sweep merge`\n";
    } else {
        out << "next: `c4sweep run` to execute or resume\n";
    }
    out << "\n";
    out.flush();
    return complete;
}

} // namespace

int
watchCampaign(const std::string &dir, const WatchOptions &opt,
              std::ostream &out, std::ostream &err)
{
    for (int tick = 1;; ++tick) {
        Manifest manifest;
        try {
            manifest = loadManifest(dir);
        } catch (const std::exception &e) {
            err << e.what() << "\n";
            return 2;
        }
        if (renderFrame(dir, manifest, tick, out))
            return 0;
        if (opt.maxTicks > 0 && tick >= opt.maxTicks)
            return 1;
        if (opt.intervalSeconds > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(opt.intervalSeconds));
        }
    }
}

} // namespace c4::sweep
