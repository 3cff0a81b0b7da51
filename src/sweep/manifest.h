/**
 * @file
 * The campaign manifest: one JSON file (`manifest.json` in the
 * campaign directory) that is the single journaled source of truth for
 * a distributed sweep. `c4sweep plan` writes it next to the per-shard
 * spec files; `c4sweep run` re-writes it (atomically, via tmp+rename)
 * after every shard state transition so a killed campaign resumes
 * exactly where it stopped; `c4sweep merge` reads it to stitch the
 * shard CSVs back together in the deterministic single-process order.
 *
 * All paths inside the manifest are relative to the campaign
 * directory, so a planned campaign can be shipped to another host (or
 * split across hosts by handing each a subset of the shard list) and
 * run there unchanged.
 */

#ifndef C4_SWEEP_MANIFEST_H
#define C4_SWEEP_MANIFEST_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace c4::sweep {

/** Lifecycle of one shard, journaled in the manifest. */
enum class ShardStatus {
    Pending, ///< not yet executed (or queued for retry)
    Running, ///< a worker owns it; seen at load = interrupted campaign
    Done,    ///< child exited 0; its CSV is final
    Failed,  ///< exhausted its attempts; log holds the evidence
};

/** Manifest string for @p status ("pending", "running", ...). */
const char *shardStatusName(ShardStatus status);

/** @return false when @p name is not a known status string. */
bool shardStatusFromName(const std::string &name, ShardStatus &out);

/** One unit of campaign work: a trial range of one scenario. */
struct Shard
{
    std::string id;       ///< "<scenario>.s<k>", stable across runs
    std::string scenario; ///< scenario the shard belongs to
    std::string spec;     ///< shard spec file, relative to the dir
    std::string csv;      ///< shard CSV the child writes
    std::string log;      ///< child stderr (and table) capture
    int trialBegin = 0;
    int trialCount = 0;
    ShardStatus status = ShardStatus::Pending;
    int attempts = 0; ///< completed executions, success or failure
    int exitCode = 0; ///< last child exit code (when attempts > 0)
};

/** Per-scenario campaign facts; the vector order is the merge order. */
struct ScenarioEntry
{
    std::string name;
    int trials = 0; ///< total sweep width the shards must cover
};

/** The whole campaign. */
struct Manifest
{
    int version = 1;
    bool smoke = false; ///< shards run with --smoke (plan-time flag)
    std::vector<ScenarioEntry> scenarios;
    std::vector<Shard> shards;
};

/** `<dir>/manifest.json`. */
std::string manifestPath(const std::string &dir);

/** Resolve a manifest-relative path against the campaign dir. */
std::string campaignPath(const std::string &dir,
                         const std::string &relative);

/** Serialize canonically (same bytes for the same manifest). */
std::string writeManifest(const Manifest &manifest);

/** @throws std::runtime_error on malformed or mistyped input. */
Manifest parseManifest(const std::string &text);

/** Load `<dir>/manifest.json`. @throws std::runtime_error. */
Manifest loadManifest(const std::string &dir);

/**
 * Journal the manifest: write `<dir>/manifest.json.tmp`, then rename
 * over the real file, so a crash mid-write never truncates the
 * campaign state. @throws std::runtime_error on I/O failure.
 */
void saveManifest(const std::string &dir, const Manifest &manifest);

/** True when every shard is Done. */
bool campaignComplete(const Manifest &manifest);

/** The shards one `--only id1,id2` list selects; no ids select all. */
struct ShardSelection
{
    std::set<std::string> ids;

    bool
    operator()(const Shard &s) const
    {
        return ids.empty() || ids.count(s.id) > 0;
    }
};

/**
 * Build @p out from an `--only` list (`c4sweep run` and `collect`).
 * Every id must name a shard of @p manifest: a typo must fail loudly,
 * not silently select nothing.
 * @return "" on success, else the error naming the first unknown id.
 */
std::string selectShards(const Manifest &manifest,
                         const std::vector<std::string> &only,
                         ShardSelection &out);

} // namespace c4::sweep

#endif // C4_SWEEP_MANIFEST_H
