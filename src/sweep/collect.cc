#include "sweep/collect.h"

#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "common/jsonl_files.h"
#include "sweep/forensics.h"
#include "sweep/manifest.h"

namespace c4::sweep {

namespace {

/** Where one shard's winning result currently lives. */
struct Winner
{
    const Shard *shard = nullptr; ///< the journal entry to adopt
    std::string dir;              ///< campaign dir holding its files
};

/**
 * The host manifest must be the same planned campaign: identical
 * version, smoke flag, scenario list, and shard identity fields.
 * Status/attempts/exit are the per-host execution state and are
 * exactly what reconciliation is for.
 * @return "" when structurally identical, else the first mismatch.
 */
std::string
structuralMismatch(const Manifest &primary, const Manifest &host)
{
    if (host.version != primary.version)
        return "manifest version differs";
    if (host.smoke != primary.smoke)
        return "smoke flag differs (campaigns planned differently)";
    if (host.scenarios.size() != primary.scenarios.size())
        return "scenario list differs";
    for (std::size_t i = 0; i < primary.scenarios.size(); ++i) {
        if (host.scenarios[i].name != primary.scenarios[i].name ||
            host.scenarios[i].trials != primary.scenarios[i].trials)
            return "scenario \"" + primary.scenarios[i].name +
                   "\" differs";
    }
    if (host.shards.size() != primary.shards.size())
        return "shard list differs";
    for (std::size_t i = 0; i < primary.shards.size(); ++i) {
        const Shard &p = primary.shards[i];
        const Shard &h = host.shards[i];
        if (h.id != p.id || h.scenario != p.scenario ||
            h.spec != p.spec || h.csv != p.csv || h.log != p.log ||
            h.trialBegin != p.trialBegin ||
            h.trialCount != p.trialCount)
            return "shard \"" + p.id + "\" differs";
    }
    return "";
}

/** Copy one file, creating parent directories. */
std::string
copyFile(const std::string &from, const std::string &to)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(to).parent_path(), ec);
    fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
    if (ec)
        return "cannot copy " + from + " -> " + to + ": " +
               ec.message();
    return "";
}

/** Recursively copy a directory tree if it exists on the host. */
std::string
copyTree(const std::string &from, const std::string &to)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(from, ec))
        return ""; // nothing to pull
    fs::remove_all(to, ec);
    fs::create_directories(fs::path(to).parent_path(), ec);
    fs::copy(from, to,
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing,
             ec);
    if (ec)
        return "cannot copy " + from + " -> " + to + ": " +
               ec.message();
    return "";
}

} // namespace

std::string
collectCampaign(const CollectRequest &request, CollectStats &stats,
                std::ostream &diag)
{
    if (request.hosts.empty())
        return "collect needs at least one host campaign directory";

    Manifest primary;
    try {
        primary = loadManifest(request.dir);
    } catch (const std::exception &e) {
        return e.what();
    }

    // One parsed manifest per host, argument order.
    std::vector<Manifest> hosts;
    for (const std::string &hostDir : request.hosts) {
        if (manifestPath(hostDir) == manifestPath(request.dir)) {
            return "host directory '" + hostDir +
                   "' is the primary campaign itself";
        }
        Manifest m;
        try {
            m = loadManifest(hostDir);
        } catch (const std::exception &e) {
            return e.what();
        }
        const std::string mismatch = structuralMismatch(primary, m);
        if (!mismatch.empty()) {
            return "host '" + hostDir +
                   "' is not a copy of this campaign: " + mismatch;
        }
        hosts.push_back(std::move(m));
    }

    // `--only`: same contract as the executor — every id must exist,
    // and non-selected shards are never touched.
    ShardSelection selected;
    const std::string badOnly =
        selectShards(primary, request.only, selected);
    if (!badOnly.empty())
        return badOnly;

    // Phase 1: decide a winner per shard and validate every rule.
    // Nothing in the primary directory is touched until every shard
    // reconciles cleanly.
    std::vector<Winner> winners(primary.shards.size());
    for (std::size_t i = 0; i < primary.shards.size(); ++i) {
        const Shard &p = primary.shards[i];
        Winner &w = winners[i];
        w.shard = &p;
        w.dir = request.dir;
        if (!selected(p)) {
            ++stats.untouched;
            continue;
        }
        if (p.status == ShardStatus::Running) {
            return p.id + ": `running` in the primary journal — an "
                          "executor is live (or was interrupted); "
                          "`c4sweep run --dir " +
                   request.dir + "` to resume, then collect";
        }
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            const Shard &c = hosts[h].shards[i];
            const std::string &hostDir = request.hosts[h];
            if (c.status == ShardStatus::Running) {
                return c.id + ": `running` in " + hostDir +
                       " — that campaign is live (or was "
                       "interrupted); `c4sweep run --dir " +
                       hostDir + "` to resume, then collect";
            }
            switch (c.status) {
            case ShardStatus::Done:
                if (w.shard->status == ShardStatus::Done) {
                    // Shards are seed-deterministic: two honest
                    // `done` runs are byte-identical. Anything else
                    // means the hosts ran different inputs, and
                    // picking one silently would poison the merge.
                    bool same = false;
                    try {
                        same = readFile(campaignPath(w.dir,
                                                     w.shard->csv)) ==
                               readFile(campaignPath(hostDir, c.csv));
                    } catch (const std::exception &e) {
                        return c.id + ": " + e.what();
                    }
                    if (!same) {
                        return c.id +
                               ": divergent `done` CSVs between " +
                               w.dir + " and " + hostDir +
                               " — refusing to collect (same shard, "
                               "different bytes)";
                    }
                    ++stats.deduped;
                } else {
                    w.shard = &c;
                    w.dir = hostDir;
                }
                break;
            case ShardStatus::Failed:
                if (w.shard->status == ShardStatus::Pending ||
                    (w.shard->status == ShardStatus::Failed &&
                     c.attempts > w.shard->attempts)) {
                    w.shard = &c;
                    w.dir = hostDir;
                }
                break;
            case ShardStatus::Pending:
                break;
            case ShardStatus::Running:
                break; // handled above
            }
        }
    }

    // Phase 2: execute the adoptions, then journal once.
    for (std::size_t i = 0; i < primary.shards.size(); ++i) {
        Shard &p = primary.shards[i];
        const Winner &w = winners[i];
        if (!selected(p))
            continue;
        if (w.dir != request.dir) {
            const Shard &c = *w.shard;
            std::string err;
            if (c.status == ShardStatus::Done) {
                err = copyFile(campaignPath(w.dir, c.csv),
                               campaignPath(request.dir, p.csv));
            }
            if (err.empty()) {
                // Logs may be absent (a host that never started the
                // shard has none); tolerate that, not copy errors.
                std::error_code ec;
                if (std::filesystem::is_regular_file(
                        campaignPath(w.dir, c.log), ec)) {
                    err = copyFile(campaignPath(w.dir, c.log),
                                   campaignPath(request.dir, p.log));
                }
            }
            if (err.empty())
                err = copyTree(
                    campaignPath(w.dir, "metrics/" + p.id),
                    campaignPath(request.dir, "metrics/" + p.id));
            if (err.empty())
                err = copyTree(
                    campaignPath(w.dir, bundleDir(p.id)),
                    campaignPath(request.dir, bundleDir(p.id)));
            if (!err.empty())
                return p.id + ": " + err;
            p.status = c.status;
            p.attempts = c.attempts;
            p.exitCode = c.exitCode;
            ++stats.adopted;
            diag << p.id << ": adopted `"
                 << shardStatusName(c.status) << "` from " << w.dir
                 << "\n";
        }
        if (p.status == ShardStatus::Failed)
            ++stats.failures;
        if (bundleExists(request.dir, p.id))
            ++stats.bundles;
    }

    try {
        saveManifest(request.dir, primary);
    } catch (const std::exception &e) {
        return e.what();
    }

    diag << "collect: " << stats.adopted << " adopted, "
         << stats.deduped << " identical on both sides, "
         << stats.failures << " failed, " << stats.bundles
         << " forensics bundle(s), " << stats.untouched
         << " untouched (--only)\n";
    return "";
}

} // namespace c4::sweep
