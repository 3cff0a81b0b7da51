#include "sweep/plan.h"

#include <algorithm>
#include <filesystem>
#include <ostream>

#include "common/jsonl_files.h"
#include "scenario/cli.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "specio/specio.h"
#include "sweep/manifest.h"

namespace c4::sweep {

std::string
planCampaign(const PlanRequest &request, std::ostream &diag)
{
    namespace fs = std::filesystem;

    if (request.targets.empty())
        return "plan needs at least one scenario or spec file";
    if (request.trialsPerShard < 0)
        return "--trials-per-shard must be >= 1";
    if (request.trialsPerShard == 0 && request.shards < 1)
        return "--shards must be >= 1";

    // A campaign directory is a journal; silently re-planning over one
    // would discard completed-shard state.
    std::error_code ec;
    if (fs::exists(manifestPath(request.dir), ec)) {
        return manifestPath(request.dir) +
               " already exists; refusing to overwrite a planned "
               "campaign (remove the directory to re-plan)";
    }

    // Resolve targets against the registry, loading spec files the
    // same way `c4bench --spec` does (a file naming a registered
    // scenario replaces it). Only names are kept: registering a spec
    // file may reallocate the registry, so Scenario pointers are
    // looked up fresh when each one is planned.
    scenario::Registry &registry = scenario::Registry::instance();
    std::vector<std::string> names;
    for (const std::string &target : request.targets) {
        std::string name = target;
        if (scenario::looksLikeSpecPath(target.c_str())) {
            try {
                specio::SpecFile file = specio::loadSpecFile(target);
                name = file.name;
                if (registry.addOrReplace(
                        specio::scenarioFromSpec(file))) {
                    diag << "note: spec file '" << target
                         << "' replaces registered scenario '" << name
                         << "'\n";
                }
            } catch (const std::exception &e) {
                return e.what();
            }
        }
        if (!registry.find(name))
            return "unknown scenario '" + name + "' (try --list)";
        if (std::find(names.begin(), names.end(), name) !=
            names.end()) {
            return "scenario '" + name + "' given twice";
        }
        names.push_back(name);
    }

    for (const char *sub : {"shards", "csv", "logs"}) {
        fs::create_directories(fs::path(request.dir) / sub, ec);
        if (ec) {
            return "cannot create " + request.dir + "/" + sub + ": " +
                   ec.message();
        }
    }

    Manifest manifest;
    manifest.smoke = request.opt.smoke;

    for (const std::string &name : names) {
        const scenario::Scenario *s = registry.find(name);
        if (s->trialBegin != 0 || s->trialCount != 0) {
            return "scenario '" + s->name +
                   "' is itself a shard (trial_begin/trial_count "
                   "set); plan from the unsharded scenario";
        }

        // Freeze the scenario under the RESOLVED options — the same
        // options the single-process reference run hands to the
        // variants factory — so a factory that reads trials/seed
        // still freezes the shape the merge will be compared against.
        // The dump IS the work-item format: everything a worker
        // needs, no code.
        const scenario::RunOptions resolved =
            scenario::ScenarioRunner(request.opt).resolved(*s);
        const int total = resolved.trials;
        specio::SpecFile file =
            specio::specFromScenario(*s, resolved);
        for (const scenario::ScenarioSpec &spec : file.variants) {
            if (spec.custom) {
                return "scenario '" + s->name + "' variant '" +
                       spec.variant +
                       "' uses a custom (code-defined) executor and "
                       "cannot run from a spec file; it cannot be "
                       "sharded";
            }
        }
        // Pin BOTH trial counts to the planned sweep width so the
        // shard resolves to the same total whether or not the worker
        // passes --smoke.
        file.fullTrials = total;
        file.smokeTrials = total;

        // Balanced partition: with --shards N the first total%N
        // shards take one extra trial (3,3,2,2 — not 3,3,3,1); with
        // --trials-per-shard the chunks are fixed and the last one is
        // ragged. Scenarios with fewer trials than shards simply get
        // fewer shards.
        std::vector<int> counts;
        if (request.trialsPerShard > 0) {
            for (int left = total; left > 0;
                 left -= request.trialsPerShard) {
                counts.push_back(
                    std::min(request.trialsPerShard, left));
            }
        } else {
            const int shards = std::min(request.shards, total);
            const int base = total / shards;
            for (int k = 0; k < shards; ++k)
                counts.push_back(base + (k < total % shards ? 1 : 0));
        }
        ScenarioEntry entry;
        entry.name = s->name;
        entry.trials = total;
        manifest.scenarios.push_back(entry);

        int shardIndex = 0;
        int begin = 0;
        for (const int count : counts) {
            file.trialBegin = begin;
            file.trialCount = count;

            Shard shard;
            shard.id = s->name + ".s" + std::to_string(shardIndex);
            shard.scenario = s->name;
            shard.spec = "shards/" + shard.id + ".json";
            shard.csv = "csv/" + shard.id + ".csv";
            shard.log = "logs/" + shard.id + ".log";
            shard.trialBegin = begin;
            shard.trialCount = count;

            try {
                writeFile(campaignPath(request.dir, shard.spec),
                          specio::writeSpecFile(file));
            } catch (const std::exception &e) {
                return e.what();
            }
            manifest.shards.push_back(std::move(shard));
            ++shardIndex;
            begin += count;
        }
        diag << "planned " << s->name << ": " << total
             << " trial(s) across " << shardIndex << " shard(s)\n";
    }

    try {
        saveManifest(request.dir, manifest);
    } catch (const std::exception &e) {
        return e.what();
    }
    diag << "campaign: " << manifest.shards.size()
         << " shard(s) in " << request.dir << " — next: c4sweep run "
         << request.dir << "\n";
    return "";
}

} // namespace c4::sweep
