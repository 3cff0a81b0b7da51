#include "sweep/manifest.h"

#include <stdexcept>

#include "common/json.h"
#include "common/jsonl_files.h"

namespace c4::sweep {

namespace {

constexpr const char *kStatusNames[] = {"pending", "running", "done",
                                        "failed"};

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("manifest: " + what);
}

Manifest
bindManifest(const Json &doc)
{
    JsonBinder b(doc, "the manifest");
    Manifest m;
    b.need("version", m.version);
    if (m.version != 1)
        bad("unsupported version " + std::to_string(m.version));
    b.need("smoke", m.smoke);

    b.eachObject(b.need("scenarios"), "scenarios", "scenarios",
                 [&](JsonBinder &s) {
        ScenarioEntry entry;
        s.need("name", entry.name);
        s.need("trials", entry.trials);
        if (entry.trials < 1)
            bad("scenario \"" + entry.name + "\" has trials < 1");
        m.scenarios.push_back(std::move(entry));
    });

    b.eachObject(b.need("shards"), "shards", "shards", [&](JsonBinder &s) {
        Shard shard;
        s.need("id", shard.id);
        s.need("scenario", shard.scenario);
        s.need("spec", shard.spec);
        s.need("csv", shard.csv);
        s.need("log", shard.log);
        s.need("trial_begin", shard.trialBegin);
        s.need("trial_count", shard.trialCount);
        std::string status;
        s.need("status", status);
        if (!shardStatusFromName(status, shard.status))
            bad("shard \"" + shard.id + "\" has unknown status \"" +
                status + "\"");
        s.need("attempts", shard.attempts);
        s.need("exit_code", shard.exitCode);
        if (shard.trialBegin < 0 || shard.trialCount < 1)
            bad("shard \"" + shard.id + "\" has a bad trial range");
        m.shards.push_back(std::move(shard));
    });
    b.finish();
    return m;
}

} // namespace

const char *
shardStatusName(ShardStatus status)
{
    return kStatusNames[static_cast<int>(status)];
}

bool
shardStatusFromName(const std::string &name, ShardStatus &out)
{
    for (int i = 0; i < 4; ++i) {
        if (name == kStatusNames[i]) {
            out = static_cast<ShardStatus>(i);
            return true;
        }
    }
    return false;
}

std::string
manifestPath(const std::string &dir)
{
    return campaignPath(dir, "manifest.json");
}

std::string
campaignPath(const std::string &dir, const std::string &relative)
{
    if (!relative.empty() && relative.front() == '/')
        return relative;
    if (dir.empty() || dir == ".")
        return relative;
    if (dir.back() == '/')
        return dir + relative;
    return dir + "/" + relative;
}

std::string
writeManifest(const Manifest &manifest)
{
    Json doc = Json::emptyObject();
    doc.add("version", Json::fromInt(manifest.version));
    doc.add("smoke", Json::fromBool(manifest.smoke));

    Json scenarios = Json::emptyArray();
    for (const ScenarioEntry &s : manifest.scenarios) {
        Json o = Json::emptyObject();
        o.add("name", Json::fromString(s.name));
        o.add("trials", Json::fromInt(s.trials));
        scenarios.array.push_back(std::move(o));
    }
    doc.add("scenarios", std::move(scenarios));

    Json shards = Json::emptyArray();
    for (const Shard &s : manifest.shards) {
        Json o = Json::emptyObject();
        o.add("id", Json::fromString(s.id));
        o.add("scenario", Json::fromString(s.scenario));
        o.add("spec", Json::fromString(s.spec));
        o.add("csv", Json::fromString(s.csv));
        o.add("log", Json::fromString(s.log));
        o.add("trial_begin", Json::fromInt(s.trialBegin));
        o.add("trial_count", Json::fromInt(s.trialCount));
        o.add("status", Json::fromString(shardStatusName(s.status)));
        o.add("attempts", Json::fromInt(s.attempts));
        o.add("exit_code", Json::fromInt(s.exitCode));
        shards.array.push_back(std::move(o));
    }
    doc.add("shards", std::move(shards));
    return writeJson(doc);
}

Manifest
parseManifest(const std::string &text)
{
    try {
        return bindManifest(parseJson(text));
    } catch (const SpecError &e) {
        bad(e.what());
    }
}

Manifest
loadManifest(const std::string &dir)
{
    std::string text;
    try {
        text = readFile(manifestPath(dir));
    } catch (const std::exception &e) {
        bad(std::string(e.what()) +
            " (not a planned campaign directory?)");
    }
    return parseManifest(text);
}

void
saveManifest(const std::string &dir, const Manifest &manifest)
{
    try {
        writeFileAtomic(manifestPath(dir), writeManifest(manifest));
    } catch (const std::exception &e) {
        bad(e.what());
    }
}

bool
campaignComplete(const Manifest &manifest)
{
    for (const Shard &s : manifest.shards) {
        if (s.status != ShardStatus::Done)
            return false;
    }
    return true;
}

std::string
selectShards(const Manifest &manifest,
             const std::vector<std::string> &only, ShardSelection &out)
{
    out.ids = std::set<std::string>(only.begin(), only.end());
    std::set<std::string> unknown = out.ids;
    for (const Shard &s : manifest.shards)
        unknown.erase(s.id);
    if (!unknown.empty()) {
        return "--only: unknown shard id '" + *unknown.begin() +
               "' (see `c4sweep status`)";
    }
    return "";
}

} // namespace c4::sweep
