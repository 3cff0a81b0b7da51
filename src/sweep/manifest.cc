#include "sweep/manifest.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/json.h"
#include "common/table.h"

namespace c4::sweep {

namespace {

constexpr const char *kStatusNames[] = {"pending", "running", "done",
                                        "failed"};

Json
jsonString(const std::string &s)
{
    Json v;
    v.kind = Json::Kind::String;
    v.string = s;
    return v;
}

Json
jsonInt(std::int64_t i)
{
    Json v;
    v.kind = Json::Kind::Int;
    v.integer = i;
    return v;
}

Json
jsonBool(bool b)
{
    Json v;
    v.kind = Json::Kind::Bool;
    v.boolean = b;
    return v;
}

void
add(Json &obj, const char *key, Json value)
{
    Json::Member m;
    m.key = key;
    m.value = std::move(value);
    obj.object.push_back(std::move(m));
}

Json
emptyObject()
{
    Json v;
    v.kind = Json::Kind::Object;
    return v;
}

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("manifest: " + what);
}

const Json &
need(const Json &obj, const char *key, Json::Kind kind)
{
    const Json::Member *m = obj.find(key);
    if (!m)
        bad(std::string("missing key \"") + key + "\"");
    if (m->value.kind != kind) {
        bad(std::string("\"") + key + "\" must be a " +
            Json::kindName(kind) + ", not " +
            Json::kindName(m->value.kind));
    }
    return m->value;
}

std::string
needString(const Json &obj, const char *key)
{
    return need(obj, key, Json::Kind::String).string;
}

int
needInt(const Json &obj, const char *key)
{
    return static_cast<int>(need(obj, key, Json::Kind::Int).integer);
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
    Json doc = emptyObject();
    add(doc, "version", jsonInt(manifest.version));
    add(doc, "smoke", jsonBool(manifest.smoke));

    Json scenarios;
    scenarios.kind = Json::Kind::Array;
    for (const ScenarioEntry &s : manifest.scenarios) {
        Json o = emptyObject();
        add(o, "name", jsonString(s.name));
        add(o, "trials", jsonInt(s.trials));
        scenarios.array.push_back(std::move(o));
    }
    add(doc, "scenarios", std::move(scenarios));

    Json shards;
    shards.kind = Json::Kind::Array;
    for (const Shard &s : manifest.shards) {
        Json o = emptyObject();
        add(o, "id", jsonString(s.id));
        add(o, "scenario", jsonString(s.scenario));
        add(o, "spec", jsonString(s.spec));
        add(o, "csv", jsonString(s.csv));
        add(o, "log", jsonString(s.log));
        add(o, "trial_begin", jsonInt(s.trialBegin));
        add(o, "trial_count", jsonInt(s.trialCount));
        add(o, "status", jsonString(shardStatusName(s.status)));
        add(o, "attempts", jsonInt(s.attempts));
        add(o, "exit_code", jsonInt(s.exitCode));
        shards.array.push_back(std::move(o));
    }
    add(doc, "shards", std::move(shards));
    return writeJson(doc);
}

Manifest
parseManifest(const std::string &text)
{
    Json doc;
    try {
        doc = parseJson(text);
    } catch (const SpecError &e) {
        bad(e.what());
    }
    if (doc.kind != Json::Kind::Object)
        bad("document must be an object");

    Manifest m;
    m.version = needInt(doc, "version");
    if (m.version != 1)
        bad("unsupported version " + std::to_string(m.version));
    m.smoke = need(doc, "smoke", Json::Kind::Bool).boolean;

    for (const Json &s : need(doc, "scenarios", Json::Kind::Array).array) {
        if (s.kind != Json::Kind::Object)
            bad("\"scenarios\" entries must be objects");
        ScenarioEntry entry;
        entry.name = needString(s, "name");
        entry.trials = needInt(s, "trials");
        if (entry.trials < 1)
            bad("scenario \"" + entry.name + "\" has trials < 1");
        m.scenarios.push_back(std::move(entry));
    }

    for (const Json &s : need(doc, "shards", Json::Kind::Array).array) {
        if (s.kind != Json::Kind::Object)
            bad("\"shards\" entries must be objects");
        Shard shard;
        shard.id = needString(s, "id");
        shard.scenario = needString(s, "scenario");
        shard.spec = needString(s, "spec");
        shard.csv = needString(s, "csv");
        shard.log = needString(s, "log");
        shard.trialBegin = needInt(s, "trial_begin");
        shard.trialCount = needInt(s, "trial_count");
        const std::string status = needString(s, "status");
        if (!shardStatusFromName(status, shard.status))
            bad("shard \"" + shard.id + "\" has unknown status \"" +
                status + "\"");
        shard.attempts = needInt(s, "attempts");
        shard.exitCode = needInt(s, "exit_code");
        if (shard.trialBegin < 0 || shard.trialCount < 1)
            bad("shard \"" + shard.id + "\" has a bad trial range");
        m.shards.push_back(std::move(shard));
    }
    return m;
}

Manifest
loadManifest(const std::string &dir)
{
    const std::string path = manifestPath(dir);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        bad("cannot open " + path +
            " (not a planned campaign directory?)");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseManifest(text.str());
}

void
saveManifest(const std::string &dir, const Manifest &manifest)
{
    const std::string path = manifestPath(dir);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            bad("cannot write " + tmp);
        out << writeManifest(manifest);
        out.flush();
        if (!out)
            bad("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        bad("cannot rename " + tmp + " over " + path);
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

void
printStatus(const Manifest &manifest, std::ostream &out)
{
    AsciiTable table(
        {"shard", "trials", "status", "attempts", "exit"});
    int done = 0, failed = 0, pending = 0;
    for (const Shard &s : manifest.shards) {
        switch (s.status) {
        case ShardStatus::Done:
            ++done;
            break;
        case ShardStatus::Failed:
            ++failed;
            break;
        default:
            ++pending;
            break;
        }
        table.addRow({s.id,
                      "[" + std::to_string(s.trialBegin) + ", " +
                          std::to_string(s.trialBegin + s.trialCount) +
                          ")",
                      shardStatusName(s.status),
                      std::to_string(s.attempts),
                      s.attempts > 0 ? std::to_string(s.exitCode)
                                     : "-"});
    }
    out << table.str("campaign: " +
                     std::to_string(manifest.scenarios.size()) +
                     " scenario(s), " +
                     std::to_string(manifest.shards.size()) +
                     " shard(s)" +
                     (manifest.smoke ? ", smoke mode" : ""));
    out << done << " done, " << failed << " failed, " << pending
        << " pending";
    if (failed > 0)
        out << " — see the shard logs, then `c4sweep run --retries "
               "N` (N higher than the attempts used) to re-try";
    else if (pending > 0)
        out << " — `c4sweep run` to execute";
    else
        out << " — ready to `c4sweep merge`";
    out << "\n";
}

} // namespace c4::sweep
