#include "sweep/forensics.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "c4d/incident.h"
#include "common/json.h"
#include "replay/corpus.h"
#include "replay/replay.h"
#include "sweep/manifest.h"
#include "trace/analyze.h"

namespace c4::sweep {

namespace {

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

Json
stringArray(const std::vector<std::string> &items)
{
    Json v;
    v.kind = Json::Kind::Array;
    for (const std::string &s : items)
        v.array.push_back(jsonString(s));
    return v;
}

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("bundle: " + what);
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

std::vector<std::string>
needStringArray(const Json &obj, const char *key)
{
    std::vector<std::string> out;
    for (const Json &v : need(obj, key, Json::Kind::Array).array) {
        if (v.kind != Json::Kind::String) {
            bad(std::string("\"") + key +
                "\" entries must be strings");
        }
        out.push_back(v.string);
    }
    return out;
}

/** Every *.jsonl under `<root>/<sub>`, root-relative and sorted. */
std::vector<std::string>
scanJsonl(const std::filesystem::path &root, const char *sub)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    std::error_code ec;
    const fs::path base = root / sub;
    if (!fs::is_directory(base, ec))
        return out;
    for (fs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        if (it->path().extension() != ".jsonl")
            continue;
        out.push_back(
            fs::relative(it->path(), root, ec).generic_string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::string
bundleDir(const std::string &shardId)
{
    return "forensics/" + shardId;
}

std::string
writeBundleManifest(const BundleManifest &bundle)
{
    Json doc = emptyObject();
    add(doc, "schema", jsonString(kBundleSchema));
    add(doc, "shard", jsonString(bundle.shard));
    add(doc, "scenario", jsonString(bundle.scenario));
    add(doc, "spec", jsonString(bundle.spec));
    add(doc, "log", jsonString(bundle.log));
    add(doc, "csv", jsonString(bundle.csv));
    add(doc, "trial_begin", jsonInt(bundle.trialBegin));
    add(doc, "trial_count", jsonInt(bundle.trialCount));
    add(doc, "attempts", jsonInt(bundle.attempts));
    add(doc, "exit_code", jsonInt(bundle.exitCode));
    add(doc, "forensic_exit", jsonInt(bundle.forensicExit));
    add(doc, "traces", stringArray(bundle.traces));
    add(doc, "metrics", stringArray(bundle.metrics));
    return writeJson(doc);
}

BundleManifest
parseBundleManifest(const std::string &text)
{
    Json doc;
    try {
        doc = parseJson(text);
    } catch (const SpecError &e) {
        bad(e.what());
    }
    if (doc.kind != Json::Kind::Object)
        bad("document must be an object");

    // Strict key set: a misspelled or future key is an error, never
    // silently ignored — a bundle is evidence, and evidence that
    // parses differently on two hosts is worse than none.
    static const std::set<std::string> kKnown = {
        "schema",      "shard",       "scenario", "spec",
        "log",         "csv",         "trial_begin", "trial_count",
        "attempts",    "exit_code",   "forensic_exit", "traces",
        "metrics"};
    for (const Json::Member &m : doc.object) {
        if (kKnown.count(m.key) == 0)
            bad("unknown key \"" + m.key + "\"");
    }

    const std::string schema = needString(doc, "schema");
    if (schema != kBundleSchema) {
        bad("unsupported schema \"" + schema + "\" (want " +
            kBundleSchema + ")");
    }

    BundleManifest b;
    b.shard = needString(doc, "shard");
    b.scenario = needString(doc, "scenario");
    b.spec = needString(doc, "spec");
    b.log = needString(doc, "log");
    b.csv = needString(doc, "csv");
    b.trialBegin = needInt(doc, "trial_begin");
    b.trialCount = needInt(doc, "trial_count");
    b.attempts = needInt(doc, "attempts");
    b.exitCode = needInt(doc, "exit_code");
    b.forensicExit = needInt(doc, "forensic_exit");
    b.traces = needStringArray(doc, "traces");
    b.metrics = needStringArray(doc, "metrics");
    if (b.shard.empty())
        bad("\"shard\" must not be empty");
    if (b.trialBegin < 0 || b.trialCount < 1)
        bad("bundle for \"" + b.shard + "\" has a bad trial range");
    return b;
}

BundleManifest
loadBundleManifest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        bad("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseBundleManifest(text.str());
}

bool
bundleExists(const std::string &dir, const std::string &shardId)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(
        campaignPath(dir, bundleDir(shardId) + "/bundle.json"), ec);
}

std::string
captureBundle(const std::string &dir, const Shard &shard,
              const std::string &bench, bool smoke,
              std::ostream &diag)
{
    namespace fs = std::filesystem;
    const std::string rel = bundleDir(shard.id);
    const fs::path root = campaignPath(dir, rel);
    std::error_code ec;
    fs::remove_all(root, ec); // the latest failure wins
    fs::create_directories(root, ec);
    if (ec) {
        return "cannot create bundle directory '" + root.string() +
               "': " + ec.message();
    }

    // Strings the child needs, built pre-fork: after fork() only
    // async-signal-safe calls are allowed until exec.
    const std::string spec = campaignPath(dir, shard.spec);
    const std::string csv = (root / "stdout.csv").string();
    const std::string log = (root / "stderr.log").string();
    const std::string traceDir = (root / "trace").string();
    const std::string metricsDir = (root / "metrics").string();

    diag << shard.id
         << ": cutting failure bundle (traced re-run) under "
         << root.string() << "\n";

    const pid_t pid = fork();
    if (pid < 0)
        return std::string("fork: ") + std::strerror(errno);
    if (pid == 0) {
        // Child. Only async-signal-safe calls until exec.
        const int csvFd =
            open(csv.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int logFd =
            open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (csvFd < 0 || logFd < 0 ||
            dup2(csvFd, STDOUT_FILENO) < 0 ||
            dup2(logFd, STDERR_FILENO) < 0) {
            if (csvFd >= 0)
                close(csvFd);
            if (logFd >= 0)
                close(logFd);
            _exit(126);
        }
        close(csvFd);
        close(logFd);
        const char *argv[] = {bench.c_str(),
                              "--spec",
                              spec.c_str(),
                              "--csv",
                              "-",
                              "--trace",
                              traceDir.c_str(),
                              "--metrics",
                              metricsDir.c_str(),
                              smoke ? "--smoke" : nullptr,
                              nullptr};
        execv(bench.c_str(), const_cast<char *const *>(argv));
        _exit(127);
    }

    int status = 0;
    for (;;) {
        if (waitpid(pid, &status, 0) >= 0)
            break;
        if (errno == EINTR)
            continue;
        return std::string("waitpid: ") + std::strerror(errno);
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    if (code == 126 || code == 127) {
        return "forensic re-run of " + shard.id +
               " could not start (exit " + std::to_string(code) +
               ")";
    }

    fs::copy_file(spec, root / "shard.json",
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
        return "cannot copy shard spec into bundle: " + ec.message();
    }

    BundleManifest bundle;
    bundle.shard = shard.id;
    bundle.scenario = shard.scenario;
    bundle.trialBegin = shard.trialBegin;
    bundle.trialCount = shard.trialCount;
    bundle.attempts = shard.attempts;
    bundle.exitCode = shard.exitCode;
    bundle.forensicExit = code;
    bundle.traces = scanJsonl(root, "trace");
    bundle.metrics = scanJsonl(root, "metrics");

    // tmp + rename, like the campaign manifest: a watcher polling the
    // bundle never reads a torn bundle.json.
    const fs::path path = root / "bundle.json";
    const fs::path tmp = root / "bundle.json.tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return "cannot write " + tmp.string();
        out << writeBundleManifest(bundle);
        out.flush();
        if (!out)
            return "short write to " + tmp.string();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return "cannot rename " + tmp.string() + " over " +
               path.string();

    if (code == 0) {
        diag << shard.id
             << ": traced re-run exited 0 — the failure did not "
                "reproduce (bundle kept for the record)\n";
    } else {
        diag << shard.id << ": bundle captured ("
             << bundle.traces.size() << " trace(s), "
             << bundle.metrics.size() << " metric snapshot(s))\n";
    }
    return "";
}

std::string
forensicsReport(const std::string &dir, const Manifest &manifest,
                std::ostream &out)
{
    int bundles = 0;
    for (const Shard &s : manifest.shards) {
        if (!bundleExists(dir, s.id))
            continue;
        ++bundles;
        const std::string rel = bundleDir(s.id);
        BundleManifest b;
        try {
            b = loadBundleManifest(
                campaignPath(dir, rel + "/bundle.json"));
        } catch (const std::exception &e) {
            return s.id + ": " + e.what();
        }

        out << "== " << b.shard << " (" << b.scenario << ", trials ["
            << b.trialBegin << ", " << b.trialBegin + b.trialCount
            << "), " << b.attempts << " attempt(s), exit "
            << b.exitCode << ")\n";
        out << "   bundle: " << campaignPath(dir, rel) << "\n";
        if (b.forensicExit == 0) {
            out << "   note: the traced re-run exited 0 — the "
                   "failure did not reproduce deterministically\n";
        }
        if (b.traces.empty())
            out << "   no traces captured\n";

        std::map<std::string, int> kinds;
        for (const std::string &t : b.traces) {
            out << " - " << t << ": ";
            try {
                const trace::TraceFile tf = trace::loadTraceFile(
                    campaignPath(dir, rel + "/" + t));
                const std::vector<c4d::IncidentVerdict> verdicts =
                    replay::replayTrace(tf.events);
                out << tf.events.size() << " event(s), "
                    << verdicts.size() << " verdict(s)\n";
                out << replay::verdictsToJsonl(b.shard + "/" + t,
                                               verdicts);
                for (const c4d::IncidentVerdict &v : verdicts)
                    ++kinds[c4d::incidentKindName(v.kind)];
            } catch (const std::exception &e) {
                // A single unreadable trace must not hide the rest
                // of the report.
                out << "replay failed: " << e.what() << "\n";
            }
        }
        if (!kinds.empty()) {
            out << "   verdict kinds:";
            for (const auto &[kind, count] : kinds)
                out << " " << kind << "=" << count;
            out << "\n";
        }
    }
    if (bundles == 0) {
        out << "no failure bundles (no shard has exhausted its "
               "attempt budget)\n";
    }
    return "";
}

} // namespace c4::sweep
