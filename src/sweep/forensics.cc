#include "sweep/forensics.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <ostream>
#include <stdexcept>

#include <sys/wait.h>

#include "c4d/incident.h"
#include "common/json.h"
#include "common/jsonl_files.h"
#include "replay/corpus.h"
#include "replay/replay.h"
#include "sweep/exec.h"
#include "sweep/manifest.h"
#include "trace/analyze.h"

namespace c4::sweep {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("bundle: " + what);
}

BundleManifest
bindBundle(const Json &doc)
{
    // Every key is required and no other is allowed: a bundle is
    // evidence, and evidence that parses differently on two hosts is
    // worse than none.
    JsonBinder b(doc, "the bundle");
    std::string schema;
    b.need("schema", schema);
    if (schema != kBundleSchema) {
        bad("unsupported schema \"" + schema + "\" (want " +
            kBundleSchema + ")");
    }

    BundleManifest bundle;
    b.need("shard", bundle.shard);
    b.need("scenario", bundle.scenario);
    b.need("spec", bundle.spec);
    b.need("log", bundle.log);
    b.need("csv", bundle.csv);
    b.need("trial_begin", bundle.trialBegin);
    b.need("trial_count", bundle.trialCount);
    b.need("attempts", bundle.attempts);
    b.need("exit_code", bundle.exitCode);
    b.need("forensic_exit", bundle.forensicExit);
    b.need("traces", bundle.traces);
    b.need("metrics", bundle.metrics);
    b.finish();
    if (bundle.shard.empty())
        bad("\"shard\" must not be empty");
    if (bundle.trialBegin < 0 || bundle.trialCount < 1)
        bad("bundle for \"" + bundle.shard + "\" has a bad trial range");
    return bundle;
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
    auto strings = [](const std::vector<std::string> &items) {
        Json a = Json::emptyArray();
        for (const std::string &s : items)
            a.array.push_back(Json::fromString(s));
        return a;
    };
    Json doc = Json::emptyObject();
    doc.add("schema", Json::fromString(kBundleSchema));
    doc.add("shard", Json::fromString(bundle.shard));
    doc.add("scenario", Json::fromString(bundle.scenario));
    doc.add("spec", Json::fromString(bundle.spec));
    doc.add("log", Json::fromString(bundle.log));
    doc.add("csv", Json::fromString(bundle.csv));
    doc.add("trial_begin", Json::fromInt(bundle.trialBegin));
    doc.add("trial_count", Json::fromInt(bundle.trialCount));
    doc.add("attempts", Json::fromInt(bundle.attempts));
    doc.add("exit_code", Json::fromInt(bundle.exitCode));
    doc.add("forensic_exit", Json::fromInt(bundle.forensicExit));
    doc.add("traces", strings(bundle.traces));
    doc.add("metrics", strings(bundle.metrics));
    return writeJson(doc);
}

BundleManifest
parseBundleManifest(const std::string &text)
{
    try {
        return bindBundle(parseJson(text));
    } catch (const SpecError &e) {
        bad(e.what());
    }
}

BundleManifest
loadBundleManifest(const std::string &path)
{
    std::string text;
    try {
        text = readFile(path);
    } catch (const std::exception &e) {
        bad(e.what());
    }
    return parseBundleManifest(text);
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

    const std::string spec = campaignPath(dir, shard.spec);
    diag << shard.id
         << ": cutting failure bundle (traced re-run) under "
         << root.string() << "\n";

    std::string error;
    const pid_t pid = launchBench(
        bench, spec,
        {"--trace", (root / "trace").string(), "--metrics",
         (root / "metrics").string()},
        smoke, (root / "stdout.csv").string(),
        (root / "stderr.log").string(), error);
    if (pid < 0)
        return error;
    int status = 0;
    for (;;) {
        if (waitpid(pid, &status, 0) >= 0)
            break;
        if (errno == EINTR)
            continue;
        return std::string("waitpid: ") + std::strerror(errno);
    }
    const int code = exitCodeOf(status);
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

    // Atomic, like the campaign manifest: a watcher polling the
    // bundle never reads a torn bundle.json.
    try {
        writeFileAtomic((root / "bundle.json").string(),
                        writeBundleManifest(bundle));
    } catch (const std::exception &e) {
        return e.what();
    }

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
