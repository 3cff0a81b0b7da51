#include "replay/corpus.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/json.h"
#include "common/jsonl_files.h"

namespace c4::replay {

namespace fs = std::filesystem;

namespace {

constexpr const char *kLabelSchema = "c4incident/1";
constexpr const char *kTraceSuffix = ".trace.jsonl";
constexpr const char *kLabelSuffix = ".label.json";

} // namespace

std::string
writeLabelJson(const IncidentLabel &label)
{
    Json obj = Json::emptyObject();
    obj.add("schema", Json::fromString(kLabelSchema));
    obj.add("name", Json::fromString(label.name));
    obj.add("root_cause", Json::fromString(label.rootCause));
    obj.add("culprit_node", Json::fromInt(label.culpritNode));
    Json links = Json::emptyArray();
    for (std::int64_t l : label.culpritLinks)
        links.array.push_back(Json::fromInt(l));
    obj.add("culprit_links", std::move(links));
    obj.add("t_inject_ns", Json::fromInt(label.tInject));
    obj.add("seed", Json::fromInt(static_cast<std::int64_t>(label.seed)));
    obj.add("notes", Json::fromString(label.notes));
    return writeJson(obj) + "\n";
}

IncidentLabel
labelFromJson(const std::string &text)
{
    const Json root = parseJson(text);
    JsonBinder b(root, "the label");
    std::string schema;
    b.need("schema", schema);
    if (schema != kLabelSchema) {
        b.fail(*b.member("schema"),
               "unsupported label schema \"" + schema + "\" (want " +
                   kLabelSchema + ")");
    }
    IncidentLabel label;
    b.get("name", label.name);
    b.get("root_cause", label.rootCause);
    c4d::IncidentKind kind;
    if (label.rootCause != "none" &&
        !c4d::incidentKindFromName(label.rootCause, kind)) {
        b.fail(*b.member("root_cause"),
               "unknown root_cause \"" + label.rootCause + "\"");
    }
    b.get("culprit_node", label.culpritNode);
    b.get("culprit_links", label.culpritLinks);
    b.get("t_inject_ns", label.tInject);
    std::int64_t seed = 0;
    b.get("seed", seed);
    label.seed = static_cast<std::uint64_t>(seed);
    b.get("notes", label.notes);
    b.finish();
    if (label.name.empty())
        b.fail(root, "label needs a non-empty \"name\"");
    return label;
}

std::vector<Incident>
collectIncidents(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        throw std::runtime_error(dir + " is not a directory");

    std::vector<std::string> names;
    std::vector<std::string> orphanLabels;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string file = entry.path().filename().string();
        if (file.size() > std::string(kTraceSuffix).size() &&
            file.ends_with(kTraceSuffix)) {
            names.push_back(file.substr(
                0, file.size() - std::string(kTraceSuffix).size()));
        } else if (file.size() > std::string(kLabelSuffix).size() &&
                   file.ends_with(kLabelSuffix)) {
            orphanLabels.push_back(file.substr(
                0, file.size() - std::string(kLabelSuffix).size()));
        }
    }
    std::sort(names.begin(), names.end());
    for (const std::string &l : orphanLabels) {
        if (std::find(names.begin(), names.end(), l) == names.end())
            throw std::runtime_error(dir + ": label " + l +
                                     kLabelSuffix +
                                     " has no matching trace");
    }
    if (names.empty())
        throw std::runtime_error(dir + ": no *.trace.jsonl incidents");

    std::vector<Incident> out;
    out.reserve(names.size());
    for (const std::string &name : names) {
        Incident inc;
        inc.name = name;
        inc.tracePath = (fs::path(dir) / (name + kTraceSuffix)).string();
        const std::string labelPath =
            (fs::path(dir) / (name + kLabelSuffix)).string();
        try {
            inc.label = labelFromJson(readFile(labelPath));
        } catch (const SpecError &e) {
            throw std::runtime_error(labelPath + ": " + e.what());
        }
        if (inc.label.name != name) {
            throw std::runtime_error(
                labelPath + ": label name \"" + inc.label.name +
                "\" does not match file name \"" + name + "\"");
        }
        out.push_back(std::move(inc));
    }
    return out;
}

std::string
verdictsToJsonl(const std::string &incident,
                const std::vector<c4d::IncidentVerdict> &vs)
{
    std::string out;
    if (vs.empty()) {
        Json obj = Json::emptyObject();
        obj.add("incident", Json::fromString(incident));
        obj.add("verdicts", Json::fromInt(0));
        out += writeJsonCompact(obj);
        out.push_back('\n');
        return out;
    }
    for (const c4d::IncidentVerdict &v : vs) {
        Json obj = Json::emptyObject();
        obj.add("incident", Json::fromString(incident));
        obj.add("kind", Json::fromString(c4d::incidentKindName(v.kind)));
        obj.add("node", Json::fromInt(v.node));
        obj.add("link", Json::fromInt(v.link));
        obj.add("t_detect", Json::fromInt(v.detectedAt));
        obj.add("cause", Json::fromString(v.cause));
        obj.add("corroborated", Json::fromBool(v.corroborated));
        obj.add("confidence", Json::fromDouble(v.confidence));
        obj.add("evidence", Json::fromString(v.evidence));
        out += writeJsonCompact(obj);
        out.push_back('\n');
    }
    return out;
}

} // namespace c4::replay
