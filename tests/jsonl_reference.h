/**
 * @file
 * DOM reference codecs for the event-trace and `c4metrics/1` JSONL
 * formats: every record is built as a Json tree and written with
 * writeJsonCompact(), and read back with parseJson() plus a
 * member-by-member binder. The production codecs (trace/export.cc,
 * obs/snapshot.cc) skip the tree; the differential tests in
 * test_trace.cc and test_obs.cc hold them to these references, byte
 * for byte and message for message, on valid records and on the
 * single-defect mutants that mutations() derives from them.
 */

#ifndef C4_TESTS_JSONL_REFERENCE_H
#define C4_TESTS_JSONL_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/snapshot.h"
#include "trace/trace.h"

namespace c4::reference {

inline Json
makeInt(std::int64_t v)
{
    Json j;
    j.kind = Json::Kind::Int;
    j.integer = v;
    return j;
}

inline Json
makeDouble(double v)
{
    Json j;
    j.kind = Json::Kind::Double;
    j.number = v;
    return j;
}

inline Json
makeString(std::string s)
{
    Json j;
    j.kind = Json::Kind::String;
    j.string = std::move(s);
    return j;
}

inline void
addMember(Json &obj, const char *key, Json value)
{
    Json::Member m;
    m.key = key;
    m.value = std::move(value);
    obj.object.push_back(std::move(m));
}

[[noreturn]] inline void
bindFail(const Json &at, const std::string &what)
{
    throw SpecError(what, at.line, at.column);
}

inline std::int64_t
bindInt(const Json &v, const char *key)
{
    if (v.kind != Json::Kind::Int)
        bindFail(v, std::string("\"") + key + "\" must be an integer");
    return v.integer;
}

inline std::int32_t
bindInt32(const Json &v, const char *key)
{
    const std::int64_t i = bindInt(v, key);
    if (i < std::numeric_limits<std::int32_t>::min() ||
        i > std::numeric_limits<std::int32_t>::max()) {
        bindFail(v, std::string("\"") + key +
                        "\" is outside the 32-bit integer range");
    }
    return static_cast<std::int32_t>(i);
}

inline double
bindNumber(const Json &v, const char *key)
{
    if (v.kind == Json::Kind::Int)
        return static_cast<double>(v.integer);
    if (v.kind == Json::Kind::Double)
        return v.number;
    bindFail(v, std::string("\"") + key + "\" must be a number");
}

inline std::string
bindString(const Json &v, const char *key)
{
    if (v.kind != Json::Kind::String)
        bindFail(v, std::string("\"") + key + "\" must be a string");
    return v.string;
}

/**
 * Split @p text into records, hand each non-empty line to @p bind,
 * and prefix binder errors with the record's line number; a final
 * line without its newline is a truncated write.
 */
template <typename Bind>
void
forEachRecord(const std::string &text, Bind bind)
{
    std::size_t start = 0;
    int lineNo = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        const std::size_t end = nl == std::string::npos ? text.size()
                                                        : nl;
        ++lineNo;
        const std::string line = text.substr(start, end - start);
        if (nl == std::string::npos && !line.empty()) {
            throw SpecError("record on line " + std::to_string(lineNo) +
                                ": truncated record (missing final "
                                "newline; incomplete write?)",
                            0, 0);
        }
        if (!line.empty()) {
            try {
                bind(parseJson(line));
            } catch (const SpecError &e) {
                throw SpecError("record on line " +
                                    std::to_string(lineNo) + ": " +
                                    e.what(),
                                0, 0);
            }
        }
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
}

// --- event traces -----------------------------------------------------

inline std::string
eventToJsonLine(const trace::Event &event)
{
    Json obj;
    obj.kind = Json::Kind::Object;
    addMember(obj, "t", makeInt(event.when));
    addMember(obj, "k", makeString(trace::eventKindName(event.kind)));
    if (event.job != kInvalidId)
        addMember(obj, "job", makeInt(event.job));
    if (event.node != kInvalidId)
        addMember(obj, "node", makeInt(event.node));
    if (event.a != 0)
        addMember(obj, "a", makeInt(event.a));
    if (event.b != 0)
        addMember(obj, "b", makeInt(event.b));
    if (event.value != 0.0)
        addMember(obj, "v", makeDouble(event.value));
    if (!event.detail.empty())
        addMember(obj, "d", makeString(event.detail));
    return writeJsonCompact(obj);
}

inline trace::Event
eventFromJson(const Json &value)
{
    if (value.kind != Json::Kind::Object)
        bindFail(value, "trace record must be a JSON object");
    trace::Event ev;
    bool haveWhen = false, haveKind = false;
    for (const Json::Member &m : value.object) {
        const Json &v = m.value;
        if (m.key == "t") {
            ev.when = bindInt(v, "t");
            haveWhen = true;
        } else if (m.key == "k") {
            if (v.kind != Json::Kind::String ||
                !trace::eventKindFromName(v.string, ev.kind)) {
                bindFail(v, "\"k\" must name a known event kind");
            }
            haveKind = true;
        } else if (m.key == "job") {
            ev.job = bindInt32(v, "job");
        } else if (m.key == "node") {
            ev.node = bindInt32(v, "node");
        } else if (m.key == "a") {
            ev.a = bindInt(v, "a");
        } else if (m.key == "b") {
            ev.b = bindInt(v, "b");
        } else if (m.key == "v") {
            ev.value = bindNumber(v, "v");
        } else if (m.key == "d") {
            if (v.kind != Json::Kind::String)
                bindFail(v, "\"d\" must be a string");
            ev.detail = v.string;
        } else {
            throw SpecError("unknown trace record key \"" + m.key +
                                "\"",
                            m.keyLine, m.keyColumn);
        }
    }
    if (!haveWhen || !haveKind)
        bindFail(value, "trace record needs \"t\" and \"k\"");
    trace::PathReallocKind sub;
    if (ev.kind == trace::EventKind::PathRealloc &&
        !trace::pathReallocFromName(ev.detail, sub))
        bindFail(value, "\"d\" must name a path_realloc sub-kind");
    return ev;
}

inline std::string
writeJsonl(const std::vector<trace::Event> &events)
{
    std::string out;
    for (const trace::Event &ev : events) {
        out += reference::eventToJsonLine(ev);
        out.push_back('\n');
    }
    return out;
}

inline std::vector<trace::Event>
parseJsonl(const std::string &text)
{
    std::vector<trace::Event> out;
    forEachRecord(text, [&](const Json &record) {
        out.push_back(reference::eventFromJson(record));
    });
    return out;
}

// --- c4metrics/1 snapshots -------------------------------------------

inline std::string
metaToJsonLine(const obs::SnapshotMeta &meta)
{
    Json obj;
    obj.kind = Json::Kind::Object;
    addMember(obj, "schema", makeString(obs::kSnapshotSchema));
    addMember(obj, "scenario", makeString(meta.scenario));
    addMember(obj, "variant", makeString(meta.variant));
    addMember(obj, "trial", makeInt(meta.trial));
    addMember(obj, "period_ns", makeInt(meta.periodNs));
    return writeJsonCompact(obj);
}

inline std::string
sampleToJsonLine(const obs::Sample &sample)
{
    Json obj;
    obj.kind = Json::Kind::Object;
    addMember(obj, "t", makeInt(sample.when));
    addMember(obj, "n", makeString(sample.name));
    addMember(obj, "k", makeString(obs::kindName(sample.kind)));
    if (sample.count != 0)
        addMember(obj, "c", makeInt(sample.count));
    if (sample.value != 0.0)
        addMember(obj, "v", makeDouble(sample.value));
    if (sample.min != 0.0)
        addMember(obj, "min", makeDouble(sample.min));
    if (sample.p50 != 0.0)
        addMember(obj, "p50", makeDouble(sample.p50));
    if (sample.p90 != 0.0)
        addMember(obj, "p90", makeDouble(sample.p90));
    if (sample.p99 != 0.0)
        addMember(obj, "p99", makeDouble(sample.p99));
    if (sample.max != 0.0)
        addMember(obj, "max", makeDouble(sample.max));
    return writeJsonCompact(obj);
}

inline obs::SnapshotMeta
metaFromJson(const Json &value)
{
    if (value.kind != Json::Kind::Object)
        bindFail(value, "snapshot header must be a JSON object");
    obs::SnapshotMeta meta;
    bool haveSchema = false;
    for (const Json::Member &m : value.object) {
        const Json &v = m.value;
        if (m.key == "schema") {
            const std::string schema = bindString(v, "schema");
            if (schema != obs::kSnapshotSchema) {
                bindFail(v, "unknown snapshot schema \"" + schema +
                                "\" (expected \"" +
                                std::string(obs::kSnapshotSchema) +
                                "\")");
            }
            haveSchema = true;
        } else if (m.key == "scenario") {
            meta.scenario = bindString(v, "scenario");
        } else if (m.key == "variant") {
            meta.variant = bindString(v, "variant");
        } else if (m.key == "trial") {
            meta.trial = bindInt32(v, "trial");
        } else if (m.key == "period_ns") {
            meta.periodNs = bindInt(v, "period_ns");
        } else {
            throw SpecError("unknown snapshot header key \"" + m.key +
                                "\"",
                            m.keyLine, m.keyColumn);
        }
    }
    if (!haveSchema)
        bindFail(value, "snapshot header needs \"schema\"");
    return meta;
}

inline obs::Sample
sampleFromJson(const Json &value)
{
    if (value.kind != Json::Kind::Object)
        bindFail(value, "metric record must be a JSON object");
    obs::Sample s;
    bool haveWhen = false, haveName = false, haveKind = false;
    for (const Json::Member &m : value.object) {
        const Json &v = m.value;
        if (m.key == "t") {
            s.when = bindInt(v, "t");
            haveWhen = true;
        } else if (m.key == "n") {
            s.name = bindString(v, "n");
            haveName = true;
        } else if (m.key == "k") {
            if (v.kind != Json::Kind::String ||
                !obs::kindFromName(v.string, s.kind)) {
                bindFail(v, "\"k\" must name a known metric kind");
            }
            haveKind = true;
        } else if (m.key == "c") {
            s.count = bindInt(v, "c");
        } else if (m.key == "v") {
            s.value = bindNumber(v, "v");
        } else if (m.key == "min") {
            s.min = bindNumber(v, "min");
        } else if (m.key == "p50") {
            s.p50 = bindNumber(v, "p50");
        } else if (m.key == "p90") {
            s.p90 = bindNumber(v, "p90");
        } else if (m.key == "p99") {
            s.p99 = bindNumber(v, "p99");
        } else if (m.key == "max") {
            s.max = bindNumber(v, "max");
        } else {
            throw SpecError("unknown metric record key \"" + m.key +
                                "\"",
                            m.keyLine, m.keyColumn);
        }
    }
    if (!haveWhen || !haveName || !haveKind)
        bindFail(value, "metric record needs \"t\", \"n\", and \"k\"");
    return s;
}

inline std::string
writeSnapshot(const obs::SnapshotMeta &meta,
              const std::vector<obs::Sample> &samples)
{
    std::string out = reference::metaToJsonLine(meta);
    out.push_back('\n');
    for (const obs::Sample &s : samples) {
        out += reference::sampleToJsonLine(s);
        out.push_back('\n');
    }
    return out;
}

inline void
parseSnapshot(const std::string &text, obs::SnapshotMeta &meta,
              std::vector<obs::Sample> &samples)
{
    meta = obs::SnapshotMeta{};
    samples.clear();
    bool haveHeader = false;
    forEachRecord(text, [&](const Json &record) {
        if (!haveHeader) {
            meta = reference::metaFromJson(record);
            haveHeader = true;
        } else {
            samples.push_back(reference::sampleFromJson(record));
        }
    });
    if (!haveHeader && !text.empty()) {
        throw SpecError("snapshot has no c4metrics/1 header line", 0,
                        0);
    }
}

// --- differential-test inputs ---------------------------------------

/** A random label: quotes, backslashes, control characters,
 * multi-byte UTF-8 and plain ASCII. */
inline std::string
randomLabel(std::mt19937_64 &rng)
{
    static const std::vector<std::string> kPieces = {
        "\"", "\\", "\n", "\t", "\x01", "\x1f", "\x7f", "/",
        "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x9a\x80", "link_down",
        "a", "Z", "0", " ", "u", "{", "}", ":", ","};
    std::string out;
    const int n = std::uniform_int_distribution<int>(0, 12)(rng);
    for (int i = 0; i < n; ++i)
        out += kPieces[rng() % kPieces.size()];
    return out;
}

/** Zero, integers, fractions, extremes and any finite bit pattern. */
inline double
randomDouble(std::mt19937_64 &rng)
{
    switch (rng() % 7) {
      case 0: return 0.0;
      case 1: return static_cast<double>(rng() % 100000);
      case 2:
        return std::uniform_real_distribution<double>(-1e3, 1e3)(rng);
      case 3:
        return std::ldexp(
            std::uniform_real_distribution<double>(0.5, 1.0)(rng),
            std::uniform_int_distribution<int>(-1070, 1020)(rng));
      case 4: return 1.0 / static_cast<double>(1 + rng() % 1000);
      case 5: return -static_cast<double>(rng() % 1000) * 1e15;
      default: {
        // Any finite bit pattern.
        for (;;) {
            const std::uint64_t bits = rng();
            double v;
            std::memcpy(&v, &bits, sizeof(v));
            if (std::isfinite(v))
                return v;
        }
      }
    }
}

inline std::int64_t
randomInt(std::mt19937_64 &rng)
{
    switch (rng() % 4) {
      case 0: return 0;
      case 1: return static_cast<std::int64_t>(rng() % 64);
      case 2: return -static_cast<std::int64_t>(rng() % 1000);
      default: return static_cast<std::int64_t>(rng());
    }
}

/** One record split into (key token, value token) members. */
using Members = std::vector<std::pair<std::string, std::string>>;

inline Members
membersOf(const std::string &line)
{
    Members out;
    for (const Json::Member &m : parseJson(line).object) {
        std::string key;
        appendJsonString(key, m.key);
        out.emplace_back(key, writeJsonCompact(m.value));
    }
    return out;
}

inline std::string
joinMembers(const Members &members)
{
    std::string out = "{";
    for (const auto &[key, value] : members) {
        if (out.size() > 1)
            out.push_back(',');
        out += key + ":" + value;
    }
    return out + "}";
}

/**
 * Single-defect variants of a valid one-line record: byte flips,
 * inserted whitespace, a CRLF ending, shuffled, duplicated, dropped
 * and renamed keys, \u escapes, and values swapped for nested or
 * out-of-range ones.
 */
inline std::vector<std::string>
mutations(const std::string &line, std::mt19937_64 &rng)
{
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    static const std::string kBytes =
        "{}[]\":,\\ 0-.eE+tfnux\x01\x7f\xff";
    static const std::vector<std::string> kValues = {
        "[1,2]", "{\"x\":1}", "{\"x\":{\"y\":[]}}", "{\"a\":1,\"a\":2}",
        std::string(70, '[') + std::string(70, ']'), "[", "true",
        "false", "null", "\"s\"", "\"job_arrival\"", "4294967297",
        "-2147483649", "2147483647", "-2147483648",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775809", "1e400", "-1e400", "1e-400", "0.5",
        "1.0", "01", "-0", "1e5", "-", "1.", "2e", "1E+2"};

    std::vector<std::string> out;
    for (int i = 0; i < 3; ++i) {
        std::string s = line;
        s[pick(s.size())] = kBytes[pick(kBytes.size())];
        out.push_back(s);
    }
    {
        std::string s = line;
        s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
        out.push_back(s);
    }
    {
        std::string s = line;
        s.insert(pick(s.size() + 1), 1, " \t\r"[pick(3)]);
        out.push_back(s);
    }
    out.push_back(line + "\r");

    const Members members = membersOf(line);
    {
        Members s = members;
        std::shuffle(s.begin(), s.end(), rng);
        out.push_back(joinMembers(s));
    }
    {
        Members s = members;
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 pick(s.size() + 1)),
                 members[pick(members.size())]);
        out.push_back(joinMembers(s));
    }
    {
        Members s = members;
        s.erase(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size())));
        out.push_back(joinMembers(s));
    }
    {
        Members s = members;
        s[pick(s.size())].first = "\"zz\"";
        out.push_back(joinMembers(s));
    }
    for (int i = 0; i < 2; ++i) {
        Members s = members;
        auto &m = s[pick(s.size())];
        std::string &token = pick(2) == 0 ? m.first : m.second;
        if (token.size() > 2 && token.front() == '"') {
            const std::size_t at = 1 + pick(token.size() - 2);
            char esc[8];
            std::snprintf(esc, sizeof(esc),
                          pick(2) == 0 ? "\\u%04x" : "\\u%04X",
                          static_cast<unsigned char>(token[at]));
            token.replace(at, 1, esc);
        }
        out.push_back(joinMembers(s));
    }
    for (int i = 0; i < 3; ++i) {
        Members s = members;
        s[pick(s.size())].second = kValues[pick(kValues.size())];
        out.push_back(joinMembers(s));
    }
    return out;
}

} // namespace c4::reference

#endif // C4_TESTS_JSONL_REFERENCE_H
