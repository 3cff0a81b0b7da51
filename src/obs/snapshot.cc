#include "obs/snapshot.h"

#include <algorithm>

namespace c4::obs {

namespace {

void
appendMetaLine(std::string &out, const SnapshotMeta &meta)
{
    JsonRecordWriter w(out);
    w.string("schema", kSnapshotSchema);
    w.string("scenario", meta.scenario);
    w.string("variant", meta.variant);
    w.integer("trial", meta.trial);
    w.integer("period_ns", meta.periodNs);
    w.close();
}

void
appendSampleLine(std::string &out, const Sample &sample)
{
    JsonRecordWriter w(out);
    w.integer("t", sample.when);
    w.string("n", sample.name);
    w.string("k", kindName(sample.kind));
    if (sample.count != 0)
        w.integer("c", sample.count);
    if (sample.value != 0.0)
        w.number("v", sample.value);
    if (sample.min != 0.0)
        w.number("min", sample.min);
    if (sample.p50 != 0.0)
        w.number("p50", sample.p50);
    if (sample.p90 != 0.0)
        w.number("p90", sample.p90);
    if (sample.p99 != 0.0)
        w.number("p99", sample.p99);
    if (sample.max != 0.0)
        w.number("max", sample.max);
    w.close();
}

/** Bind the header record under @p sc into @p meta.
 * @throws SpecError */
void
bindMeta(JsonRecordScanner &sc, SnapshotMeta &meta)
{
    bool haveSchema = false;
    while (sc.next()) {
        const std::string_view key = sc.key();
        if (key == "schema") {
            const std::string_view schema = sc.string("schema");
            if (sc.kind() == Json::Kind::String &&
                schema != kSnapshotSchema) {
                sc.failValue("unknown snapshot schema \"" +
                             std::string(schema) + "\" (expected \"" +
                             std::string(kSnapshotSchema) + "\")");
            }
            haveSchema = true;
        } else if (key == "scenario") {
            meta.scenario = sc.string("scenario");
        } else if (key == "variant") {
            meta.variant = sc.string("variant");
        } else if (key == "trial") {
            meta.trial = sc.int32("trial");
        } else if (key == "period_ns") {
            meta.periodNs = sc.integer("period_ns");
        } else {
            sc.failKey("unknown snapshot header key \"" +
                       std::string(key) + "\"");
        }
    }
    if (!haveSchema)
        sc.failRecord("snapshot header needs \"schema\"");
    sc.finish();
}

/** Bind the sample record under @p sc into @p s.
 * @throws SpecError */
void
bindSample(JsonRecordScanner &sc, Sample &s)
{
    bool haveWhen = false, haveName = false, haveKind = false;
    while (sc.next()) {
        const std::string_view key = sc.key();
        if (key == "t") {
            s.when = sc.integer("t");
            haveWhen = true;
        } else if (key == "n") {
            s.name = sc.string("n");
            haveName = true;
        } else if (key == "k") {
            if (sc.kind() != Json::Kind::String ||
                !kindFromName(sc.stringValue(), s.kind)) {
                sc.failValue("\"k\" must name a known metric kind");
            }
            haveKind = true;
        } else if (key == "c") {
            s.count = sc.integer("c");
        } else if (key == "v") {
            s.value = sc.number("v");
        } else if (key == "min") {
            s.min = sc.number("min");
        } else if (key == "p50") {
            s.p50 = sc.number("p50");
        } else if (key == "p90") {
            s.p90 = sc.number("p90");
        } else if (key == "p99") {
            s.p99 = sc.number("p99");
        } else if (key == "max") {
            s.max = sc.number("max");
        } else {
            sc.failKey("unknown metric record key \"" +
                       std::string(key) + "\"");
        }
    }
    if (!haveWhen || !haveName || !haveKind)
        sc.failRecord("metric record needs \"t\", \"n\", and \"k\"");
    sc.finish();
}

} // namespace

std::string
metaToJsonLine(const SnapshotMeta &meta)
{
    std::string out;
    appendMetaLine(out, meta);
    return out;
}

std::string
sampleToJsonLine(const Sample &sample)
{
    std::string out;
    appendSampleLine(out, sample);
    return out;
}

std::string
writeSnapshot(const SnapshotMeta &meta,
              const std::vector<Sample> &samples)
{
    std::string out;
    out.reserve(128 + samples.size() * 96);
    appendMetaLine(out, meta);
    out.push_back('\n');
    for (const Sample &s : samples) {
        appendSampleLine(out, s);
        out.push_back('\n');
    }
    return out;
}

void
parseSnapshot(const std::string &text, SnapshotMeta &meta,
              std::vector<Sample> &samples)
{
    meta = SnapshotMeta{};
    samples.clear();
    samples.reserve(static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n')));
    JsonRecordScanner scanner;
    bool haveHeader = false;
    forEachJsonlRecord(text, [&](std::string_view line) {
        if (!haveHeader) {
            scanner.reset(line, "snapshot header must be a JSON object");
            bindMeta(scanner, meta);
            haveHeader = true;
        } else {
            scanner.reset(line, "metric record must be a JSON object");
            bindSample(scanner, samples.emplace_back());
        }
    });
    if (!haveHeader && !text.empty()) {
        throw SpecError("snapshot has no c4metrics/1 header line", 0,
                        0);
    }
}

} // namespace c4::obs
