#include "obs/analyze.h"

#include <map>
#include <ostream>
#include <stdexcept>

#include "common/jsonl_files.h"
#include "common/table.h"

namespace c4::obs {

namespace {

constexpr JsonlNoun kSnapshotNoun{"snapshot", "snapshot"};

void
describeSample(const Sample &s, std::ostream &out)
{
    out << s.name << " (" << kindName(s.kind) << ")";
    switch (s.kind) {
    case MetricKind::Counter:
        out << " c=" << s.count;
        break;
    case MetricKind::Gauge:
        out << " v=" << formatJsonDouble(s.value);
        break;
    case MetricKind::Window:
        out << " c=" << s.count
            << " p50=" << formatJsonDouble(s.p50)
            << " p99=" << formatJsonDouble(s.p99)
            << " max=" << formatJsonDouble(s.max);
        break;
    }
}

} // namespace

std::vector<std::string>
collectSnapshotFiles(const std::string &path)
{
    return collectJsonlFiles(path, kSnapshotNoun);
}

SnapshotFile
loadSnapshotFile(const std::string &path)
{
    SnapshotFile sf;
    sf.path = path;
    try {
        parseSnapshot(readJsonlFile(path, kSnapshotNoun), sf.meta,
                      sf.samples);
    } catch (const SpecError &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return sf;
}

void
printSummary(const std::vector<SnapshotFile> &files, std::ostream &out)
{
    // Per-metric rollup in first-appearance order across files.
    struct Roll {
        MetricKind kind = MetricKind::Counter;
        std::uint64_t ticks = 0;
        Sample last; ///< the latest sample seen (files are sorted)
    };
    std::vector<std::string> order;
    std::map<std::string, Roll> rolls;
    std::size_t total = 0;
    for (const SnapshotFile &sf : files) {
        total += sf.samples.size();
        for (const Sample &s : sf.samples) {
            auto it = rolls.find(s.name);
            if (it == rolls.end()) {
                order.push_back(s.name);
                it = rolls.emplace(s.name, Roll{}).first;
                it->second.kind = s.kind;
            }
            ++it->second.ticks;
            it->second.last = s;
        }
    }

    out << files.size() << " snapshot file(s), " << total
        << " sample(s)\n\n";
    AsciiTable t({"metric", "kind", "ticks", "last", "p50", "p99"});
    for (const std::string &name : order) {
        const Roll &r = rolls[name];
        std::string last, p50, p99;
        switch (r.kind) {
        case MetricKind::Counter:
            last = AsciiTable::integer(r.last.count);
            p50 = p99 = "-";
            break;
        case MetricKind::Gauge:
            last = formatJsonDouble(r.last.value);
            p50 = p99 = "-";
            break;
        case MetricKind::Window:
            last = AsciiTable::integer(r.last.count);
            p50 = formatJsonDouble(r.last.p50);
            p99 = formatJsonDouble(r.last.p99);
            break;
        }
        t.addRow({name, kindName(r.kind),
                  AsciiTable::integer(static_cast<std::int64_t>(
                      r.ticks)),
                  last, p50, p99});
    }
    out << t.str();
}

void
printTail(const std::vector<SnapshotFile> &files, int ticks,
          std::ostream &out)
{
    const bool tagged = files.size() > 1;
    for (const SnapshotFile &sf : files) {
        // Samples are tick-major in emission order; find where the
        // last `ticks` sampling timestamps begin.
        std::size_t from = sf.samples.size();
        int seen = 0;
        Time lastWhen = 0;
        while (from > 0) {
            const Time when = sf.samples[from - 1].when;
            if (seen == 0 || when != lastWhen) {
                if (seen == ticks)
                    break;
                ++seen;
                lastWhen = when;
            }
            --from;
        }
        if (tagged)
            out << "== " << jsonlFileTag(sf.path) << " ==\n";
        for (std::size_t i = from; i < sf.samples.size(); ++i) {
            const Sample &s = sf.samples[i];
            out << "t=" << formatSimSeconds(s.when) << "s  ";
            describeSample(s, out);
            out << "\n";
        }
    }
}

int
diffSnapshots(const std::string &pathA, const std::string &pathB,
              std::ostream &out, int context)
{
    return diffJsonlFiles(pathA, pathB, kSnapshotNoun, out, context);
}

} // namespace c4::obs
