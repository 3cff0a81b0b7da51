#include "trace/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/jsonl_files.h"
#include "common/stats.h"
#include "trace/export.h"

namespace c4::trace {

namespace {

constexpr JsonlNoun kTraceNoun{"trace", "event"};

void
describeEvent(const Event &ev, std::ostream &out)
{
    out << eventKindName(ev.kind);
    if (ev.job != kInvalidId)
        out << " job=" << ev.job;
    if (ev.node != kInvalidId)
        out << " node=" << ev.node;
    if (ev.a != 0)
        out << " a=" << ev.a;
    if (ev.b != 0)
        out << " b=" << ev.b;
    if (ev.value != 0.0)
        out << " v=" << formatJsonDouble(ev.value);
    if (!ev.detail.empty())
        out << " [" << ev.detail << "]";
}

} // namespace

std::vector<std::string>
collectTraceFiles(const std::string &path)
{
    return collectJsonlFiles(path, kTraceNoun);
}

TraceFile
loadTraceFile(const std::string &path)
{
    TraceFile tf;
    tf.path = path;
    try {
        tf.events = parseJsonl(readJsonlFile(path, kTraceNoun));
    } catch (const SpecError &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return tf;
}

void
printSummary(const std::vector<TraceFile> &traces, std::ostream &out)
{
    std::uint64_t counts[kNumEventKinds] = {};
    Summary values[kNumEventKinds];
    std::size_t total = 0;

    // (cost, when, file) triples of recompute_end events.
    struct Cost
    {
        double ops;
        Time when;
        const std::string *path;
    };
    std::vector<Cost> recomputes;

    for (const TraceFile &tf : traces) {
        total += tf.events.size();
        for (const Event &ev : tf.events) {
            const int k = static_cast<int>(ev.kind);
            ++counts[k];
            values[k].add(ev.value);
            if (ev.kind == EventKind::RecomputeEnd)
                recomputes.push_back({ev.value, ev.when, &tf.path});
        }
    }

    out << traces.size() << " trace file(s), " << total
        << " event(s)\n\n";
    out << "  kind                    count     v_mean      v_max\n";
    for (int k = 0; k < kNumEventKinds; ++k) {
        if (counts[k] == 0)
            continue;
        char line[128];
        std::snprintf(line, sizeof(line),
                      "  %-20s %8llu %10.4g %10.4g\n",
                      eventKindName(static_cast<EventKind>(k)),
                      static_cast<unsigned long long>(counts[k]),
                      values[k].mean(), values[k].max());
        out << line;
    }

    // Per-kind value distribution for the measurement-carrying kinds.
    for (int k = 0; k < kNumEventKinds; ++k) {
        const Summary &s = values[k];
        if (counts[k] < 8 || s.min() == s.max())
            continue;
        // Buckets cover [lo, hi): nudge hi up so max-valued samples
        // land in the last bucket instead of the overflow bin.
        Histogram h(s.min(),
                    std::nextafter(s.max(),
                                   std::numeric_limits<double>::max()),
                    8);
        for (double v : s.samples())
            h.add(v);
        out << "\n  " << eventKindName(static_cast<EventKind>(k))
            << " value distribution (p50="
            << formatJsonDouble(s.median())
            << ", p95=" << formatJsonDouble(s.percentile(95))
            << "):\n";
        std::istringstream bars(h.str(30));
        std::string barLine;
        while (std::getline(bars, barLine))
            out << "    " << barLine << "\n";
    }

    if (!recomputes.empty()) {
        std::stable_sort(recomputes.begin(), recomputes.end(),
                         [](const Cost &x, const Cost &y) {
                             return x.ops > y.ops;
                         });
        out << "\n  costliest fabric recomputes (filling ops):\n";
        const std::size_t n =
            std::min<std::size_t>(5, recomputes.size());
        for (std::size_t i = 0; i < n; ++i) {
            out << "    t=" << formatSimSeconds(recomputes[i].when)
                << "s ops=" << formatJsonDouble(recomputes[i].ops)
                << "  (" << jsonlFileTag(*recomputes[i].path) << ")\n";
        }
    }
}

void
printTimeline(const std::vector<TraceFile> &traces, std::ostream &out)
{
    // K-way stable merge by (simulated time, file order): events
    // inside one trace are already in emission order.
    std::vector<std::size_t> cursor(traces.size(), 0);
    const bool tagged = traces.size() > 1;
    for (;;) {
        std::size_t best = traces.size();
        for (std::size_t f = 0; f < traces.size(); ++f) {
            if (cursor[f] >= traces[f].events.size())
                continue;
            if (best == traces.size() ||
                traces[f].events[cursor[f]].when <
                    traces[best].events[cursor[best]].when) {
                best = f;
            }
        }
        if (best == traces.size())
            break;
        const Event &ev = traces[best].events[cursor[best]++];
        out << "t=" << formatSimSeconds(ev.when) << "s  ";
        if (tagged)
            out << "[" << jsonlFileTag(traces[best].path) << "] ";
        describeEvent(ev, out);
        out << "\n";
    }
}

int
diffTraces(const std::string &pathA, const std::string &pathB,
           std::ostream &out, int context)
{
    return diffJsonlFiles(pathA, pathB, kTraceNoun, out, context);
}

} // namespace c4::trace
