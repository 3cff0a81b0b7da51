/**
 * @file
 * Trace analysis: the event-trace half of the `c4trace` tool
 * (obs/analyze.h is the metric-snapshot half).
 *
 *  - summary:  per-kind counts and value statistics (over
 *              common/stats), plus the costliest fabric recomputes —
 *              the Fig. 3 profiling substrate.
 *  - timeline: a human-readable log; multiple trial traces are
 *              interleaved by simulated time.
 *
 * `c4trace diff`, the byte-level first-divergence report, works on
 * either format and lives in common/jsonl_files.h.
 *
 * Everything here works on JSONL trace files as written by the
 * scenario runner's `--trace` output (trace/export.h).
 */

#ifndef C4_TRACE_ANALYZE_H
#define C4_TRACE_ANALYZE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace c4::trace {

/** One loaded trial trace. */
struct TraceFile
{
    std::string path;
    std::vector<Event> events;
};

/** Read and parse one JSONL trace. @throws on I/O or parse failure. */
TraceFile loadTraceFile(const std::string &path);

/** Per-kind counts, value stats/histograms, top recompute costs. */
void printSummary(const std::vector<TraceFile> &traces,
                  std::ostream &out);

/** Interleave all traces by simulated time into a readable log. */
void printTimeline(const std::vector<TraceFile> &traces,
                   std::ostream &out);

} // namespace c4::trace

#endif // C4_TRACE_ANALYZE_H
