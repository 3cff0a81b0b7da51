/**
 * @file
 * Trace analysis: the logic behind the `c4trace` tool.
 *
 *  - summary:  per-kind counts and value statistics (over
 *              common/stats), plus the costliest fabric recomputes —
 *              the Fig. 3 profiling substrate.
 *  - timeline: a human-readable log; multiple trial traces are
 *              interleaved by simulated time.
 *  - diff:     byte-level comparison of two trial traces, reporting
 *              the first divergence with context — the determinism
 *              debugging tool (a nondeterministic change shows up as
 *              a first-divergent-line long before it shows in a CSV).
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

/**
 * Expand @p path: a .jsonl file stands alone; a directory yields every
 * *.jsonl under it (recursively), sorted by path for determinism.
 * @throws std::runtime_error when the path does not exist or yields
 *         no trace files.
 */
std::vector<std::string> collectTraceFiles(const std::string &path);

/** Read and parse one JSONL trace. @throws on I/O or parse failure. */
TraceFile loadTraceFile(const std::string &path);

/** Per-kind counts, value stats/histograms, top recompute costs. */
void printSummary(const std::vector<TraceFile> &traces,
                  std::ostream &out);

/** Interleave all traces by simulated time into a readable log. */
void printTimeline(const std::vector<TraceFile> &traces,
                   std::ostream &out);

/**
 * Byte-compare two JSONL traces line by line; on divergence print the
 * first differing line of each with @p context preceding lines.
 * @return 0 identical, 1 divergent.
 * @throws std::runtime_error when either path is not a readable file.
 */
int diffTraces(const std::string &pathA, const std::string &pathB,
               std::ostream &out, int context = 3);

} // namespace c4::trace

#endif // C4_TRACE_ANALYZE_H
