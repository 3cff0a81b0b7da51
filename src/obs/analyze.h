/**
 * @file
 * Offline analysis over recorded metric snapshots: the metric-snapshot
 * half of the `c4trace` tool (summary / tail), next to trace/analyze.h's
 * event-trace half. `c4trace diff` works on either format and lives in
 * common/jsonl_files.h.
 */

#ifndef C4_OBS_ANALYZE_H
#define C4_OBS_ANALYZE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace c4::obs {

/** One loaded snapshot file. */
struct SnapshotFile {
    std::string path;
    SnapshotMeta meta;
    std::vector<Sample> samples;
};

/** Load and parse one file. @throws std::runtime_error on bad input. */
SnapshotFile loadSnapshotFile(const std::string &path);

/**
 * Per-metric rollup across all files: kind, sampling ticks, last
 * value, and window percentiles where applicable.
 */
void printSummary(const std::vector<SnapshotFile> &files,
                  std::ostream &out);

/**
 * The last @p ticks sampling ticks of each file, one line per sample,
 * newest last — `tail -f` for a finished run.
 */
void printTail(const std::vector<SnapshotFile> &files, int ticks,
               std::ostream &out);

} // namespace c4::obs

#endif // C4_OBS_ANALYZE_H
