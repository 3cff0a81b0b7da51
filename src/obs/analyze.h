/**
 * @file
 * Offline analysis over recorded metric snapshots — the engine behind
 * the `c4stat` CLI (summary / tail / diff), the metrics twin of
 * trace/analyze.h.
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

/**
 * Expand one CLI path argument into snapshot file paths: a directory
 * yields every `*.jsonl` under it (recursively, sorted); a file yields
 * itself. @throws std::runtime_error when nothing is found.
 */
std::vector<std::string> collectSnapshotFiles(const std::string &path);

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

/**
 * Line-by-line byte comparison of two snapshot files. Prints the first
 * divergence with @p context preceding lines.
 * @return 0 when identical, 1 when different (the determinism
 *         debugger's exit-code contract, like `c4trace diff`).
 * @throws std::runtime_error when either path is not a readable file.
 */
int diffSnapshots(const std::string &pathA, const std::string &pathB,
                  std::ostream &out, int context = 3);

} // namespace c4::obs

#endif // C4_OBS_ANALYZE_H
