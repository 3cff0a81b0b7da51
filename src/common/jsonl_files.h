/**
 * @file
 * The file side of every tool: reading and writing one whole file
 * (plain, or atomically via tmp + rename for journals a watcher may
 * poll), safe file names for the runner's `--trace`/`--metrics`
 * output, expanding a CLI path into `*.jsonl` files, short file tags
 * and simulated-time stamps for listings, and the first-divergence
 * line diff behind `c4trace diff`. Every error names the path.
 */

#ifndef C4_COMMON_JSONL_FILES_H
#define C4_COMMON_JSONL_FILES_H

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace c4 {

/**
 * Read one whole file.
 * @throws std::runtime_error when @p path does not exist, is not a
 *         regular file (a directory would otherwise read as empty) or
 *         cannot be read.
 */
std::string readFile(const std::string &path);

/**
 * Write @p text to @p path, truncating it, and flush.
 * @throws std::runtime_error naming @p path when it cannot be opened
 *         or the write fails.
 */
void writeFile(const std::string &path, std::string_view text);

/**
 * writeFile into `<path>.tmp`, then rename it over @p path, so a
 * crash mid-write never truncates @p path and a concurrent reader
 * sees the old bytes or the new ones, never a torn file.
 * @throws std::runtime_error as writeFile, or when the rename fails.
 */
void writeFileAtomic(const std::string &path, std::string_view text);

/**
 * Expand @p path: a file stands alone; a directory yields every
 * *.jsonl under it (recursively), sorted by path for determinism.
 * @throws std::runtime_error when the path does not exist or yields
 *         no files.
 */
std::vector<std::string> collectJsonlFiles(const std::string &path);

/**
 * Make a scenario/variant label safe as a file-name component:
 * characters outside [A-Za-z0-9._-] become '_', and "." / ".." (path
 * traversal, not names) become underscores. Callers must still
 * namespace by index when two labels could collide after mapping.
 */
std::string sanitizeFileComponent(const std::string &label);

/** Short tag for multi-file listings: the file name sans .jsonl. */
std::string jsonlFileTag(const std::string &path);

/** Simulated time in seconds with nanosecond digits ("%.9f"). */
std::string formatSimSeconds(Time when);

/**
 * Byte-compare two files line by line, each line together with its
 * terminator, so a missing final newline is a divergence; on
 * divergence print the first differing line of each with @p context
 * preceding lines.
 * @return 0 identical, 1 divergent.
 * @throws std::runtime_error as readFile.
 */
int diffJsonlFiles(const std::string &pathA, const std::string &pathB,
                   std::ostream &out, int context = 3);

} // namespace c4

#endif // C4_COMMON_JSONL_FILES_H
