/**
 * @file
 * The file side of the JSONL analyzers (`c4trace`, `c4stat`): reading
 * one file, expanding a CLI path into `*.jsonl` files, short file tags
 * and simulated-time stamps for listings, and the first-divergence line
 * diff that both tools' `diff` command prints.
 *
 * The analyzers differ only in the nouns their messages use, so every
 * call takes a JsonlNoun: {"trace", "event"} for event traces,
 * {"snapshot", "snapshot"} for metric snapshots.
 */

#ifndef C4_COMMON_JSONL_FILES_H
#define C4_COMMON_JSONL_FILES_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace c4 {

/** What a file and one of its lines are called in messages. */
struct JsonlNoun
{
    const char *file; ///< "trace" -> "no trace file ...", "traces diverge"
    const char *line; ///< "event" -> "identical: N event line(s)"
};

/**
 * Read one whole file.
 * @throws std::runtime_error when @p path is not a regular file (a
 *         directory would otherwise read as empty) or cannot be read.
 */
std::string readJsonlFile(const std::string &path, const JsonlNoun &noun);

/**
 * Expand @p path: a file stands alone; a directory yields every
 * *.jsonl under it (recursively), sorted by path for determinism.
 * @throws std::runtime_error when the path does not exist or yields
 *         no files.
 */
std::vector<std::string> collectJsonlFiles(const std::string &path,
                                           const JsonlNoun &noun);

/** Short tag for multi-file listings: the file name sans .jsonl. */
std::string jsonlFileTag(const std::string &path);

/** Simulated time in seconds with nanosecond digits ("%.9f"). */
std::string formatSimSeconds(Time when);

/**
 * Byte-compare two files line by line; on divergence print the first
 * differing line of each with @p context preceding lines.
 * @return 0 identical, 1 divergent.
 * @throws std::runtime_error as readJsonlFile.
 */
int diffJsonlFiles(const std::string &pathA, const std::string &pathB,
                   const JsonlNoun &noun, std::ostream &out,
                   int context);

} // namespace c4

#endif // C4_COMMON_JSONL_FILES_H
