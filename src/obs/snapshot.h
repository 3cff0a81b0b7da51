/**
 * @file
 * Metric-snapshot serialization: the `c4metrics/1` JSONL format.
 *
 * A snapshot file is one header line naming the schema, scenario,
 * variant, trial, and sampling period, followed by one compact JSON
 * object per Sample. Like trace JSONL it is byte-deterministic: fixed
 * key order, default-valued fields omitted, timestamps as exact
 * integer nanoseconds, doubles in shortest round-trip form.
 * writeSnapshot(parseSnapshot(text)) == text for any text
 * writeSnapshot produced — the property `c4trace diff` and the
 * 1-vs-N-thread byte-equality gate rely on.
 */

#ifndef C4_OBS_SNAPSHOT_H
#define C4_OBS_SNAPSHOT_H

#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"

namespace c4::obs {

/** Current snapshot schema tag, the header line's `schema` value. */
inline constexpr const char *kSnapshotSchema = "c4metrics/1";

/**
 * Whether @p text starts like a snapshot. writeSnapshot puts the
 * header first and `schema` first in it, so every snapshot starts
 * with `{"schema":` and no trace record does; `c4trace` tells the two
 * JSONL formats apart by this test.
 */
inline bool
isSnapshotText(std::string_view text)
{
    return text.starts_with(R"({"schema":)");
}

/** Identity of one snapshot stream (the header line's payload). */
struct SnapshotMeta {
    std::string scenario;
    std::string variant;
    int trial = 0;
    Duration periodNs = 0;

    bool operator==(const SnapshotMeta &) const = default;
};

/** The header as a compact one-line JSON object (no newline). */
std::string metaToJsonLine(const SnapshotMeta &meta);

/** One sample as a compact one-line JSON object (no newline). */
std::string sampleToJsonLine(const Sample &sample);

/** Header plus all samples, one line each, newline-terminated. */
std::string writeSnapshot(const SnapshotMeta &meta,
                          const std::vector<Sample> &samples);

/**
 * Parse a snapshot document produced by writeSnapshot, one pass over
 * the text with a JsonRecordScanner (no per-line copy, no JSON tree).
 * The first non-empty line must be a `c4metrics/1` header.
 *
 * Strict by design: malformed records, unknown kinds/keys, duplicate
 * keys, mistyped values, a trial outside int32, and truncated input
 * all throw — a final record without its terminating
 * newline is rejected as a truncated write even when the visible
 * prefix parses, because writeSnapshot always newline-terminates and
 * a mid-line EOF may have silently dropped trailing fields.
 * @throws SpecError with the 1-based line number of the bad record.
 */
void parseSnapshot(const std::string &text, SnapshotMeta &meta,
                   std::vector<Sample> &samples);

} // namespace c4::obs

#endif // C4_OBS_SNAPSHOT_H
