/**
 * @file
 * Trace serialization: JSONL (the canonical on-disk form, one compact
 * JSON object per event line) and the Chrome `trace_event` format
 * (load into chrome://tracing or Perfetto).
 *
 * JSONL is byte-deterministic: fixed key order, default-valued fields
 * omitted, timestamps as exact integer nanoseconds, doubles in
 * shortest round-trip form. writeJsonl(parseJsonl(text)) == text for
 * any text writeJsonl produced — the property `c4trace diff` and the
 * 1-vs-N-thread byte-equality gate rely on.
 */

#ifndef C4_TRACE_EXPORT_H
#define C4_TRACE_EXPORT_H

#include <string>
#include <vector>

#include "common/json.h"
#include "trace/trace.h"

namespace c4::trace {

/** One event as a compact one-line JSON object (no newline). */
std::string eventToJsonLine(const Event &event);

/**
 * All events, one line each, newline-terminated. Appended straight
 * into one buffer; no per-event JSON tree or temporary string.
 */
std::string writeJsonl(const std::vector<Event> &events);

/**
 * Parse a JSONL document produced by writeJsonl, one pass over the
 * text with a JsonRecordScanner: no per-line copy and no JSON tree.
 *
 * Strict by design (the incident corpus depends on it): malformed
 * records, unknown kinds/keys, a path_realloc whose "d" names no
 * PathReallocKind, duplicate keys, mistyped values, ids outside
 * int32, and truncated input all throw — a final record
 * without its terminating newline is rejected as a truncated write
 * even when the visible prefix parses, because writeJsonl always
 * newline-terminates and a mid-line EOF may have silently dropped
 * trailing fields of the record.
 * @throws SpecError with the 1-based line number of the bad record.
 */
std::vector<Event> parseJsonl(const std::string &text);

/**
 * One track of a Chrome trace: the events of one (variant, trial),
 * rendered as process @p pid / thread @p tid with human-readable
 * metadata names.
 */
struct ChromeTrack
{
    std::string processName; ///< e.g. the variant label
    std::string threadName;  ///< e.g. "trial 3"
    int pid = 0;
    int tid = 0;
    const std::vector<Event> *events = nullptr;
};

/**
 * Render tracks as one Chrome trace_event JSON document. Recompute
 * begin/end pairs become duration (B/E) slices named "recompute";
 * everything else is an instant event. Timestamps are microseconds
 * (the format's unit), derived exactly from the nanosecond values.
 */
std::string writeChromeTrace(const std::vector<ChromeTrack> &tracks);

} // namespace c4::trace

#endif // C4_TRACE_EXPORT_H
