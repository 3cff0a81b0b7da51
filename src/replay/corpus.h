/**
 * @file
 * The on-disk incident corpus: labeled trace files + verdict goldens.
 *
 * Corpus layout (tests/incidents/ is the committed instance):
 *
 *     <name>.trace.jsonl   the recorded event trace (trace/export.h)
 *     <name>.label.json    ground truth for scoring:
 *         {
 *           "schema": "c4incident/1",
 *           "name": "link_failure_single",
 *           "root_cause": "link_failure",      // kind name or "none"
 *           "culprit_node": -1,                // -1 = not node-scoped
 *           "culprit_links": [12, 40],         // [] = not link-scoped
 *           "t_inject_ns": 20000000000,        // 0 for "none" labels
 *           "seed": 801,
 *           "notes": "..."
 *         }
 *     golden_verdicts.jsonl  per-incident verdict lines, byte-diffed
 *                            by the `ctest -L replay` gate
 *
 * Verdict rendering is canonical (fixed key order, common/json number
 * formatting), so "byte-identical verdicts" is a plain string compare.
 */

#ifndef C4_REPLAY_CORPUS_H
#define C4_REPLAY_CORPUS_H

#include <string>
#include <vector>

#include "c4d/incident.h"
#include "common/types.h"

namespace c4::replay {

/** Ground truth for one corpus incident. */
struct IncidentLabel
{
    std::string name;
    std::string rootCause = "none"; ///< incident kind name, or "none"
    NodeId culpritNode = kInvalidId;
    std::vector<std::int64_t> culpritLinks;
    Time tInject = 0;
    std::uint64_t seed = 0;
    std::string notes;
};

/** Canonical pretty-printed label JSON (byte-stable). */
std::string writeLabelJson(const IncidentLabel &label);

/**
 * Parse and validate a label document.
 * @throws SpecError on malformed JSON, unknown keys, or an unknown
 *         root_cause name.
 */
IncidentLabel labelFromJson(const std::string &text);

/** One corpus entry: a trace file paired with its label. */
struct Incident
{
    std::string name;
    std::string tracePath;
    IncidentLabel label;
};

/**
 * Scan @p dir for `<name>.trace.jsonl` + `<name>.label.json` pairs,
 * sorted by name for determinism.
 * @throws std::runtime_error when the directory is missing, empty of
 *         incidents, or holds a trace without a label (or vice versa).
 */
std::vector<Incident> collectIncidents(const std::string &dir);

/**
 * Render one incident's verdicts as canonical JSONL: one line per
 * verdict with fixed keys (incident, kind, node, link, t_detect,
 * cause, corroborated, confidence, evidence); a clean run renders as
 * a single `{"incident":...,"verdicts":0}` line so negatives are
 * visible in the golden too.
 */
std::string verdictsToJsonl(const std::string &incident,
                            const std::vector<c4d::IncidentVerdict> &vs);

} // namespace c4::replay

#endif // C4_REPLAY_CORPUS_H
