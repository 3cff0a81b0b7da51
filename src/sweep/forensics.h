/**
 * @file
 * Campaign failure bundles: when the executor parks a shard as
 * `failed`, it re-runs the shard once with `--trace` and `--metrics`
 * attached — per-trial seeds depend only on (base seed, absolute
 * trial index), so the failure reproduces deterministically — and
 * freezes the evidence under `forensics/<shard.id>/`:
 *
 *     bundle.json    strict byte-stable c4bundle/1 manifest (below)
 *     shard.json     copy of the shard spec that failed
 *     stderr.log     the forensic re-run's stderr
 *     stdout.csv     the forensic re-run's CSV stream
 *     trace/...      per-trial JSONL event traces (trace/export.h)
 *     metrics/...    per-trial c4metrics/1 snapshots (obs/snapshot.h)
 *
 * The bundle travels with the campaign directory: `c4sweep collect`
 * pulls it back from a host copy, and the forensics report streams
 * each bundled trace through the offline incident analyzer
 * (replay/replay.h) so a campaign failure arrives pre-diagnosed.
 *
 * The `c4bundle/1` manifest follows the same contract as the trace
 * and metrics formats: canonical writer (same bytes for the same
 * bundle) and a strict parser — unknown keys, wrong types, and
 * truncated documents are line-numbered errors, never silent
 * acceptance.
 */

#ifndef C4_SWEEP_FORENSICS_H
#define C4_SWEEP_FORENSICS_H

#include <iosfwd>
#include <string>
#include <vector>

namespace c4::sweep {

struct Manifest;
struct Shard;

inline constexpr const char *kBundleSchema = "c4bundle/1";

/** The parsed `bundle.json` of one failure bundle. All file paths are
 * bundle-relative; trace/metrics lists are sorted by path. */
struct BundleManifest
{
    std::string shard;    ///< shard id ("<scenario>.s<k>")
    std::string scenario;
    std::string spec = "shard.json";
    std::string log = "stderr.log";
    std::string csv = "stdout.csv";
    int trialBegin = 0;
    int trialCount = 0;
    int attempts = 0;     ///< attempts burned before the bundle was cut
    int exitCode = 0;     ///< the exit code that parked the shard
    int forensicExit = 0; ///< the traced re-run's exit (0 = did not
                          ///< reproduce)
    std::vector<std::string> traces;
    std::vector<std::string> metrics;
};

/** "forensics/<shardId>" — the bundle dir, campaign-relative. */
std::string bundleDir(const std::string &shardId);

/** Serialize canonically (same bytes for the same bundle). */
std::string writeBundleManifest(const BundleManifest &bundle);

/**
 * Strict parse: schema tag, key set (missing or unknown keys are
 * errors), and types are all checked.
 * @throws std::runtime_error; malformed JSON (any truncation
 *         included) reports the 1-based line and column.
 */
BundleManifest parseBundleManifest(const std::string &text);

/** Read and parse one bundle.json. @throws std::runtime_error. */
BundleManifest loadBundleManifest(const std::string &path);

/** True when `<dir>/forensics/<shardId>/bundle.json` exists. */
bool bundleExists(const std::string &dir, const std::string &shardId);

/**
 * Cut the failure bundle for @p shard: re-run it once through
 * @p bench — started by launchBench (sweep/exec.h), the same launcher
 * as the shard children — with `--trace`/`--metrics` pointed into the
 * bundle dir, copy the shard spec in, and write the c4bundle/1
 * manifest with writeFileAtomic, so a watching dashboard never reads
 * a torn manifest. An existing bundle for the shard is replaced — the
 * latest failure wins.
 * @return "" on success, otherwise the error; progress to @p diag.
 */
std::string captureBundle(const std::string &dir, const Shard &shard,
                          const std::string &bench, bool smoke,
                          std::ostream &diag);

/**
 * The scored failure report: for every shard with a bundle (manifest
 * order), load the bundle, stream each trace through the incident
 * analyzer, and print the verdicts as canonical JSONL lines plus a
 * per-kind rollup. Deterministic byte-for-byte for the same bundles.
 * A campaign with no bundles prints a one-line note.
 * @return "" on success, otherwise an infrastructure error (a bundle
 *         whose manifest cannot be read at all).
 */
std::string forensicsReport(const std::string &dir,
                            const Manifest &manifest,
                            std::ostream &out);

} // namespace c4::sweep

#endif // C4_SWEEP_FORENSICS_H
