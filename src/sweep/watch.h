/**
 * @file
 * `c4sweep status`: the one campaign view. Reads the journaled
 * manifest and renders a dashboard frame — shards done/running/failed,
 * retry budget burned, forensics bundles, (when the campaign runs with
 * `--metrics`) per-scenario throughput highlights pulled from each
 * shard's latest c4metrics/1 snapshot, and the next step to take.
 * Plain `status` renders one frame; `--watch` re-reads the manifest on
 * a fixed cadence and renders a frame per poll.
 *
 * The watcher is a pure reader: it never writes the manifest, so it
 * is safe to run alongside an executor (even one on another host over
 * a shared filesystem). Snapshot files mid-write by a shard child are
 * tolerated and shown as such, not treated as errors.
 */

#ifndef C4_SWEEP_WATCH_H
#define C4_SWEEP_WATCH_H

#include <iosfwd>
#include <string>

namespace c4::sweep {

/** How often `c4sweep status` polls; plain `status` is one tick. */
struct WatchOptions
{
    /** Seconds between manifest polls (0 = poll back-to-back, for
     * tests). */
    double intervalSeconds = 2.0;

    /** Stop after this many polls even if the campaign is still
     * incomplete (0 = watch until complete). */
    int maxTicks = 0;
};

/**
 * Poll `<dir>/manifest.json` and render the dashboard to @p out after
 * every poll.
 * @return 0 once the campaign completes, 1 when the tick budget runs
 *         out with the campaign incomplete, 2 on a load error (its
 *         message goes to @p err).
 */
int watchCampaign(const std::string &dir, const WatchOptions &opt,
                  std::ostream &out, std::ostream &err);

} // namespace c4::sweep

#endif // C4_SWEEP_WATCH_H
