/**
 * @file
 * The campaign executor: runs the pending shards of a planned
 * campaign as child `c4bench --spec shard.json --csv -` processes
 * (stdout redirected into the shard CSV, stderr into the shard log)
 * under a fixed-size worker pool. launchBench is the sweep's one
 * fork/exec; the forensics re-run (sweep/forensics.h) starts its
 * traced child through it too.
 *
 * Every state transition is journaled to the manifest before and
 * after the child runs, so killing the executor mid-campaign loses at
 * most the in-flight shards: a re-run resets interrupted `running`
 * shards to `pending` and skips everything already `done`. A non-zero
 * child is retried up to the attempt budget, then parked as `failed`
 * with its log intact.
 */

#ifndef C4_SWEEP_EXEC_H
#define C4_SWEEP_EXEC_H

#include <iosfwd>
#include <string>
#include <vector>

#include <sys/types.h>

namespace c4::sweep {

/** What `c4sweep run` collected from its command line. */
struct ExecRequest
{
    std::string dir;   ///< planned campaign directory
    std::string bench; ///< c4bench to exec; empty = sibling of c4sweep

    /** Concurrent shard children. Each child additionally runs its
     * own trial-sweep threads; 1 is the safe default on small CI
     * boxes. */
    int workers = 1;

    /** Total executions allowed per shard (first run + retries). */
    int maxAttempts = 2;

    /** Execute at most this many shards this invocation (0 = all) —
     * incremental campaigns and deterministic resume testing. */
    int maxShards = 0;

    /**
     * `--only id1,id2`: restrict this invocation to the named shards
     * (manifest ids like "fig9_dualport.s0"). Empty = all. Every id
     * must exist in the manifest — an unknown id is a hard error, not
     * a silent no-op — and non-selected shards are left untouched
     * (their journal state included), so disjoint `--only` sets can
     * be handed to different hosts over copies of one planned
     * campaign and the CSVs collected back for a single merge.
     */
    std::vector<std::string> only;

    /**
     * `--metrics`: each shard child additionally writes c4metrics/1
     * snapshots under `<dir>/metrics/<shard.id>/`, which `c4sweep
     * status --watch` polls for per-scenario highlights.
     */
    bool metrics = false;

    /**
     * When a shard exhausts its attempt budget, re-run it once with
     * `--trace`/`--metrics` attached and freeze the evidence under
     * `forensics/<shard.id>/` (sweep/forensics.h). Trials are
     * seed-deterministic, so the re-run reproduces the failure.
     * `--no-forensics` opts out.
     */
    bool forensics = true;
};

/** What one `c4sweep run` invocation did. */
struct ExecStats
{
    int executed = 0;  ///< shards brought to done this invocation
    int skipped = 0;   ///< shards already done at load
    int failed = 0;    ///< shards parked as failed
    int remaining = 0; ///< shards still pending on exit
    int bundles = 0;   ///< failure bundles captured for parked shards
};

/**
 * Execute the campaign's pending shards.
 * @return "" on success (even with failed shards — see @p stats),
 *         otherwise an infrastructure error (missing manifest or
 *         bench binary); progress goes to @p diag.
 */
std::string runCampaign(const ExecRequest &request, ExecStats &stats,
                        std::ostream &diag);

/**
 * Start `bench --spec SPEC --csv - ARGS... [--smoke]` with stdout
 * truncated into @p csv and stderr into @p log (a retry starts clean).
 * The child exits 126 when it cannot open or redirect either file and
 * 127 when exec fails, so neither reads as the bench's own exit.
 * @return the child's pid, or -1 with @p error set.
 */
pid_t launchBench(const std::string &bench, const std::string &spec,
                  const std::vector<std::string> &args, bool smoke,
                  const std::string &csv, const std::string &log,
                  std::string &error);

/** A waitpid status as an exit code: the exit status, or 128 + the
 * signal that ended the child. */
int exitCodeOf(int status);

/** `<dir-of-this-executable>/c4bench` — the build-tree default. */
std::string siblingBenchPath();

} // namespace c4::sweep

#endif // C4_SWEEP_EXEC_H
