/**
 * @file
 * C4D's analysis layer: pure functions from drained ACCL telemetry to
 * findings, implementing Section III-A of the paper.
 *
 * - Communication-slow localization (Fig. 7): message delays between
 *   worker pairs form a matrix; a single hot cell is a slow connection,
 *   a hot row is a slow sender (Tx), a hot column a slow receiver (Rx).
 * - Non-communication-slow localization: the receiver-driven schedule
 *   means everyone waits for the straggler, so the rank with the
 *   *smallest* wait at the synchronization point is the culprit.
 * - Hang detection: an operation that was posted but never started is a
 *   non-communication hang (a rank never showed up); one that started
 *   but stopped making progress is a communication hang.
 */

#ifndef C4_C4D_ANALYZER_H
#define C4_C4D_ANALYZER_H

#include <cassert>
#include <string>
#include <vector>

#include "accl/monitor.h"
#include "common/types.h"

namespace c4::c4d {

/**
 * The part of a connection record the delay matrix reads: the rank pair
 * and the transfer time per byte. C4D's per-communicator window keeps
 * these 16 bytes instead of the 88-byte ConnRecord. A record the matrix
 * would skip (a rank outside the communicator, no bytes, or a
 * non-positive duration) still becomes a sample, with src == kInvalidId,
 * so the window holds one entry per record either way.
 */
struct DelaySample
{
    Rank src = kInvalidId; ///< kInvalidId: the record carries no sample
    Rank dst = kInvalidId;
    double secPerByte = 0.0;

    /** Seconds per byte of a transfer; the matrix sums exactly this. */
    static double
    delay(Bytes bytes, Duration duration)
    {
        return toSeconds(duration) / static_cast<double>(bytes);
    }

    /** The sample of @p r in a communicator of @p nranks ranks. */
    static DelaySample
    of(const accl::ConnRecord &r, int nranks)
    {
        const Duration d = r.duration();
        if (r.srcRank < 0 || r.srcRank >= nranks || r.dstRank < 0 ||
            r.dstRank >= nranks || r.bytes <= 0 || d <= 0) {
            return {};
        }
        return {r.srcRank, r.dstRank, delay(r.bytes, d)};
    }
};

/**
 * Normalized pairwise delay matrix: mean transfer time per byte between
 * (srcRank, dstRank) pairs that exchanged messages in the window.
 */
class DelayMatrix
{
  public:
    explicit DelayMatrix(int nranks);

    /** Empty the matrix and resize it to @p nranks, reusing storage. */
    void reset(int nranks);

    /** Accumulate one message observation. */
    void add(Rank src, Rank dst, Bytes bytes, Duration duration);

    /** Accumulate one sample (ignored when it carries none). */
    void
    add(const DelaySample &s)
    {
        if (s.src == kInvalidId)
            return;
        assert(s.src < n_ && s.dst >= 0 && s.dst < n_);
        sumDelay_[idx(s.src, s.dst)] += s.secPerByte;
        ++count_[idx(s.src, s.dst)];
    }

    /** Accumulate one connection record (ignored when a rank is out of
     * range). */
    void add(const accl::ConnRecord &r) { add(DelaySample::of(r, n_)); }

    /** Build directly from a batch of connection records. */
    static DelayMatrix build(int nranks,
                             const std::vector<accl::ConnRecord> &records);

    int size() const { return n_; }

    /** Mean seconds-per-byte for the pair; <0 when no samples. */
    double at(Rank src, Rank dst) const;

    /** Number of message samples for the pair. */
    int samples(Rank src, Rank dst) const;

    /** Median of all present cells; <0 when the matrix is empty. */
    double medianDelay() const;

    /** medianDelay() using @p cells as its sort buffer. */
    double medianDelay(std::vector<double> &cells) const;

    /** Multi-line rendering (row = source, column = destination). */
    std::string str() const;

  private:
    int n_;
    std::vector<double> sumDelay_; // seconds-per-byte sums
    std::vector<int> count_;

    std::size_t
    idx(Rank src, Rank dst) const
    {
        return static_cast<std::size_t>(src) * n_ +
               static_cast<std::size_t>(dst);
    }
};

/** What a communication-slow analysis concluded. */
enum class CommSlowKind {
    None,       ///< nothing abnormal
    Connection, ///< one src->dst path is slow (congested link)
    SourceTx,   ///< a whole row is slow: sender-side (NIC Tx) issue
    DestRx,     ///< a whole column is slow: receiver-side (NIC Rx) issue
};

const char *commSlowKindName(CommSlowKind kind);

struct CommSlowFinding
{
    CommSlowKind kind = CommSlowKind::None;
    Rank src = kInvalidId; ///< Connection / SourceTx
    Rank dst = kInvalidId; ///< Connection / DestRx
    double ratio = 0.0;    ///< outlier delay / matrix median

    bool found() const { return kind != CommSlowKind::None; }
    std::string str() const;
};

/** A delay-matrix cell counts as an outlier above this x matrix median. */
inline constexpr double kSlowRatio = 2.0;

/**
 * Fraction of a row/column that must be outlying to blame the endpoint
 * rather than a single connection.
 */
inline constexpr double kRowColumnFraction = 0.6;

/**
 * Fraction of operations in the window where the suspected straggler
 * must be the minimum-wait rank. A *persistent* straggler is the minimum
 * nearly every time; rotating skew (e.g. MoE expert load imbalance, paper
 * Section V) shifts the minimum around, so a consistency floor suppresses
 * those false positives — the paper's planned "incorporate load variation
 * into C4D" refinement.
 */
inline constexpr double kStragglerConsistency = 0.6;

/** Tunables of the slow analyses. */
struct AnalyzerConfig
{
    /** Minimum samples per cell before it is judged. */
    int minSamplesPerCell = 2;

    /** Ignore wait patterns whose median is below this (normal jitter). */
    Duration minWaitForSlow = milliseconds(100);

    /** Straggler must beat the median wait by this factor. */
    double waitRatio = 4.0;
};

/** Buffers analyzeCommSlow reuses when a long-lived caller (the C4D
 * master) passes the same scratch on every evaluation. */
struct CommSlowScratch
{
    struct Cell
    {
        Rank src, dst;
        double ratio;
    };
    std::vector<double> cells;
    std::vector<Cell> outliers;
    std::vector<int> rowPresent, rowOut, colPresent, colOut;
};

/**
 * Localize communication slowness from a delay matrix (paper Fig. 7).
 */
CommSlowFinding analyzeCommSlow(const DelayMatrix &matrix,
                                const AnalyzerConfig &cfg = {});

/** analyzeCommSlow() allocating nothing once @p scratch has grown. */
CommSlowFinding analyzeCommSlow(const DelayMatrix &matrix,
                                const AnalyzerConfig &cfg,
                                CommSlowScratch &scratch);

struct NonCommSlowFinding
{
    bool found = false;
    Rank rank = kInvalidId; ///< the straggler
    Duration medianWait = 0;
    Duration stragglerWait = 0;

    std::string str() const;
};

/**
 * Localize a non-communication straggler from receiver wait times: in a
 * receiver-driven collective, the rank everybody waited for shows a
 * near-zero wait while its peers' waits are large.
 *
 * @param nranks communicator size
 * @param waits wait records over the analysis window (>= 1 op)
 */
NonCommSlowFinding
analyzeNonCommSlow(int nranks,
                   const std::vector<accl::RankWaitRecord> &waits,
                   const AnalyzerConfig &cfg = {});

/**
 * analyzeNonCommSlow() as a scan: reset(), add() the window's records
 * oldest first, then judge(). The buffers survive reset(), so a scan
 * kept by a long-lived caller allocates nothing in steady state.
 *
 * The per-operation minimum is taken over runs of equal-seq records
 * (one run per op in a communicator's window); runs are merged by seq
 * before judging, so any record order gives what a per-seq map would.
 */
class WaitScan
{
  public:
    void reset(int nranks);
    void add(const accl::RankWaitRecord &w);
    NonCommSlowFinding judge(const AnalyzerConfig &cfg);

  private:
    /** Minimum-wait record of one run of equal-seq records. */
    struct OpMin
    {
        accl::CollSeq seq = 0;
        std::size_t run = 0; ///< window order, for the merge
        Rank rank = kInvalidId;
        Duration wait = 0;
    };

    int nranks_ = 0;
    bool any_ = false; ///< any record at all (even out of range)
    std::vector<double> sum_;
    std::vector<int> count_;
    std::vector<OpMin> runs_;
    std::vector<double> means_;
    std::vector<double> sorted_;
};

/** Hang classification of one communicator's current operation. */
enum class HangKind {
    None,
    NonCommHang, ///< posted, never started: a rank never arrived
    CommHang,    ///< started, progress stopped mid-operation
};

const char *hangKindName(HangKind kind);

struct HangFinding
{
    HangKind kind = HangKind::None;
    accl::CollSeq seq = 0;
    /** Ranks whose progress is stalest (suspected culprits). */
    std::vector<Rank> suspects;

    bool found() const { return kind != HangKind::None; }
};

/**
 * Detect and classify a hang from operation progress plus per-rank
 * heartbeat times.
 *
 * @param op progress of the communicator's current operation
 * @param lastHeartbeat per-rank last progress time (kTimeNever = never)
 * @param now current time
 * @param threshold silence longer than this is a hang
 */
HangFinding analyzeHang(const accl::OpProgress &op,
                        const std::vector<Time> &lastHeartbeat, Time now,
                        Duration threshold);

} // namespace c4::c4d

#endif // C4_C4D_ANALYZER_H
