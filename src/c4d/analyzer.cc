#include "c4d/analyzer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace c4::c4d {

DelayMatrix::DelayMatrix(int nranks)
    : n_(nranks),
      sumDelay_(static_cast<std::size_t>(nranks) * nranks, 0.0),
      count_(static_cast<std::size_t>(nranks) * nranks, 0)
{
    assert(nranks >= 1);
}

void
DelayMatrix::reset(int nranks)
{
    assert(nranks >= 1);
    n_ = nranks;
    const auto cells = static_cast<std::size_t>(nranks) * nranks;
    sumDelay_.assign(cells, 0.0);
    count_.assign(cells, 0);
}

void
DelayMatrix::add(Rank src, Rank dst, Bytes bytes, Duration duration)
{
    assert(src >= 0 && src < n_ && dst >= 0 && dst < n_);
    if (bytes <= 0 || duration <= 0)
        return;
    add(DelaySample{src, dst, DelaySample::delay(bytes, duration)});
}

DelayMatrix
DelayMatrix::build(int nranks,
                   const std::vector<accl::ConnRecord> &records)
{
    DelayMatrix m(nranks);
    for (const auto &r : records)
        m.add(r);
    return m;
}

double
DelayMatrix::at(Rank src, Rank dst) const
{
    const std::size_t i = idx(src, dst);
    return count_[i] > 0 ? sumDelay_[i] / count_[i] : -1.0;
}

int
DelayMatrix::samples(Rank src, Rank dst) const
{
    return count_[idx(src, dst)];
}

double
DelayMatrix::medianDelay() const
{
    std::vector<double> cells;
    return medianDelay(cells);
}

double
DelayMatrix::medianDelay(std::vector<double> &cells) const
{
    cells.clear();
    for (Rank s = 0; s < n_; ++s) {
        for (Rank d = 0; d < n_; ++d) {
            const double v = at(s, d);
            if (v >= 0.0)
                cells.push_back(v);
        }
    }
    if (cells.empty())
        return -1.0;
    std::sort(cells.begin(), cells.end());
    return cells[cells.size() / 2];
}

std::string
DelayMatrix::str() const
{
    std::ostringstream os;
    char buf[32];
    for (Rank s = 0; s < n_; ++s) {
        for (Rank d = 0; d < n_; ++d) {
            const double v = at(s, d);
            if (v < 0.0)
                os << "      .  ";
            else {
                std::snprintf(buf, sizeof(buf), "%8.2e ", v);
                os << buf;
            }
        }
        os << '\n';
    }
    return os.str();
}

const char *
commSlowKindName(CommSlowKind kind)
{
    switch (kind) {
      case CommSlowKind::None:       return "none";
      case CommSlowKind::Connection: return "connection-slow";
      case CommSlowKind::SourceTx:   return "source-tx-slow";
      case CommSlowKind::DestRx:     return "dest-rx-slow";
    }
    return "?";
}

std::string
CommSlowFinding::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s src=%d dst=%d ratio=%.2f",
                  commSlowKindName(kind), src, dst, ratio);
    return buf;
}

CommSlowFinding
analyzeCommSlow(const DelayMatrix &matrix, const AnalyzerConfig &cfg)
{
    CommSlowScratch scratch;
    return analyzeCommSlow(matrix, cfg, scratch);
}

CommSlowFinding
analyzeCommSlow(const DelayMatrix &matrix, const AnalyzerConfig &cfg,
                CommSlowScratch &scratch)
{
    using Cell = CommSlowScratch::Cell;
    CommSlowFinding finding;
    const double median = matrix.medianDelay(scratch.cells);
    if (median <= 0.0)
        return finding;
    const int n = matrix.size();
    const double cutoff = median * kSlowRatio;

    // Collect outlier cells.
    std::vector<Cell> &outliers = scratch.outliers;
    outliers.clear();
    std::vector<int> &row_present = scratch.rowPresent;
    std::vector<int> &row_out = scratch.rowOut;
    std::vector<int> &col_present = scratch.colPresent;
    std::vector<int> &col_out = scratch.colOut;
    for (std::vector<int> *v : {&row_present, &row_out, &col_present,
                                &col_out})
        v->assign(static_cast<std::size_t>(n), 0);

    for (Rank s = 0; s < n; ++s) {
        for (Rank d = 0; d < n; ++d) {
            if (matrix.samples(s, d) < cfg.minSamplesPerCell)
                continue;
            const double v = matrix.at(s, d);
            ++row_present[static_cast<std::size_t>(s)];
            ++col_present[static_cast<std::size_t>(d)];
            if (v > cutoff) {
                outliers.push_back({s, d, v / median});
                ++row_out[static_cast<std::size_t>(s)];
                ++col_out[static_cast<std::size_t>(d)];
            }
        }
    }
    if (outliers.empty())
        return finding;

    // A mostly-outlying row blames the source; a column the destination.
    for (Rank s = 0; s < n; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (row_present[si] >= 2 &&
            static_cast<double>(row_out[si]) >=
                kRowColumnFraction * row_present[si]) {
            finding.kind = CommSlowKind::SourceTx;
            finding.src = s;
            double worst = 0.0;
            for (const auto &c : outliers) {
                if (c.src == s)
                    worst = std::max(worst, c.ratio);
            }
            finding.ratio = worst;
            return finding;
        }
    }
    for (Rank d = 0; d < n; ++d) {
        const auto di = static_cast<std::size_t>(d);
        if (col_present[di] >= 2 &&
            static_cast<double>(col_out[di]) >=
                kRowColumnFraction * col_present[di]) {
            finding.kind = CommSlowKind::DestRx;
            finding.dst = d;
            double worst = 0.0;
            for (const auto &c : outliers) {
                if (c.dst == d)
                    worst = std::max(worst, c.ratio);
            }
            finding.ratio = worst;
            return finding;
        }
    }

    const auto worst = std::max_element(
        outliers.begin(), outliers.end(),
        [](const Cell &a, const Cell &b) { return a.ratio < b.ratio; });
    finding.kind = CommSlowKind::Connection;
    finding.src = worst->src;
    finding.dst = worst->dst;
    finding.ratio = worst->ratio;
    return finding;
}

std::string
NonCommSlowFinding::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "straggler rank=%d medianWait=%s stragglerWait=%s",
                  rank, formatDuration(medianWait).c_str(),
                  formatDuration(stragglerWait).c_str());
    return buf;
}

NonCommSlowFinding
analyzeNonCommSlow(int nranks,
                   const std::vector<accl::RankWaitRecord> &waits,
                   const AnalyzerConfig &cfg)
{
    WaitScan scan;
    scan.reset(nranks);
    for (const auto &w : waits)
        scan.add(w);
    return scan.judge(cfg);
}

void
WaitScan::reset(int nranks)
{
    nranks_ = nranks;
    any_ = false;
    const auto n = static_cast<std::size_t>(std::max(0, nranks));
    sum_.assign(n, 0.0);
    count_.assign(n, 0);
    runs_.clear();
}

void
WaitScan::add(const accl::RankWaitRecord &w)
{
    any_ = true;
    if (w.rank < 0 || w.rank >= nranks_)
        return;
    sum_[static_cast<std::size_t>(w.rank)] +=
        static_cast<double>(w.recvWait);
    ++count_[static_cast<std::size_t>(w.rank)];
    // Per-operation minimum-wait rank, for the consistency test; the
    // first record with the minimum wins ties.
    if (!runs_.empty() && runs_.back().seq == w.seq) {
        if (w.recvWait < runs_.back().wait) {
            runs_.back().rank = w.rank;
            runs_.back().wait = w.recvWait;
        }
        return;
    }
    runs_.push_back({w.seq, runs_.size(), w.rank, w.recvWait});
}

NonCommSlowFinding
WaitScan::judge(const AnalyzerConfig &cfg)
{
    NonCommSlowFinding finding;
    if (nranks_ < 2 || !any_)
        return finding;

    means_.clear();
    for (int r = 0; r < nranks_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (count_[ri] == 0)
            return finding; // need full coverage to judge
        means_.push_back(sum_[ri] / count_[ri]);
    }

    sorted_.assign(means_.begin(), means_.end());
    std::sort(sorted_.begin(), sorted_.end());
    const double median = sorted_[sorted_.size() / 2];
    if (median < static_cast<double>(cfg.minWaitForSlow))
        return finding; // waits are just noise

    const auto min_it = std::min_element(means_.begin(), means_.end());
    const double straggler_wait = *min_it;
    if (straggler_wait * cfg.waitRatio > median)
        return finding; // no rank stands out

    // Consistency: a real straggler is the per-op minimum nearly every
    // time; rotating load skew moves the minimum around the group.
    const auto candidate =
        static_cast<Rank>(std::distance(means_.begin(), min_it));
    if (!runs_.empty()) {
        // Merge the runs of each seq in window order: a later run's
        // minimum replaces an earlier one only when strictly smaller.
        std::sort(runs_.begin(), runs_.end(),
                  [](const OpMin &a, const OpMin &b) {
                      return a.seq != b.seq ? a.seq < b.seq
                                            : a.run < b.run;
                  });
        int hits = 0;
        int ops = 0;
        for (std::size_t i = 0; i < runs_.size();) {
            OpMin best = runs_[i];
            for (++i; i < runs_.size() && runs_[i].seq == best.seq; ++i) {
                if (runs_[i].wait < best.wait)
                    best = runs_[i];
            }
            ++ops;
            hits += best.rank == candidate ? 1 : 0;
        }
        const double consistency =
            static_cast<double>(hits) / static_cast<double>(ops);
        if (consistency < kStragglerConsistency)
            return finding; // transient imbalance, not a straggler
    }

    finding.found = true;
    finding.rank = candidate;
    finding.medianWait = static_cast<Duration>(median);
    finding.stragglerWait = static_cast<Duration>(straggler_wait);
    return finding;
}

const char *
hangKindName(HangKind kind)
{
    switch (kind) {
      case HangKind::None:        return "none";
      case HangKind::NonCommHang: return "non-comm-hang";
      case HangKind::CommHang:    return "comm-hang";
    }
    return "?";
}

HangFinding
analyzeHang(const accl::OpProgress &op,
            const std::vector<Time> &lastHeartbeat, Time now,
            Duration threshold)
{
    HangFinding finding;
    finding.seq = op.seq;
    if (!op.posted() || op.finished())
        return finding;

    if (!op.started()) {
        // Someone never showed up at the synchronization point.
        if (now - op.postTime < threshold)
            return finding;
        finding.kind = HangKind::NonCommHang;
    } else {
        // Started: judge by progress silence across the group.
        Time newest = 0;
        for (Time t : lastHeartbeat) {
            if (t != kTimeNever)
                newest = std::max(newest, t);
        }
        if (now - std::max(newest, op.startTime) < threshold)
            return finding;
        finding.kind = HangKind::CommHang;
    }

    // Suspects: the ranks with the stalest progress (never beats any
    // timestamp; ties within a small epsilon are all suspects).
    Time oldest = kTimeNever;
    bool has_never = false;
    for (Time t : lastHeartbeat) {
        if (t == kTimeNever)
            has_never = true;
        else
            oldest = std::min(oldest == kTimeNever ? t : oldest, t);
    }
    const Duration eps = microseconds(1);
    for (std::size_t r = 0; r < lastHeartbeat.size(); ++r) {
        const Time t = lastHeartbeat[r];
        if (has_never ? t == kTimeNever
                      : (oldest != kTimeNever && t <= oldest + eps)) {
            finding.suspects.push_back(static_cast<Rank>(r));
        }
    }
    return finding;
}

} // namespace c4::c4d
