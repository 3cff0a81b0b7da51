/**
 * @file
 * Unit tests for the C4D analyzer (delay matrix, wait chain, hang
 * classification) on synthetic telemetry, including the three Fig. 7
 * patterns: single hot cell, hot row (Tx), hot column (Rx).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>

#include "c4d/analyzer.h"

namespace c4::c4d {
namespace {

using accl::ConnRecord;
using accl::OpProgress;
using accl::RankWaitRecord;

/** Ring telemetry: rank i -> i+1, `per_byte` seconds per byte. */
std::vector<ConnRecord>
ringRecords(int n, double per_byte,
            const std::function<double(Rank, Rank)> &scale)
{
    std::vector<ConnRecord> records;
    for (int repeat = 0; repeat < 4; ++repeat) {
        for (Rank s = 0; s < n; ++s) {
            const Rank d = static_cast<Rank>((s + 1) % n);
            ConnRecord r;
            r.comm = 1;
            r.srcRank = s;
            r.dstRank = d;
            r.bytes = mib(8);
            r.startTime = seconds(repeat);
            r.endTime =
                r.startTime +
                static_cast<Duration>(per_byte * scale(s, d) *
                                      static_cast<double>(r.bytes) * 1e9);
            records.push_back(r);
        }
    }
    return records;
}

constexpr double kPerByte = 4e-11; // ~200 Gbps in seconds/byte

TEST(DelayMatrix, BuildAndQuery)
{
    const auto records =
        ringRecords(8, kPerByte, [](Rank, Rank) { return 1.0; });
    const DelayMatrix m = DelayMatrix::build(8, records);
    EXPECT_EQ(m.size(), 8);
    EXPECT_NEAR(m.at(0, 1), kPerByte, kPerByte * 0.01);
    EXPECT_LT(m.at(0, 2), 0.0); // no samples off the ring
    EXPECT_EQ(m.samples(0, 1), 4);
    EXPECT_GT(m.medianDelay(), 0.0);
    EXPECT_FALSE(m.str().empty());
}

TEST(DelayMatrix, IgnoresDegenerateRecords)
{
    DelayMatrix m(4);
    m.add(0, 1, 0, seconds(1));   // zero bytes
    m.add(0, 1, mib(1), 0);       // zero duration
    EXPECT_EQ(m.samples(0, 1), 0);
    EXPECT_LT(m.medianDelay(), 0.0);
}

TEST(AnalyzeCommSlow, CleanMatrixIsQuiet)
{
    const auto records =
        ringRecords(8, kPerByte, [](Rank, Rank) { return 1.0; });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    EXPECT_FALSE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::None);
}

TEST(AnalyzeCommSlow, SingleHotCellIsConnection)
{
    // Paper Fig. 7 left: one congested link between ranks 3 and 4.
    const auto records = ringRecords(8, kPerByte, [](Rank s, Rank d) {
        return (s == 3 && d == 4) ? 5.0 : 1.0;
    });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::Connection);
    EXPECT_EQ(finding.src, 3);
    EXPECT_EQ(finding.dst, 4);
    EXPECT_NEAR(finding.ratio, 5.0, 0.5);
}

TEST(AnalyzeCommSlow, HotRowIsSourceTx)
{
    // Fig. 7 middle: rank 3's NIC Tx is congested — everything rank 3
    // sends is slow. Give rank 3 two outgoing connections so the row
    // has >= 2 cells (ring + an extra alltoall-ish link).
    auto records = ringRecords(8, kPerByte, [](Rank s, Rank) {
        return s == 3 ? 4.0 : 1.0;
    });
    ConnRecord extra;
    extra.comm = 1;
    extra.srcRank = 3;
    extra.dstRank = 6;
    extra.bytes = mib(8);
    extra.startTime = 0;
    extra.endTime = static_cast<Duration>(
        kPerByte * 4.0 * static_cast<double>(extra.bytes) * 1e9);
    records.push_back(extra);
    records.push_back(extra);

    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::SourceTx);
    EXPECT_EQ(finding.src, 3);
}

TEST(AnalyzeCommSlow, HotColumnIsDestRx)
{
    // Fig. 7 right: rank 4's NIC Rx is congested.
    auto records = ringRecords(8, kPerByte, [](Rank, Rank d) {
        return d == 4 ? 4.0 : 1.0;
    });
    ConnRecord extra;
    extra.comm = 1;
    extra.srcRank = 1;
    extra.dstRank = 4;
    extra.bytes = mib(8);
    extra.startTime = 0;
    extra.endTime = static_cast<Duration>(
        kPerByte * 4.0 * static_cast<double>(extra.bytes) * 1e9);
    records.push_back(extra);
    records.push_back(extra);

    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::DestRx);
    EXPECT_EQ(finding.dst, 4);
}

TEST(AnalyzeCommSlow, RespectsMinSamples)
{
    AnalyzerConfig cfg;
    cfg.minSamplesPerCell = 10; // our cells only have 4-6 samples
    const auto records = ringRecords(8, kPerByte, [](Rank s, Rank d) {
        return (s == 3 && d == 4) ? 5.0 : 1.0;
    });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records), cfg);
    EXPECT_FALSE(finding.found());
}

std::vector<RankWaitRecord>
waits(int n, const std::function<Duration(Rank)> &wait_of, int ops = 3)
{
    std::vector<RankWaitRecord> out;
    for (int op = 0; op < ops; ++op) {
        for (Rank r = 0; r < n; ++r) {
            RankWaitRecord w;
            w.comm = 1;
            w.seq = static_cast<accl::CollSeq>(op);
            w.rank = r;
            w.recvWait = wait_of(r);
            out.push_back(w);
        }
    }
    return out;
}

TEST(AnalyzeNonCommSlow, FindsTheStraggler)
{
    // Everybody waits ~800 ms for rank 5; rank 5 waits ~nothing.
    const auto records = waits(8, [](Rank r) {
        return r == 5 ? milliseconds(2) : milliseconds(800);
    });
    const auto finding = analyzeNonCommSlow(8, records);
    ASSERT_TRUE(finding.found);
    EXPECT_EQ(finding.rank, 5);
    EXPECT_GT(finding.medianWait, milliseconds(500));
    EXPECT_LT(finding.stragglerWait, milliseconds(10));
}

TEST(AnalyzeNonCommSlow, QuietWhenWaitsAreSmall)
{
    const auto records = waits(8, [](Rank r) {
        return r == 5 ? microseconds(10) : milliseconds(5);
    });
    // Median 5 ms < minWaitForSlow 100 ms: normal jitter.
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

TEST(AnalyzeNonCommSlow, QuietWhenNoRankStandsOut)
{
    const auto records =
        waits(8, [](Rank) { return milliseconds(500); });
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

TEST(AnalyzeNonCommSlow, NeedsFullCoverage)
{
    auto records = waits(8, [](Rank r) {
        return r == 5 ? milliseconds(1) : milliseconds(800);
    });
    // Remove every record of rank 7: cannot judge.
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [](const RankWaitRecord &w) {
                                     return w.rank == 7;
                                 }),
                  records.end());
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

/**
 * The straggler analysis as it was written before the scan: a per-call
 * std::map from seq to that op's first minimum-wait record. Kept as the
 * reference the allocation-free WaitScan must agree with exactly.
 */
NonCommSlowFinding
referenceNonCommSlow(int nranks, const std::vector<RankWaitRecord> &waits,
                     const AnalyzerConfig &cfg)
{
    NonCommSlowFinding finding;
    if (nranks < 2 || waits.empty())
        return finding;
    std::vector<double> sum(static_cast<std::size_t>(nranks), 0.0);
    std::vector<int> count(static_cast<std::size_t>(nranks), 0);
    std::map<accl::CollSeq, std::pair<Rank, Duration>> op_min;
    for (const auto &w : waits) {
        if (w.rank >= 0 && w.rank < nranks) {
            sum[static_cast<std::size_t>(w.rank)] +=
                static_cast<double>(w.recvWait);
            ++count[static_cast<std::size_t>(w.rank)];
            auto it = op_min.find(w.seq);
            if (it == op_min.end() || w.recvWait < it->second.second)
                op_min[w.seq] = {w.rank, w.recvWait};
        }
    }
    std::vector<double> means;
    for (int r = 0; r < nranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (count[ri] == 0)
            return finding;
        means.push_back(sum[ri] / count[ri]);
    }
    std::vector<double> sorted = means;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median < static_cast<double>(cfg.minWaitForSlow))
        return finding;
    const auto min_it = std::min_element(means.begin(), means.end());
    const double straggler_wait = *min_it;
    if (straggler_wait * cfg.waitRatio > median)
        return finding;
    const auto candidate =
        static_cast<Rank>(std::distance(means.begin(), min_it));
    if (!op_min.empty()) {
        int hits = 0;
        for (const auto &[seq, entry] : op_min)
            hits += entry.first == candidate ? 1 : 0;
        if (static_cast<double>(hits) /
                static_cast<double>(op_min.size()) <
            cfg.stragglerConsistency)
            return finding;
    }
    finding.found = true;
    finding.rank = candidate;
    finding.medianWait = static_cast<Duration>(median);
    finding.stragglerWait = static_cast<Duration>(straggler_wait);
    return finding;
}

/**
 * A communicator's wait window: ops with ascending (gapped) seqs, one
 * record per rank in rank order with some ranks missing, waits from a
 * coarse grid (so ties are common) with a usual straggler, an
 * occasional out-of-range rank, and the front cut at a random record as
 * the master's bounded window does.
 */
std::vector<RankWaitRecord>
randomWindow(std::mt19937_64 &rng, int nranks)
{
    auto uniform = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int ops = uniform(1, 24);
    const Rank straggler = static_cast<Rank>(uniform(0, nranks - 1));
    std::vector<RankWaitRecord> out;
    accl::CollSeq seq = static_cast<accl::CollSeq>(uniform(1, 5));
    for (int op = 0; op < ops; ++op) {
        seq += static_cast<accl::CollSeq>(uniform(1, 3));
        for (Rank r = 0; r < nranks; ++r) {
            if (uniform(0, 19) == 0)
                continue; // missing rank
            RankWaitRecord w;
            w.comm = 1;
            w.seq = seq;
            w.rank = r;
            const bool lagging = r == straggler && uniform(0, 9) < 8;
            w.recvWait = lagging ? milliseconds(uniform(0, 1) * 50)
                                 : milliseconds(uniform(0, 6) * 150);
            out.push_back(w);
        }
        if (uniform(0, 29) == 0) {
            RankWaitRecord bad;
            bad.seq = seq;
            bad.rank = uniform(0, 1) ? -1 : static_cast<Rank>(nranks);
            out.push_back(bad);
        }
    }
    const auto cut = static_cast<std::ptrdiff_t>(
        uniform(0, static_cast<int>(out.size()) / 3));
    out.erase(out.begin(), out.begin() + cut);
    return out;
}

void
expectSameFinding(const NonCommSlowFinding &got,
                  const NonCommSlowFinding &want)
{
    EXPECT_EQ(got.found, want.found);
    EXPECT_EQ(got.rank, want.rank);
    EXPECT_EQ(got.medianWait, want.medianWait);
    EXPECT_EQ(got.stragglerWait, want.stragglerWait);
}

TEST(AnalyzeNonCommSlow, ScanMatchesMapReferenceOnRandomWindows)
{
    AnalyzerConfig cfg;
    cfg.minWaitForSlow = milliseconds(50);
    cfg.waitRatio = 3.0;
    WaitScan reused; // one scan across every window, as the master keeps
    int found = 0;
    int windows = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::mt19937_64 rng(seed);
        for (int i = 0; i < 400; ++i) {
            const int nranks = std::uniform_int_distribution<int>(1, 9)(rng);
            std::vector<RankWaitRecord> window = randomWindow(rng, nranks);
            if (i % 4 == 3) {
                // Interleaved ops (not produced by one communicator):
                // runs of one seq merge as a per-seq map would.
                std::shuffle(window.begin(), window.end(), rng);
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " window " +
                         std::to_string(i));
            const NonCommSlowFinding want =
                referenceNonCommSlow(nranks, window, cfg);
            expectSameFinding(analyzeNonCommSlow(nranks, window, cfg),
                              want);
            reused.reset(nranks);
            for (const RankWaitRecord &w : window)
                reused.add(w);
            expectSameFinding(reused.judge(cfg), want);
            found += want.found ? 1 : 0;
            ++windows;
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(found, windows / 10);
    EXPECT_LT(found, windows * 9 / 10);
}

OpProgress
makeOp(Time posted, Time started, Time finished)
{
    OpProgress op;
    op.comm = 1;
    op.seq = 9;
    op.postTime = posted;
    op.startTime = started;
    op.endTime = finished;
    return op;
}

TEST(AnalyzeHang, FinishedOpIsHealthy)
{
    const auto op = makeOp(seconds(1), seconds(2), seconds(3));
    const auto f =
        analyzeHang(op, {seconds(3), seconds(3)}, minutes(10),
                    seconds(30));
    EXPECT_FALSE(f.found());
}

TEST(AnalyzeHang, PostedNeverStartedIsNonCommHang)
{
    const auto op = makeOp(seconds(1), kTimeNever, kTimeNever);
    // Rank 2 never heartbeat; others did at post time.
    std::vector<Time> hb = {seconds(1), seconds(1), kTimeNever,
                            seconds(1)};
    const auto f = analyzeHang(op, hb, minutes(5), seconds(30));
    ASSERT_TRUE(f.found());
    EXPECT_EQ(f.kind, HangKind::NonCommHang);
    ASSERT_EQ(f.suspects.size(), 1u);
    EXPECT_EQ(f.suspects[0], 2);
}

TEST(AnalyzeHang, StartedThenSilentIsCommHang)
{
    const auto op = makeOp(seconds(1), seconds(2), kTimeNever);
    // Rank 1 stalled first (oldest heartbeat).
    std::vector<Time> hb = {seconds(10), seconds(8), seconds(10),
                            seconds(10)};
    const auto f = analyzeHang(op, hb, minutes(5), seconds(30));
    ASSERT_TRUE(f.found());
    EXPECT_EQ(f.kind, HangKind::CommHang);
    ASSERT_EQ(f.suspects.size(), 1u);
    EXPECT_EQ(f.suspects[0], 1);
}

TEST(AnalyzeHang, RespectsThreshold)
{
    const auto op = makeOp(seconds(1), seconds(2), kTimeNever);
    std::vector<Time> hb = {seconds(10), seconds(10)};
    EXPECT_FALSE(
        analyzeHang(op, hb, seconds(15), seconds(30)).found());
    EXPECT_TRUE(
        analyzeHang(op, hb, seconds(50), seconds(30)).found());
}

TEST(AnalyzeHang, UnpostedOpIsQuiet)
{
    OpProgress op;
    EXPECT_FALSE(
        analyzeHang(op, {seconds(1)}, minutes(10), seconds(30))
            .found());
}

TEST(Names, AllEnumNamesRender)
{
    EXPECT_STREQ(commSlowKindName(CommSlowKind::SourceTx),
                 "source-tx-slow");
    EXPECT_STREQ(hangKindName(HangKind::CommHang), "comm-hang");
    CommSlowFinding f;
    f.kind = CommSlowKind::Connection;
    f.src = 3;
    f.dst = 4;
    EXPECT_NE(f.str().find("connection-slow"), std::string::npos);
    NonCommSlowFinding n;
    n.rank = 5;
    EXPECT_NE(n.str().find("rank=5"), std::string::npos);
}

} // namespace
} // namespace c4::c4d
