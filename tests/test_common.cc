/**
 * @file
 * Unit tests for src/common: typed units, RNG, statistics, CSV, tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "common/csv.h"
#include "common/log.h"
#include "common/random.h"
#include "common/ring.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace c4 {
namespace {

TEST(Types, DurationConstructors)
{
    EXPECT_EQ(seconds(1), 1'000'000'000);
    EXPECT_EQ(milliseconds(1.5), 1'500'000);
    EXPECT_EQ(microseconds(2), 2'000);
    EXPECT_EQ(minutes(1), seconds(60));
    EXPECT_EQ(hours(2), minutes(120));
    EXPECT_EQ(days(1), hours(24));
}

TEST(Types, DurationConverters)
{
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2.5)), 2.5);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(10)), 10.0);
    EXPECT_DOUBLE_EQ(toHours(hours(3)), 3.0);
}

TEST(Types, BandwidthAndBytes)
{
    EXPECT_DOUBLE_EQ(gbps(200), 200e9);
    EXPECT_DOUBLE_EQ(toGbps(gbps(362)), 362.0);
    EXPECT_EQ(kib(1), 1024);
    EXPECT_EQ(mib(1), 1024 * 1024);
    EXPECT_EQ(gib(1), 1024ll * 1024 * 1024);
}

TEST(Types, TransferTime)
{
    // 1 GiB at 8 Gbps = 1.073741824 seconds.
    const Duration t = transferTime(gib(1), gbps(8));
    EXPECT_NEAR(toSeconds(t), 1.073741824, 1e-6);
    EXPECT_EQ(transferTime(mib(1), 0.0), kTimeNever);
}

TEST(Types, Formatters)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_NE(formatBytes(mib(3)).find("MiB"), std::string::npos);
    EXPECT_NE(formatBandwidth(gbps(1.5)).find("Gbps"), std::string::npos);
    EXPECT_NE(formatDuration(seconds(2)).find("s"), std::string::npos);
    EXPECT_EQ(formatDuration(kTimeNever), "never");
}

TEST(Rng, Determinism)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(5.0, 6.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 6.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 7);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 7);
        saw_lo |= v == 0;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, PoissonMean)
{
    Rng rng(17);
    double small_sum = 0.0, large_sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        small_sum += static_cast<double>(rng.poisson(2.5));
        large_sum += static_cast<double>(rng.poisson(100.0));
    }
    EXPECT_NEAR(small_sum / n, 2.5, 0.1);
    EXPECT_NEAR(large_sum / n, 100.0, 1.0);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(19);
    std::vector<double> v;
    for (int i = 0; i < 10001; ++i)
        v.push_back(rng.lognormal(5.0, 1.0));
    std::sort(v.begin(), v.end());
    EXPECT_NEAR(v[v.size() / 2], 5.0, 0.3);
}

TEST(Rng, WeightedIndex)
{
    Rng rng(23);
    std::vector<double> weights = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 10000; ++i) {
        const auto idx = rng.weightedIndex(weights);
        ASSERT_GE(idx, 1);
        ASSERT_LE(idx, 2);
        ++counts[idx];
    }
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
    EXPECT_EQ(rng.weightedIndex({0.0, 0.0}), kInvalidId);
}

TEST(Rng, ChanceEdges)
{
    Rng rng(29);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkIndependence)
{
    Rng a(31);
    Rng b = a.fork();
    // Forked stream should not track the parent.
    EXPECT_NE(a(), b());
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Summary, Percentiles)
{
    Summary s;
    for (int i = 0; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(99), 99.0, 1e-9);
}

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeAndClear)
{
    Summary a, b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(Summary, UnsortedInsertStillSortsForPercentiles)
{
    Summary s;
    s.add(5.0);
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(42.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(5), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.bucketLo(5), 5.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(5), 6.0);
    EXPECT_FALSE(h.str().empty());
}

TEST(Ewma, ConvergesToConstant)
{
    Ewma e(0.5);
    EXPECT_TRUE(e.empty());
    for (int i = 0; i < 32; ++i)
        e.add(7.0);
    EXPECT_DOUBLE_EQ(e.value(), 7.0);
    e.reset();
    EXPECT_TRUE(e.empty());
}

TEST(Ewma, FirstSampleDominates)
{
    Ewma e(0.25);
    e.add(100.0);
    EXPECT_DOUBLE_EQ(e.value(), 100.0);
    e.add(0.0);
    EXPECT_DOUBLE_EQ(e.value(), 75.0);
}

TEST(Csv, RoundTrip)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.header({"a", "b", "c"});
    w.cell("plain").cell(1.5).cell(std::int64_t{-7});
    w.endRow();
    w.cell("with,comma").cell("with\"quote").cell("multi\nline");
    w.endRow();
    EXPECT_EQ(w.rowsWritten(), 3u);

    const auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(rows[1][0], "plain");
    EXPECT_EQ(rows[1][1], "1.5");
    EXPECT_EQ(rows[1][2], "-7");
    EXPECT_EQ(rows[2][0], "with,comma");
    EXPECT_EQ(rows[2][1], "with\"quote");
    EXPECT_EQ(rows[2][2], "multi\nline");
}

TEST(Csv, EmptyInput)
{
    EXPECT_TRUE(parseCsv("").empty());
}

TEST(Table, RendersAligned)
{
    AsciiTable t({"Task", "Gbps"});
    t.addRow({"Task1", AsciiTable::num(171.93)});
    t.addRule();
    t.addRow({"Task2", AsciiTable::num(360.57)});
    const std::string s = t.str("Fig. 10a");
    EXPECT_NE(s.find("Fig. 10a"), std::string::npos);
    EXPECT_NE(s.find("171.93"), std::string::npos);
    EXPECT_NE(s.find("360.57"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 3u); // includes the rule
}

TEST(Table, Helpers)
{
    EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::percent(0.3119), "31.19%");
    EXPECT_EQ(AsciiTable::integer(42), "42");
}


TEST(Log, SinkCapturesAboveLevel)
{
    std::vector<std::string> captured;
    setLogSink([&](LogLevel level, const std::string &tag,
                   const std::string &message) {
        captured.push_back(std::string(logLevelName(level)) + "|" + tag +
                           "|" + message);
    });
    setLogLevel(LogLevel::Info);

    logDebug("t", "dropped %d", 1);
    logInfo("t", "kept %d", 2);
    logError("t", "kept %s", "too");

    setLogSink(nullptr);
    setLogLevel(LogLevel::Warn); // restore defaults

    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0], "INFO|t|kept 2");
    EXPECT_EQ(captured[1], "ERROR|t|kept too");
}

TEST(Log, OffLevelSilencesEverything)
{
    int count = 0;
    setLogSink([&](LogLevel, const std::string &, const std::string &) {
        ++count;
    });
    setLogLevel(LogLevel::Off);
    logError("t", "nope");
    setLogSink(nullptr);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(count, 0);
}

TEST(Log, LevelNames)
{
    EXPECT_STREQ(logLevelName(LogLevel::Trace), "TRACE");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "WARN");
    EXPECT_STREQ(logLevelName(LogLevel::Off), "OFF");
}

TEST(RingWindow, KeepsTheNewestOldestFirst)
{
    RingWindow<int> ring(4);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()),
              (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(ring.push(3));
    EXPECT_FALSE(ring.push(4)); // full: drops 0
    EXPECT_FALSE(ring.push(5));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()),
              (std::vector<int>{2, 3, 4, 5}));
    EXPECT_EQ(ring[0], 2);
    EXPECT_EQ(ring[3], 5);

    std::vector<int> out{99};
    ring.drainTo(out);
    EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_TRUE(ring.empty());

    // Reuse after a wrap: order restarts from the first new push.
    for (int i = 10; i < 16; ++i)
        ring.push(i);
    EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()),
              (std::vector<int>{12, 13, 14, 15}));
    ring.clear();
    ring.push(7);
    EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()),
              (std::vector<int>{7}));
}

TEST(RingWindow, MatchesABoundedDequeAcrossBlocks)
{
    // Capacities spanning several (doubling, last one trimmed) blocks,
    // random pushes and clears: the window always reads as a deque
    // that drops its front past the capacity.
    Rng rng(11);
    for (std::size_t cap : {1u, 127u, 128u, 129u, 1000u, 5000u}) {
        RingWindow<int> ring(cap);
        std::deque<int> model;
        for (int i = 0; i < 20000; ++i) {
            if (rng.uniformInt(0, 999) == 0) {
                ring.clear();
                model.clear();
            }
            const bool kept = ring.push(i);
            model.push_back(i);
            EXPECT_EQ(kept, model.size() <= cap);
            if (model.size() > cap)
                model.pop_front();
            if (i % 97 == 0) {
                ASSERT_EQ(ring.size(), model.size());
                ASSERT_TRUE(std::equal(ring.begin(), ring.end(),
                                       model.begin(), model.end()))
                    << "cap " << cap << " step " << i;
            }
        }
    }
}

} // namespace
} // namespace c4
