/**
 * @file
 * Unit tests for ACCL's monitor: the record streams C4D drains. Op
 * progress and heartbeats live in Accl and are tested in test_accl.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accl/monitor.h"
#include "perf/perf.h"

namespace c4::accl {
namespace {

ConnRecord
makeConn(CommId comm, Rank src, Rank dst, Bytes bytes, Duration dur)
{
    ConnRecord r;
    r.comm = comm;
    r.srcRank = src;
    r.dstRank = dst;
    r.bytes = bytes;
    r.startTime = seconds(1);
    r.endTime = seconds(1) + dur;
    return r;
}

TEST(Monitor, RecordsAndDrains)
{
    AcclMonitor mon;
    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));
    mon.record(makeConn(1, 1, 2, mib(1), milliseconds(2)));
    EXPECT_EQ(mon.totalConnRecords(), 2u);

    std::vector<ConnRecord> drained;
    mon.drainConn(drained);
    EXPECT_EQ(drained.size(), 2u);
    mon.drainConn(drained);
    EXPECT_TRUE(drained.empty()); // draining consumes
    EXPECT_EQ(mon.totalConnRecords(), 2u); // lifetime counter persists
}

TEST(Monitor, CapacityBoundsRetention)
{
    AcclMonitor mon(4);
    for (int i = 0; i < 10; ++i)
        mon.record(makeConn(1, 0, 1, mib(1), milliseconds(i + 1)));
    std::vector<ConnRecord> drained;
    mon.drainConn(drained);
    EXPECT_EQ(drained.size(), 4u);
    EXPECT_EQ(mon.droppedRecords(), 6u);
}

TEST(Monitor, DrainIntoReusedVectorKeepsOrderAndCapacity)
{
    AcclMonitor mon(4);
    std::vector<ConnRecord> out;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 6; ++i)
            mon.record(makeConn(1, 0, 1, mib(1), milliseconds(i + 1)));
        mon.drainConn(out);
        // The four newest survive, oldest first.
        ASSERT_EQ(out.size(), 4u);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(out[static_cast<std::size_t>(i)].duration(),
                      milliseconds(i + 3));
        mon.drainConn(out);
        EXPECT_TRUE(out.empty()); // draining consumes
    }
    EXPECT_EQ(mon.droppedRecords(), 6u);
}

TEST(Monitor, UndrainedStreamGrowsInFewBlocks)
{
    // With C4D off nothing drains the streams, so every record stays
    // until the monitor goes away. 100k records of 88 bytes fill 630
    // ring blocks (440 B doubling to 14 KiB), where fixed 512 B blocks
    // took 20,000.
    AcclMonitor mon;
    const ConnRecord rec = makeConn(1, 0, 1, mib(1), milliseconds(1));
    const std::uint64_t before = perf::allocStatsNow().count;
    for (int i = 0; i < 100000; ++i)
        mon.record(rec);
    const std::uint64_t allocs = perf::allocStatsNow().count - before;

    constexpr std::size_t kFullBlock = RingWindow<ConnRecord>::kBase
                                       << RingWindow<ConnRecord>::kDoublings;
    // Six doubling blocks, then full ones; the block list itself grows
    // geometrically (at most ~10 more).
    const std::size_t blocks =
        6 + (100000 - kFullBlock * 63 / 32 + kFullBlock - 1) / kFullBlock;
    EXPECT_GE(allocs, blocks);
    EXPECT_LE(allocs, blocks + 12);
    EXPECT_LT(allocs, 1000u);
    EXPECT_EQ(mon.totalConnRecords(), 100000u);
    EXPECT_EQ(mon.droppedRecords(), 0u);
}

TEST(Monitor, ConnRecordDerivedMetrics)
{
    ConnRecord r = makeConn(1, 0, 1, mib(100), milliseconds(4));
    EXPECT_EQ(r.duration(), milliseconds(4));
    // 100 MiB in 4 ms ~= 209.7 Gbps
    EXPECT_NEAR(toGbps(r.achievedRate()), 209.7, 0.5);
}

} // namespace
} // namespace c4::accl
