/**
 * @file
 * Unit tests for ACCL's monitoring layers (the paper's four telemetry
 * streams, heartbeats, and operation progress).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accl/monitor.h"
#include "common/csv.h"

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

    auto drained = mon.drainConn();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_TRUE(mon.drainConn().empty()); // draining consumes
    EXPECT_EQ(mon.totalConnRecords(), 2u); // lifetime counter persists
}

TEST(Monitor, DisabledDropsEverything)
{
    AcclMonitor mon(false);
    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));
    mon.record(CommRecord{});
    mon.record(CollRecord{});
    mon.record(RankWaitRecord{});
    for (Rank r = 0; r < 8; ++r)
        mon.heartbeat(1, r, seconds(5));
    mon.opPosted(1, 1, CollOp::AllReduce, mib(1), seconds(1));
    EXPECT_TRUE(mon.drainConn().empty());
    EXPECT_TRUE(mon.drainComm().empty());
    EXPECT_TRUE(mon.drainRankWait().empty());
    std::vector<CollRecord> colls{CollRecord{}};
    mon.drainColl(colls);
    EXPECT_TRUE(colls.empty());
    for (Rank r = 0; r < 8; ++r)
        EXPECT_EQ(mon.lastHeartbeat(1, r), kTimeNever);
    EXPECT_EQ(mon.currentOp(1), nullptr);
    EXPECT_EQ(mon.totalCollRecords(), 0u);
    EXPECT_EQ(mon.totalConnRecords(), 0u);
    EXPECT_EQ(mon.droppedRecords(), 0u);
}

TEST(Monitor, CapacityBoundsRetention)
{
    AcclMonitor mon(true, 4);
    for (int i = 0; i < 10; ++i)
        mon.record(makeConn(1, 0, 1, mib(1), milliseconds(i + 1)));
    EXPECT_EQ(mon.drainConn().size(), 4u);
    EXPECT_EQ(mon.droppedRecords(), 6u);
}

TEST(Monitor, HeartbeatsTrackLatest)
{
    AcclMonitor mon;
    EXPECT_EQ(mon.lastHeartbeat(1, 0), kTimeNever);
    mon.heartbeat(1, 0, seconds(1));
    mon.heartbeat(1, 0, seconds(2));
    mon.heartbeat(1, 1, seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(1, 0), seconds(2));
    EXPECT_EQ(mon.lastHeartbeat(1, 1), seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(2, 0), kTimeNever);
}

TEST(Monitor, OpProgressLifecycle)
{
    AcclMonitor mon;
    EXPECT_EQ(mon.currentOp(7), nullptr);

    mon.opPosted(7, 3, CollOp::AllReduce, mib(64), seconds(1));
    const OpProgress *op = mon.currentOp(7);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->posted());
    EXPECT_FALSE(op->started());
    EXPECT_FALSE(op->finished());
    EXPECT_EQ(op->seq, 3u);

    mon.opStarted(7, 3, seconds(2));
    EXPECT_TRUE(mon.currentOp(7)->started());

    mon.opFinished(7, 3, seconds(3));
    EXPECT_TRUE(mon.currentOp(7)->finished());
}

TEST(Monitor, OpProgressIgnoresStaleSeq)
{
    AcclMonitor mon;
    mon.opPosted(7, 3, CollOp::AllReduce, mib(64), seconds(1));
    mon.opPosted(7, 4, CollOp::AllReduce, mib(64), seconds(2));
    mon.opStarted(7, 3, seconds(3)); // stale seq: ignored
    EXPECT_FALSE(mon.currentOp(7)->started());
    EXPECT_EQ(mon.currentOp(7)->seq, 4u);
}

TEST(Monitor, CommClosedClearsState)
{
    AcclMonitor mon;
    mon.opPosted(7, 1, CollOp::AllReduce, mib(1), seconds(1));
    mon.heartbeat(7, 0, seconds(1));
    mon.heartbeat(8, 0, seconds(1));
    mon.heartbeat(7, 1, seconds(2));
    mon.commClosed(7);
    EXPECT_EQ(mon.currentOp(7), nullptr);
    EXPECT_EQ(mon.lastHeartbeat(7, 0), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(7, 1), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(8, 0), seconds(1)); // untouched
    // A comm beating again after closing starts from scratch.
    mon.heartbeat(7, 0, seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(7, 0), seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(7, 1), kTimeNever);
    mon.commClosed(42); // never seen: harmless
    EXPECT_EQ(mon.lastHeartbeat(7, 0), seconds(3));
}

TEST(Monitor, HeartbeatQueriesOutsideTheDenseRangeAreNever)
{
    AcclMonitor mon;
    for (Rank r = 0; r < 4; ++r)
        mon.heartbeat(3, r, seconds(1 + r));
    EXPECT_EQ(mon.lastHeartbeat(3, 3), seconds(4));
    EXPECT_EQ(mon.lastHeartbeat(3, 4), kTimeNever);   // past the size
    EXPECT_EQ(mon.lastHeartbeat(3, 1000), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(3, -1), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(99, 0), kTimeNever);  // unknown comm

    // A gap in the ranks reads as never, not as a neighbour's beat.
    mon.heartbeat(3, 9, seconds(9));
    EXPECT_EQ(mon.lastHeartbeat(3, 6), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(3, 9), seconds(9));

    mon.heartbeat(3, -1, seconds(10)); // ignored
    EXPECT_EQ(mon.lastHeartbeat(3, -1), kTimeNever);
}

TEST(Monitor, HighRanksDoNotCollideAcrossComms)
{
    // Heartbeats once shared one map keyed comm << 20 | rank, so rank
    // 2^20 of comm 1 aliased rank 0 of comm 2, and closing comm 2 erased
    // it. Per-comm storage keeps them apart.
    AcclMonitor mon;
    const Rank high = 1 << 20;
    mon.heartbeat(1, high, seconds(1));
    EXPECT_EQ(mon.lastHeartbeat(2, 0), kTimeNever);
    mon.heartbeat(2, 0, seconds(2));
    EXPECT_EQ(mon.lastHeartbeat(1, high), seconds(1));
    mon.commClosed(2);
    EXPECT_EQ(mon.lastHeartbeat(1, high), seconds(1));
    EXPECT_EQ(mon.lastHeartbeat(2, 0), kTimeNever);
}

TEST(Monitor, DrainIntoReusedVectorKeepsOrderAndCapacity)
{
    AcclMonitor mon(true, 4);
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

TEST(Monitor, CsvDumpsParse)
{
    AcclMonitor mon;
    CommRecord cr;
    cr.when = seconds(1);
    cr.comm = 1;
    cr.job = 2;
    cr.nranks = 16;
    cr.channels = 2;
    mon.record(cr);

    CollRecord col;
    col.comm = 1;
    col.seq = 5;
    col.rank = 3;
    col.bytes = mib(64);
    col.postTime = seconds(1);
    col.startTime = seconds(2);
    col.endTime = seconds(3);
    mon.record(col);

    RankWaitRecord w;
    w.comm = 1;
    w.seq = 5;
    w.rank = 3;
    w.recvWait = milliseconds(10);
    mon.record(w);

    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));

    std::ostringstream comm_csv, coll_csv, rank_csv, conn_csv;
    mon.dumpCommCsv(comm_csv);
    mon.dumpCollCsv(coll_csv);
    mon.dumpRankCsv(rank_csv);
    mon.dumpConnCsv(conn_csv);

    EXPECT_EQ(parseCsv(comm_csv.str()).size(), 2u);  // header + row
    EXPECT_EQ(parseCsv(coll_csv.str()).size(), 2u);
    EXPECT_EQ(parseCsv(rank_csv.str()).size(), 2u);
    const auto conn_rows = parseCsv(conn_csv.str());
    ASSERT_EQ(conn_rows.size(), 2u);
    EXPECT_EQ(conn_rows[0][0], "comm");
    EXPECT_EQ(conn_rows[1][5], "0"); // src_rank
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
