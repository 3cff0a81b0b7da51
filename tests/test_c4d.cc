/**
 * @file
 * C4D subsystem tests: agent collection, master evaluation over live
 * ACCL telemetry, and the steering service's isolate-and-restart flow.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "accl/accl.h"
#include "c4d/agent.h"
#include "c4d/master.h"
#include "c4d/steering.h"
#include "net/fabric.h"
#include "perf/perf.h"
#include "testutil/testutil.h"
#include "train/job.h"

namespace c4::c4d {
namespace {

using accl::Accl;
using accl::CollOp;
using accl::DeviceInfo;

using Harness = testutil::C4dHarness;

TEST(C4dAgent, RegistersAndDeregistersComms)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1});
    h.agent.collectOnce();
    EXPECT_EQ(h.master.liveComms(), 1u);

    h.lib.destroyCommunicator(comm);
    h.agent.collectOnce();
    EXPECT_EQ(h.master.liveComms(), 0u);
}

TEST(C4dAgent, MasterSeesProgressAsOfTheLastCollection)
{
    // The master judges the progress the agent last copied, not the
    // library's live state: a hang that begins after a collection stays
    // invisible to evaluate() until the next one.
    const C4dConfig cfg = testutil::fastC4dConfig();
    testutil::AcclHarness h(2);
    C4dMaster master(h.sim, cfg);
    C4Agent agent(h.sim, h.lib, master);
    const CommId comm = h.fullComm({0, 1});
    h.lib.postCollective(comm, CollOp::AllReduce, mib(64), nullptr);
    h.sim.run();
    agent.collectOnce(); // registers the comm and its finished op

    // A second later rank 3 dies, so the next op never starts.
    h.sim.run(h.sim.now() + seconds(1));
    h.lib.crashRank(comm, 3);
    h.lib.postCollective(comm, CollOp::AllReduce, mib(64), nullptr);
    h.sim.run(h.sim.now() + 2 * cfg.hangThreshold);
    master.evaluate();
    EXPECT_EQ(master.eventsEmitted(), 0u);

    agent.collectOnce();
    master.evaluate();
    ASSERT_EQ(master.eventsEmitted(), 1u);
    const C4dEvent &ev = master.eventLog().front();
    EXPECT_EQ(ev.kind, C4dEventKind::NonCommHang);
    EXPECT_EQ(ev.suspectRanks, std::vector<Rank>{3});
}

TEST(C4dMaster, HealthyTrafficEmitsNothing)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1});
    h.pump(comm, mib(64), 20);
    h.sim.run(minutes(2));
    EXPECT_GT(h.master.evaluations(), 10u);
    EXPECT_EQ(h.master.eventsEmitted(), 0u);
}

TEST(C4dMaster, DetectsNonCommHangWithinSeconds)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1});
    h.pump(comm, mib(64), 1000000);
    h.sim.run(seconds(30));

    // Kill node 1's ranks before the next op posts: it never arrives.
    Time crash_time = h.sim.now();
    for (Rank r : h.lib.communicator(comm).ranksOnNode(1))
        h.lib.crashRank(comm, r);

    C4dEvent event;
    bool got = false;
    h.master.onEvent([&](const C4dEvent &ev) {
        if (!got) {
            got = true;
            event = ev;
        }
    });
    h.sim.run(minutes(5));
    ASSERT_TRUE(got);
    EXPECT_TRUE(event.kind == C4dEventKind::NonCommHang ||
                event.kind == C4dEventKind::CommHang);
    ASSERT_FALSE(event.suspectNodes.empty());
    EXPECT_EQ(event.suspectNodes[0], 1);
    // Detection latency: hang threshold + one evaluation period, i.e.
    // "tens of seconds", not the 30-minute watchdog.
    EXPECT_LT(event.when - crash_time, seconds(60));
}

TEST(C4dMaster, DetectsCommSlowFromRxDegradation)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1, 2});
    h.pump(comm, mib(64), 1000000);
    h.sim.run(seconds(20));

    // Degrade node 1's NIC receive side to 20%: messages into node 1
    // slow down -> hot column in the delay matrix.
    for (int g = 0; g < h.topo.nicsPerNode(); ++g) {
        for (int p = 0; p < net::kNumPlanes; ++p) {
            h.fabric.setLinkCapacityScale(
                h.topo.hostDownlink(1, g, net::planeFromIndex(p)), 0.2);
        }
    }

    bool got = false;
    C4dEvent event;
    h.master.onEvent([&](const C4dEvent &ev) {
        if (!got && ev.kind == C4dEventKind::CommSlow) {
            got = true;
            event = ev;
        }
    });
    h.sim.run(minutes(3));
    ASSERT_TRUE(got);
    // Ring telemetry has a single connection into node 1, so the matrix
    // can localize to the connection (src on node 0, dst on node 1);
    // the victim node must be among the suspects.
    ASSERT_FALSE(event.suspectNodes.empty());
    EXPECT_NE(std::find(event.suspectNodes.begin(),
                        event.suspectNodes.end(), 1),
              event.suspectNodes.end());
}

TEST(C4dMaster, DetectsNonCommSlowStraggler)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1, 2, 3});
    // Ranks on node 2 post late every iteration (straggler compute):
    // everyone else's recv wait is large, node 2's is ~zero.
    std::vector<Duration> delays(
        static_cast<std::size_t>(h.lib.communicator(comm).size()), 0);
    for (Rank r : h.lib.communicator(comm).ranksOnNode(2))
        delays[static_cast<std::size_t>(r)] = milliseconds(400);
    // Everyone EXCEPT node 2 gets zero delay; recv wait of node-2 ranks
    // is zero, others wait 400 ms.
    h.pump(comm, mib(64), 1000000, delays);

    bool got = false;
    C4dEvent event;
    h.master.onEvent([&](const C4dEvent &ev) {
        if (!got && ev.kind == C4dEventKind::NonCommSlow) {
            got = true;
            event = ev;
        }
    });
    h.sim.run(minutes(3));
    ASSERT_TRUE(got);
    ASSERT_FALSE(event.suspectNodes.empty());
    EXPECT_EQ(event.suspectNodes[0], 2);
}

TEST(C4dMaster, CooldownSuppressesDuplicateSlowFindings)
{
    Harness h;
    const CommId comm = h.fullComm({0, 1, 2, 3});
    std::vector<Duration> delays(
        static_cast<std::size_t>(h.lib.communicator(comm).size()), 0);
    for (Rank r : h.lib.communicator(comm).ranksOnNode(2))
        delays[static_cast<std::size_t>(r)] = milliseconds(400);
    h.pump(comm, mib(64), 1000000, delays);

    int slow_events = 0;
    h.master.onEvent([&](const C4dEvent &ev) {
        if (ev.kind == C4dEventKind::NonCommSlow)
            ++slow_events;
    });
    h.sim.run(minutes(3));
    // Cooldown is 2 minutes: at most 2 findings in a 3-minute window.
    EXPECT_GE(slow_events, 1);
    EXPECT_LE(slow_events, 2);
}

TEST(C4dMaster, SteadyCollectAndEvaluateDoNotAllocate)
{
    // A persistent straggler keeps the whole analysis path busy (delay
    // matrix, wait scan, consistency merge, cooldown check). After a
    // warm-up fills the telemetry windows and grows the drain buffers,
    // a collection pass plus an evaluation allocates nothing.
    C4dConfig cfg = testutil::fastC4dConfig();
    cfg.connWindow = 256;
    cfg.waitWindow = 128;
    testutil::AcclHarness h(4);
    C4dMaster master(h.sim, cfg);
    C4Agent agent(h.sim, h.lib, master);
    const CommId comm = h.fullComm(4);
    const int n = h.lib.communicator(comm).size();

    auto pass = [&] {
        std::vector<Duration> delays(static_cast<std::size_t>(n),
                                     milliseconds(500));
        delays[5] = milliseconds(900); // everyone waits for rank 5
        h.lib.postCollective(comm, CollOp::AllReduce, mib(64), nullptr,
                             std::move(delays));
        h.sim.run();
        const std::uint64_t before = perf::allocStatsNow().count;
        agent.collectOnce();
        master.evaluate();
        return perf::allocStatsNow().count - before;
    };
    for (int i = 0; i < 16; ++i)
        pass();
    ASSERT_EQ(master.eventsEmitted(), 1u);
    EXPECT_EQ(master.eventLog().front().kind, C4dEventKind::NonCommSlow);
    ASSERT_EQ(master.eventLog().front().suspectRanks,
              std::vector<Rank>{5});

    std::uint64_t allocs = 0;
    for (int i = 0; i < 32; ++i)
        allocs += pass();
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(master.evaluations(), 48u);
    EXPECT_EQ(master.eventsEmitted(), 1u); // cooldown holds the rest
}

/** A communicator of @p n ranks, one per node. */
accl::CommRecord
commRecord(CommId comm, int n)
{
    accl::CommRecord rec;
    rec.comm = comm;
    rec.job = 1;
    rec.nranks = n;
    for (NodeId node = 0; node < n; ++node)
        rec.rankNodes.push_back(node);
    return rec;
}

/**
 * @p rounds of 8 MiB transfers between every ordered rank pair of an
 * @p n-rank communicator, 1 ms each; those sent by @p slowSrc take
 * 5 ms (kInvalidId: none is slow).
 */
std::vector<accl::ConnRecord>
pairRecords(CommId comm, int n, int rounds, Rank slowSrc = kInvalidId)
{
    std::vector<accl::ConnRecord> records;
    for (int round = 0; round < rounds; ++round) {
        for (Rank s = 0; s < n; ++s) {
            for (Rank d = 0; d < n; ++d) {
                if (s == d)
                    continue;
                accl::ConnRecord r;
                r.comm = comm;
                r.seq = static_cast<accl::CollSeq>(round + 1);
                r.srcRank = s;
                r.dstRank = d;
                r.bytes = mib(8);
                r.startTime = seconds(round);
                r.endTime = r.startTime + milliseconds(s == slowSrc ? 5 : 1);
                records.push_back(r);
            }
        }
    }
    return records;
}

TEST(C4dMaster, RecycledCommunicatorsDoNotAllocate)
{
    // Jobs come and go, and every communicator gets a fresh id from
    // Accl. Deregistered state is recycled with its windows' blocks, so
    // once two communicators of a size have filled their windows, the
    // next ones (registered, filled past both window depths, evaluated,
    // deregistered, two live at a time) allocate nothing. The id table
    // is sized by the largest id seen, so the warm-up uses the last two.
    Simulator sim;
    C4dMaster master(sim, testutil::fastC4dConfig());
    constexpr int kRanks = 8;
    constexpr CommId kLast = 40;
    accl::CommRecord rec = commRecord(kLast, kRanks);
    // 56 pairs x 150 rounds > connWindow; 8 ranks x 300 ops > waitWindow.
    std::vector<accl::ConnRecord> conns = pairRecords(kLast, kRanks, 150);
    ASSERT_GT(conns.size(), master.config().connWindow);
    std::vector<accl::RankWaitRecord> waits;
    for (int seq = 1; seq <= 300; ++seq) {
        for (Rank r = 0; r < kRanks; ++r)
            waits.push_back({kLast, static_cast<accl::CollSeq>(seq), r,
                             milliseconds(1)});
    }
    ASSERT_GT(waits.size(), master.config().waitWindow);

    auto fill = [&](CommId id) {
        rec.comm = id;
        for (accl::ConnRecord &r : conns)
            r.comm = id;
        for (accl::RankWaitRecord &w : waits)
            w.comm = id;
        master.registerComm(rec);
        master.ingest(conns);
        master.ingest(waits);
    };
    fill(kLast - 1);
    fill(kLast);
    master.evaluate();
    master.deregisterComm(kLast - 1);
    master.deregisterComm(kLast);

    const std::uint64_t before = perf::allocStatsNow().count;
    for (CommId id = 1; id < kLast - 1; ++id) {
        fill(id);
        master.evaluate();
        if (id > 1)
            master.deregisterComm(id - 1);
        ASSERT_LE(master.liveComms(), 2u);
    }
    master.deregisterComm(kLast - 2);
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(master.liveComms(), 0u);
    EXPECT_EQ(master.evaluations(), static_cast<std::uint64_t>(kLast - 1));
    EXPECT_EQ(master.eventsEmitted(), 0u);
}

TEST(C4dMaster, EvaluatesCommunicatorsInAscendingId)
{
    // Two communicators, each with a slow sender, registered in the
    // order Accl creates them: one evaluation finds both, and the
    // findings come out in ascending CommId.
    Simulator sim;
    C4dMaster master(sim, testutil::fastC4dConfig());
    for (CommId comm : {1, 2}) {
        master.registerComm(commRecord(comm, 4));
        master.ingest(pairRecords(comm, 4, 4, /*slowSrc=*/comm));
    }
    master.evaluate();
    ASSERT_EQ(master.eventsEmitted(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const C4dEvent &ev = master.eventLog()[i];
        EXPECT_EQ(ev.kind, C4dEventKind::CommSlow);
        EXPECT_EQ(ev.comm, static_cast<CommId>(i + 1));
        EXPECT_EQ(ev.suspectRanks, std::vector<Rank>{ev.comm});
    }
}

TEST(Steering, IsolatesAndRestartsOnFatalEvent)
{
    testutil::AcclHarness h;
    Simulator &sim = h.sim;

    train::TrainingJob job(sim, h.lib, testutil::smallJobConfig(7));

    SteeringConfig sc;
    sc.isolationDelay = minutes(1);
    JobSteeringService steering(sim, sc);
    steering.manageJob(job);
    steering.addBackupNodes({2, 3});
    EXPECT_EQ(steering.backupsAvailable(), 2u);

    job.start();
    sim.run(minutes(1));
    ASSERT_EQ(job.state(), train::TrainingJob::State::Running);

    C4dEvent ev;
    ev.kind = C4dEventKind::CommHang;
    ev.job = 7;
    ev.when = sim.now();
    ev.suspectNodes = {1};
    steering.handleEvent(ev);

    sim.run(minutes(5));
    EXPECT_EQ(job.state(), train::TrainingJob::State::Running);
    EXPECT_EQ(steering.restartsIssued(), 1u);
    EXPECT_EQ(steering.backupsAvailable(), 1u);
    EXPECT_TRUE(steering.isolatedNodes().count(1));
    // Node 1 swapped out for backup node 2.
    EXPECT_EQ(job.nodes(), (std::vector<NodeId>{0, 2}));
    ASSERT_EQ(steering.recoveries().size(), 1u);
    EXPECT_TRUE(steering.recoveries()[0].viaC4d);
}

TEST(Steering, WatchdogPathUsesManualRecovery)
{
    testutil::AcclHarness h;
    Simulator &sim = h.sim;

    // The watchdog timeout and the manual-diagnosis distribution are
    // both configurable, so the test compresses them: production-like
    // values (30-min watchdog, hours-median diagnosis) force ~30
    // simulated hours of training iterations — minutes of wall clock
    // — to cover the lognormal tail, for no extra coverage.
    train::JobConfig jc = testutil::smallJobConfig(3);
    jc.hangWatchdogTimeout = seconds(30);
    train::TrainingJob job(sim, h.lib, jc);

    SteeringConfig sc;
    sc.manualDiagnosisMedian = minutes(5);
    JobSteeringService steering(sim, sc, /*seed=*/1);
    steering.manageJob(job);

    job.start();
    sim.run(minutes(1));
    job.crashNode(0); // no C4D in this setup: only the watchdog fires

    sim.run(hours(1));
    ASSERT_EQ(steering.recoveries().size(), 1u);
    EXPECT_FALSE(steering.recoveries()[0].viaC4d);
    // Manual diagnosis is heavy tailed around the configured median —
    // far slower than the seconds-scale C4D/steering path.
    EXPECT_GT(steering.recoveries()[0].recoveryLatency(), minutes(1));
    EXPECT_EQ(job.state(), train::TrainingJob::State::Running);
}

TEST(Steering, BackupExhaustionKeepsPlacement)
{
    testutil::AcclHarness h;
    Simulator &sim = h.sim;

    train::TrainingJob job(sim, h.lib, testutil::smallJobConfig());

    JobSteeringService steering(sim, SteeringConfig{});
    steering.manageJob(job); // no backups provisioned

    job.start();
    sim.run(minutes(1));

    C4dEvent ev;
    ev.kind = C4dEventKind::CommHang;
    ev.job = 1;
    ev.suspectNodes = {1};
    testing::internal::CaptureStderr();
    steering.handleEvent(ev);
    sim.run(minutes(10));
    // The one warning the simulator writes, byte for byte.
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "WARN  [steering] backup pool exhausted; node 1 stays in "
              "job placement\n");
    // Restarted on the same nodes (nothing to swap in).
    EXPECT_EQ(job.nodes(), (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(job.state(), train::TrainingJob::State::Running);
}

TEST(C4dEvent, Rendering)
{
    C4dEvent ev;
    ev.kind = C4dEventKind::CommSlow;
    ev.job = 3;
    ev.comm = 9;
    ev.suspectNodes = {1, 2};
    const std::string s = ev.str();
    EXPECT_NE(s.find("comm-slow"), std::string::npos);
    EXPECT_NE(s.find("job=3"), std::string::npos);
    EXPECT_NE(s.find("1,2"), std::string::npos);
    EXPECT_TRUE(c4dEventIsFatal(C4dEventKind::NonCommHang));
    EXPECT_FALSE(c4dEventIsFatal(C4dEventKind::CommSlow));
}

} // namespace
} // namespace c4::c4d
