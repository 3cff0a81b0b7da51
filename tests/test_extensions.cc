/**
 * @file
 * Tests for the paper's Section-V extensions: alltoall / expert
 * parallelism (load imbalance vs persistent stragglers), the
 * background root-cause analyzer, and topology-aware placement.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <utility>

#include "c4d/rca.h"
#include "core/cluster.h"
#include "core/placement.h"
#include "testutil/testutil.h"
#include "train/job.h"
#include "train/model.h"

namespace c4 {
namespace {

using accl::CollOp;
using accl::CollectiveResult;
using accl::DeviceInfo;

using Harness = testutil::AcclHarness;

TEST(AllToAll, CompletesWithCorrectBookkeeping)
{
    Harness h(4);
    const CommId comm = h.fullComm(4);
    CollectiveResult res;
    h.lib.postCollective(comm, CollOp::AllToAll, mib(64),
                         [&](const CollectiveResult &r) { res = r; });
    h.sim.run();
    EXPECT_EQ(res.op, CollOp::AllToAll);
    EXPECT_GT(res.endTime, res.startTime);
    EXPECT_GT(toGbps(res.busBw()), 10.0);
}

TEST(AllToAll, MovesTrafficBetweenEveryNodePair)
{
    Harness h(3);
    const CommId comm = h.fullComm(3);
    bool done = false;
    h.lib.postCollective(comm, CollOp::AllToAll, mib(32),
                         [&](const CollectiveResult &) { done = true; });
    h.sim.run();
    ASSERT_TRUE(done);

    std::set<std::pair<NodeId, NodeId>> pairs;
    std::vector<accl::ConnRecord> conns;
    h.lib.monitor().drainConn(conns);
    for (const auto &rec : conns)
        pairs.insert({rec.srcNode, rec.dstNode});
    // Every ordered cross-node pair must have carried messages.
    EXPECT_EQ(pairs.size(), 6u);
}

TEST(AllToAll, SingleRankDegenerates)
{
    Harness h(1);
    std::vector<DeviceInfo> d = {{0, 0, 0}};
    const CommId comm = h.lib.createCommunicator(1, d);
    bool done = false;
    h.lib.postCollective(comm, CollOp::AllToAll, mib(1),
                         [&](const CollectiveResult &) { done = true; });
    h.sim.run();
    EXPECT_TRUE(done);
}

struct MoeScenario : testutil::AcclHarness
{
    train::JobConfig
    moeJob()
    {
        train::JobConfig jc;
        jc.id = 1;
        jc.model = train::llama7b();
        jc.model.microbatchCompute = milliseconds(400);
        jc.model.epBytesPerMicrobatch = mib(32);
        jc.parallel = {.tp = 8, .pp = 1, .dp = 4, .ep = 4};
        jc.nodes = {0, 1, 2, 3};
        jc.initTime = seconds(5);
        jc.dpGroupsSimulated = 1;
        return jc;
    }
};

TEST(ExpertParallel, SpecValidation)
{
    train::ParallelismSpec spec{.tp = 8, .pp = 1, .dp = 4, .ep = 2};
    EXPECT_FALSE(spec.validate(8, 4).empty()); // ep != dp
    spec.ep = 4;
    EXPECT_TRUE(spec.validate(8, 4).empty());
}

TEST(ExpertParallel, JobRunsAllToAllsPerIteration)
{
    MoeScenario h;
    train::TrainingJob job(h.sim, h.lib, h.moeJob());
    job.start();
    h.sim.run(minutes(2));
    EXPECT_GT(job.iterationsCompleted(), 5u);
    EXPECT_NE(job.epComm(), kInvalidId);

    // The EP communicator posts only alltoalls, so its op sequence
    // counts them: every op before the current one, and the current one
    // once it has finished.
    const accl::OpProgress *op = h.lib.currentOp(job.epComm());
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->op, CollOp::AllToAll);
    const int alltoalls =
        static_cast<int>(op->seq) - (op->finished() ? 0 : 1);
    // Dispatch + combine per iteration.
    EXPECT_GE(alltoalls,
              2 * static_cast<int>(job.iterationsCompleted()) - 2);
}

TEST(ExpertParallel, TransientImbalanceDoesNotTriggerC4d)
{
    // The paper (Section V): EP load imbalance "can be mitigated by
    // averaging collected data over a predefined period to smooth out
    // random variations". The rotating skew must not be blamed on any
    // single rank.
    MoeScenario h;
    c4d::C4dConfig cfg;
    cfg.evaluatePeriod = seconds(2);
    cfg.analyzer.minWaitForSlow = milliseconds(20);
    c4d::C4dMaster master(h.sim, cfg);
    c4d::C4Agent agent(h.sim, h.lib, master, seconds(1));
    master.start();
    agent.start();

    train::JobConfig jc = h.moeJob();
    jc.epLoadImbalanceCv = 0.5; // heavy but rotating skew
    train::TrainingJob job(h.sim, h.lib, jc);
    job.start();
    h.sim.run(minutes(5));

    for (const auto &ev : master.eventLog())
        EXPECT_NE(ev.kind, c4d::C4dEventKind::NonCommSlow)
            << "transient EP imbalance misclassified: " << ev.str();
}

TEST(ExpertParallel, PersistentStragglerStillDetected)
{
    MoeScenario h;
    c4d::C4dConfig cfg;
    cfg.evaluatePeriod = seconds(2);
    cfg.analyzer.minWaitForSlow = milliseconds(20);
    c4d::C4dMaster master(h.sim, cfg);
    c4d::C4Agent agent(h.sim, h.lib, master, seconds(1));
    master.start();
    agent.start();

    train::JobConfig jc = h.moeJob();
    jc.epLoadImbalanceCv = 0.3;
    train::TrainingJob job(h.sim, h.lib, jc);
    job.start();
    h.sim.run(minutes(1));
    job.setNodeComputeScale(2, 3.0); // persistent straggler on node 2
    h.sim.run(minutes(6));

    bool localized = false;
    for (const auto &ev : master.eventLog()) {
        if (ev.kind == c4d::C4dEventKind::NonCommSlow) {
            for (NodeId n : ev.suspectNodes)
                localized |= n == 2;
        }
    }
    EXPECT_TRUE(localized);
}

TEST(Rca, HardwareCorroborationWins)
{
    c4d::RootCauseAnalyzer rca;
    c4d::HardwareLogEntry hw;
    hw.when = minutes(9);
    hw.node = 5;
    hw.type = fault::FaultType::EccError;
    rca.ingestHardwareEvent(hw);

    c4d::C4dEvent ev;
    ev.when = minutes(10);
    ev.kind = c4d::C4dEventKind::CommHang;
    ev.suspectNodes = {5};
    const auto report = rca.analyze(ev);
    EXPECT_TRUE(report.corroborated);
    EXPECT_EQ(report.probableCause, fault::FaultType::EccError);
    EXPECT_GT(report.confidence, 0.9);
}

TEST(Rca, WindowAndNodeGating)
{
    c4d::RootCauseAnalyzer rca;
    c4d::HardwareLogEntry hw;
    hw.when = minutes(9);
    hw.node = 5;
    hw.type = fault::FaultType::NvlinkError;
    rca.ingestHardwareEvent(hw);

    c4d::C4dEvent ev;
    ev.kind = c4d::C4dEventKind::CommHang;
    ev.suspectNodes = {7}; // different node
    ev.when = minutes(10);
    EXPECT_FALSE(rca.analyze(ev).corroborated);

    ev.suspectNodes = {5};
    ev.when = hours(2); // outside the correlation window
    EXPECT_FALSE(rca.analyze(ev).corroborated);
}

TEST(Rca, SyndromePriors)
{
    c4d::RootCauseAnalyzer rca;
    c4d::C4dEvent ev;
    ev.kind = c4d::C4dEventKind::NonCommHang;
    EXPECT_EQ(rca.analyze(ev).probableCause,
              fault::FaultType::CudaError);

    ev.kind = c4d::C4dEventKind::CommHang;
    EXPECT_EQ(rca.analyze(ev).probableCause,
              fault::FaultType::AckTimeout);

    ev.kind = c4d::C4dEventKind::NonCommSlow;
    EXPECT_EQ(rca.analyze(ev).probableCause,
              fault::FaultType::SlowNode);

    ev.kind = c4d::C4dEventKind::CommSlow;
    ev.detail = "source-tx-slow src=3";
    EXPECT_EQ(rca.analyze(ev).probableCause,
              fault::FaultType::SlowNicTx);
    ev.detail = "dest-rx-slow dst=4";
    EXPECT_EQ(rca.analyze(ev).probableCause,
              fault::FaultType::SlowNicRx);
}

TEST(Rca, HistogramAggregates)
{
    std::vector<c4d::RootCauseReport> reports(3);
    reports[0].probableCause = fault::FaultType::EccError;
    reports[1].probableCause = fault::FaultType::EccError;
    reports[2].probableCause = fault::FaultType::SlowNode;
    const auto hist = c4d::RootCauseAnalyzer::histogram(reports);
    EXPECT_EQ(hist.at(fault::FaultType::EccError), 2);
    EXPECT_EQ(hist.at(fault::FaultType::SlowNode), 1);
}

TEST(Rca, HardwareVisibility)
{
    using fault::FaultType;
    EXPECT_TRUE(c4d::faultVisibleInHardwareLogs(FaultType::EccError));
    EXPECT_TRUE(c4d::faultVisibleInHardwareLogs(FaultType::LinkDown));
    EXPECT_FALSE(c4d::faultVisibleInHardwareLogs(FaultType::CudaError));
    EXPECT_FALSE(
        c4d::faultVisibleInHardwareLogs(FaultType::NcclTimeout));
}

TEST(Placement, PackedMinimizesSegments)
{
    net::Topology topo(core::paperTestbed()); // 4 segments of 4
    std::vector<bool> used(16, false);
    const auto packed = core::choosePlacement(
        topo, used, 4, core::PlacementStrategy::Packed);
    ASSERT_EQ(packed.size(), 4u);
    EXPECT_EQ(core::segmentsSpanned(topo, packed), 1);

    const auto scattered = core::choosePlacement(
        topo, used, 4, core::PlacementStrategy::Scattered);
    ASSERT_EQ(scattered.size(), 4u);
    EXPECT_EQ(core::segmentsSpanned(topo, scattered), 4);
}

TEST(Placement, PackedPrefersEmptiestSegments)
{
    net::Topology topo(core::paperTestbed());
    std::vector<bool> used(16, false);
    used[0] = used[1] = true; // segment 0 half full
    const auto packed = core::choosePlacement(
        topo, used, 4, core::PlacementStrategy::Packed);
    ASSERT_EQ(packed.size(), 4u);
    // Fits entirely into a fully-free segment instead of spanning two.
    EXPECT_EQ(core::segmentsSpanned(topo, packed), 1);
    EXPECT_NE(topo.segmentOf(packed.front()), 0);
}

TEST(Placement, AllOrNothingOnShortPool)
{
    net::Topology topo(core::paperTestbed());
    std::vector<bool> used(16, true);
    used[3] = false;
    EXPECT_TRUE(core::choosePlacement(topo, used, 2,
                                      core::PlacementStrategy::Packed)
                    .empty());
}

TEST(Placement, ClusterStrategyParameter)
{
    core::ClusterConfig cc;
    cc.topology = core::paperTestbed();
    core::Cluster cluster(cc);
    const auto scattered = cluster.allocateNodes(
        4, core::PlacementStrategy::Scattered);
    EXPECT_EQ(core::segmentsSpanned(cluster.topology(), scattered), 4);
    // Each segment now has 3 free nodes, so 4 packed nodes must span
    // exactly 2 segments (3 + 1) — still the minimum possible.
    const auto packed = cluster.allocateNodes(4);
    EXPECT_EQ(core::segmentsSpanned(cluster.topology(), packed), 2);
    EXPECT_EQ(cluster.freeNodes(), 8);
}


TEST(StartupFailure, BrokenNodeFailsInitAndManualPathRecovers)
{
    core::ClusterConfig cc;
    cc.topology = core::paperTestbed();
    cc.enableC4d = true;
    cc.steering.manualDiagnosisMedian = minutes(30);
    cc.steering.manualDiagnosisSigma = 0.2;
    core::Cluster cluster(cc);
    cluster.provisionBackupNodes(2);
    cluster.startRuntime();

    // Break a node before the job ever starts (e.g. an NVLink defect
    // from the previous tenant).
    fault::FaultEvent ev;
    ev.type = fault::FaultType::NvlinkError;
    ev.node = 2;
    cluster.faults().injectNow(ev);
    EXPECT_TRUE(cluster.isNodeBroken(2));

    train::JobConfig jc;
    jc.id = 1;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(400);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 4};
    jc.nodes = {0, 1, 2, 3}; // includes the broken node
    jc.initTime = seconds(30);
    jc.dpGroupsSimulated = 1;
    auto &job = cluster.addJob(jc);
    job.start();

    // Init fails: start failure, invisible to C4D.
    cluster.run(minutes(2));
    EXPECT_GE(job.startFailures(), 1u);
    EXPECT_EQ(cluster.c4dMaster()->eventsEmitted(), 0u);

    // Manual diagnosis finds the broken node, isolates it, restarts.
    cluster.run(hours(4));
    EXPECT_EQ(job.state(), train::TrainingJob::State::Running);
    EXPECT_GT(job.iterationsCompleted(), 0u);
    EXPECT_EQ(std::count(job.nodes().begin(), job.nodes().end(), 2), 0);
    ASSERT_FALSE(cluster.steering()->recoveries().empty());
    EXPECT_FALSE(cluster.steering()->recoveries().front().viaC4d);
}

TEST(StartupFailure, CleanNodesPassValidation)
{
    core::ClusterConfig cc;
    cc.topology = core::paperTestbed();
    cc.enableC4d = true;
    core::Cluster cluster(cc);
    cluster.startRuntime();

    train::JobConfig jc;
    jc.id = 1;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(400);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 2};
    jc.initTime = seconds(10);
    jc.dpGroupsSimulated = 1;
    auto &job = cluster.addJob(jc);
    job.start();
    cluster.run(minutes(1));
    EXPECT_EQ(job.startFailures(), 0u);
    EXPECT_EQ(job.state(), train::TrainingJob::State::Running);
}

TEST(StartupFailure, RepairClearsBrokenState)
{
    core::ClusterConfig cc;
    cc.topology = core::paperTestbed();
    core::Cluster cluster(cc);
    fault::FaultEvent ev;
    ev.type = fault::FaultType::EccError;
    ev.node = 7;
    cluster.faults().injectNow(ev);
    EXPECT_TRUE(cluster.isNodeBroken(7));
    cluster.repairNode(7);
    EXPECT_FALSE(cluster.isNodeBroken(7));
    EXPECT_EQ(cluster.brokenNodeCount(), 0u);
}

TEST(StartupFailure, TransientFaultsDoNotBreakNodes)
{
    core::ClusterConfig cc;
    cc.topology = core::paperTestbed();
    core::Cluster cluster(cc);
    fault::FaultEvent ev;
    ev.type = fault::FaultType::NcclTimeout; // software/stack: transient
    ev.node = 5;
    cluster.faults().injectNow(ev);
    EXPECT_FALSE(cluster.isNodeBroken(5));
}


TEST(PacketSpray, ReRollsPathsPerMessage)
{
    Harness h(2);
    accl::SprayPathPolicy spray;
    h.lib.setPathPolicy(&spray);
    const CommId comm = h.fullComm(2);
    bool done = false;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(64),
                         [&](const CollectiveResult &) { done = true; });
    h.sim.run();
    ASSERT_TRUE(done);

    // The same QP must have used more than one spine across rounds.
    std::map<int, std::set<std::int32_t>> spines_per_qp;
    std::vector<accl::ConnRecord> conns;
    h.lib.monitor().drainConn(conns);
    for (const auto &rec : conns) {
        if (rec.spine != kInvalidId)
            spines_per_qp[rec.channel * 100 + rec.qpIndex +
                          1000 * rec.srcRank]
                .insert(rec.spine);
    }
    bool varied = false;
    for (const auto &[qp, spines] : spines_per_qp)
        varied |= spines.size() > 1;
    EXPECT_TRUE(varied);
}

TEST(PacketSpray, AveragesOutButDoesNotEliminateCollisions)
{
    // Spraying beats a badly-drawn static ECMP layout on average, but
    // cannot reach C4P's planned 362 Gbps ceiling — individual rounds
    // still collide (paper Section V's argument against relying on
    // adaptive routing alone).
    auto run = [](accl::PathPolicy *policy) {
        Harness h(4);
        if (policy != nullptr)
            h.lib.setPathPolicy(policy);
        const CommId comm = h.fullComm(4);
        Summary bw;
        std::function<void(int)> post = [&](int remaining) {
            if (remaining == 0)
                return;
            h.lib.postCollective(comm, CollOp::AllReduce, mib(64),
                                 [&, remaining](
                                     const CollectiveResult &r) {
                                     bw.add(toGbps(r.busBw()));
                                     post(remaining - 1);
                                 });
        };
        post(20);
        h.sim.run();
        return bw.mean();
    };

    accl::SprayPathPolicy spray;
    const double sprayed = run(&spray);
    EXPECT_GT(sprayed, 150.0);
    EXPECT_LT(sprayed, 361.0); // below the planned-path ceiling
}

TEST(StragglerConsistency, RotatingMinimumSuppressed)
{
    // Synthetic waits: heavy skew whose minimum-wait rank rotates.
    std::vector<accl::RankWaitRecord> waits;
    for (int op = 0; op < 12; ++op) {
        for (Rank r = 0; r < 4; ++r) {
            accl::RankWaitRecord w;
            w.comm = 1;
            w.seq = static_cast<accl::CollSeq>(op);
            w.rank = r;
            w.recvWait = (r == op % 4) ? milliseconds(1)
                                       : milliseconds(600);
            waits.push_back(w);
        }
    }
    const auto finding = c4d::analyzeNonCommSlow(4, waits);
    EXPECT_FALSE(finding.found);
}

TEST(StragglerConsistency, StableMinimumStillDetected)
{
    std::vector<accl::RankWaitRecord> waits;
    for (int op = 0; op < 12; ++op) {
        for (Rank r = 0; r < 4; ++r) {
            accl::RankWaitRecord w;
            w.comm = 1;
            w.seq = static_cast<accl::CollSeq>(op);
            w.rank = r;
            w.recvWait =
                (r == 2) ? milliseconds(1) : milliseconds(600);
            waits.push_back(w);
        }
    }
    const auto finding = c4d::analyzeNonCommSlow(4, waits);
    ASSERT_TRUE(finding.found);
    EXPECT_EQ(finding.rank, 2);
}

} // namespace
} // namespace c4
