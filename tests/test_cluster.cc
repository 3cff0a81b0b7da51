/**
 * @file
 * Tests for the cluster runtime facade: wiring, node pool, fault
 * routing, and the experiment helpers.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/experiment.h"

namespace c4::core {
namespace {

TEST(Cluster, LayersWiredAccordingToConfig)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster plain(cc);
    EXPECT_EQ(plain.c4dMaster(), nullptr);
    EXPECT_EQ(plain.c4pMaster(), nullptr);

    cc.enableC4d = true;
    cc.enableC4p = true;
    Cluster full(cc);
    EXPECT_NE(full.c4dMaster(), nullptr);
    EXPECT_NE(full.steering(), nullptr);
    EXPECT_NE(full.agent(), nullptr);
    EXPECT_NE(full.c4pMaster(), nullptr);
}

TEST(Cluster, PaperTestbedShape)
{
    const net::TopologyConfig tc = paperTestbed();
    net::Topology topo(tc);
    EXPECT_EQ(topo.numNodes(), 16);
    EXPECT_EQ(topo.numGpus(), 128);
    EXPECT_EQ(topo.numLeaves(), 8);
    EXPECT_EQ(topo.numSpines(), 8);
    EXPECT_DOUBLE_EQ(tc.nvlinkBusBandwidth, gbps(362));

    const net::TopologyConfig two = paperTestbed(2.0);
    net::Topology congested(two);
    EXPECT_DOUBLE_EQ(
        congested.link(congested.trunkUplink(0, 0)).capacity, gbps(100));
}

TEST(Cluster, NodePoolAllocation)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);
    EXPECT_EQ(cluster.freeNodes(), 16);

    const auto a = cluster.allocateNodes(4);
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(cluster.freeNodes(), 12);

    const auto b = cluster.allocateNodes(12);
    EXPECT_EQ(cluster.freeNodes(), 0);
    for (NodeId n : b)
        EXPECT_EQ(std::count(a.begin(), a.end(), n), 0);

    EXPECT_THROW(cluster.allocateNodes(1), std::runtime_error);
}

TEST(Cluster, AddJobAutoAllocatesNodes)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);

    train::JobConfig jc;
    jc.id = 1;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(300);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 4};
    jc.initTime = seconds(5);
    auto &job = cluster.addJob(jc);
    EXPECT_EQ(job.nodes().size(), 4u);
    EXPECT_EQ(cluster.freeNodes(), 12);
    EXPECT_EQ(cluster.job(1), &job);
    EXPECT_EQ(cluster.job(99), nullptr);
    EXPECT_THROW(cluster.addJob(jc), std::invalid_argument);
}

TEST(Cluster, FatalFaultRoutesIntoJob)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);

    train::JobConfig jc;
    jc.id = 1;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(300);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 2};
    jc.initTime = seconds(5);
    jc.hangWatchdogTimeout = minutes(5);
    auto &job = cluster.addJob(jc);
    job.start();
    cluster.run(minutes(1));
    const auto iters = job.iterationsCompleted();
    ASSERT_GT(iters, 0u);

    fault::FaultEvent ev;
    ev.type = fault::FaultType::EccError;
    ev.node = job.nodes().front();
    cluster.faults().injectNow(ev);

    cluster.run(minutes(3));
    EXPECT_EQ(job.iterationsCompleted(), iters); // hung
}

TEST(Cluster, SlowNicFaultDegradesLinks)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);

    fault::FaultEvent ev;
    ev.type = fault::FaultType::SlowNicRx;
    ev.node = 3;
    ev.nic = 2;
    ev.severity = 0.25;
    cluster.faults().injectNow(ev);

    const auto &link = cluster.topology().link(
        cluster.topology().hostDownlink(3, 2, net::Plane::Left));
    EXPECT_DOUBLE_EQ(link.capacityScale, 0.25);
}

TEST(Cluster, LinkDownFaultKillsTrunkBothWays)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);

    fault::FaultEvent ev;
    ev.type = fault::FaultType::LinkDown;
    ev.link = 2 * 8 + 5; // leaf 2, spine 5
    cluster.faults().injectNow(ev);

    EXPECT_FALSE(
        cluster.topology().link(cluster.topology().trunkUplink(2, 5)).up);
    EXPECT_FALSE(cluster.topology()
                     .link(cluster.topology().trunkDownlink(5, 2))
                     .up);
}

TEST(Cluster, FreeNodesExcludesBrokenNodes)
{
    // A pod with one node left, and that node breaks: the admission
    // check (freeNodes) must agree with allocateNodes, which masks
    // broken hardware out of the pool.
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster cluster(cc);
    const auto taken = cluster.allocateNodes(15);
    NodeId spare = kInvalidId;
    for (NodeId n = 0; n < cluster.topology().numNodes(); ++n)
        if (std::count(taken.begin(), taken.end(), n) == 0)
            spare = n;
    ASSERT_NE(spare, kInvalidId);
    ASSERT_EQ(cluster.freeNodes(), 1);

    fault::FaultEvent ev;
    ev.type = fault::FaultType::EccError;
    ev.node = spare;
    cluster.faults().injectNow(ev);
    ASSERT_TRUE(cluster.isNodeBroken(spare));
    EXPECT_EQ(cluster.freeNodes(), 0);
    EXPECT_THROW(cluster.allocateNodes(1), std::runtime_error);

    cluster.repairNode(spare);
    EXPECT_EQ(cluster.freeNodes(), 1);
    EXPECT_EQ(cluster.allocateNodes(1), std::vector<NodeId>{spare});
}

TEST(Cluster, BackupProvisioningNeedsC4d)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    Cluster plain(cc);
    EXPECT_THROW(plain.provisionBackupNodes(2), std::runtime_error);

    cc.enableC4d = true;
    Cluster with(cc);
    with.provisionBackupNodes(2);
    EXPECT_EQ(with.steering()->backupsAvailable(), 2u);
    EXPECT_EQ(with.freeNodes(), 14);
}

TEST(Cluster, RemoveJobRefillsBackupPool)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    cc.enableC4d = true;
    cc.steering.isolationDelay = seconds(1);
    Cluster cluster(cc);
    cluster.provisionBackupNodes(2);
    EXPECT_EQ(cluster.backupReserve(), 2);
    ASSERT_EQ(cluster.steering()->backupsAvailable(), 2u);

    train::JobConfig jc;
    jc.id = 7;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(300);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 2};
    jc.initTime = seconds(5);
    auto &job = cluster.addJob(jc);
    job.start();
    cluster.run(seconds(10));

    // A fatal C4D event against the job's first node: steering
    // isolates it and swaps in a warm backup.
    c4d::C4dEvent ev;
    ev.when = cluster.sim().now();
    ev.kind = c4d::C4dEventKind::CommHang;
    ev.job = jc.id;
    ev.suspectNodes = {job.nodes().front()};
    cluster.steering()->handleEvent(ev);
    cluster.run(cluster.sim().now() + seconds(30));
    ASSERT_EQ(cluster.steering()->backupsAvailable(), 1u);
    ASSERT_EQ(cluster.steering()->isolatedNodes().size(), 1u);

    const int freeBefore = cluster.freeNodes();
    EXPECT_TRUE(cluster.removeJob(jc.id));
    // Of the two freed healthy nodes, one refills the warm-standby
    // queue back to the reserve of 2 and stays out of the general
    // pool; the other is freed. The isolated node stays out entirely.
    EXPECT_EQ(cluster.steering()->backupsAvailable(), 2u);
    EXPECT_EQ(cluster.freeNodes(), freeBefore + 1);
    EXPECT_EQ(cluster.jobCount(), 0u);
}

TEST(Experiment, AllreduceTaskRunsToCompletion)
{
    ClusterConfig cc;
    cc.topology = paperTestbed();
    cc.enableC4p = true;
    Cluster cluster(cc);

    AllreduceTaskConfig tc;
    tc.nodes = {0, 4};
    tc.iterations = 10;
    tc.bytes = mib(64);
    AllreduceTask task(cluster, tc);
    int seen = 0;
    task.onIteration([&](int iter, double bw) {
        EXPECT_EQ(iter, seen + 1);
        ++seen;
        EXPECT_GT(bw, 0.0);
    });
    task.start();
    cluster.run();
    EXPECT_TRUE(task.finished());
    EXPECT_EQ(task.iterationsCompleted(), 10);
    EXPECT_EQ(task.series().size(), 10u);
    EXPECT_NEAR(task.busBwGbps().mean(), 362.0, 5.0);
}

TEST(Experiment, CrossSegmentPairsAreCrossSegment)
{
    net::Topology topo(paperTestbed());
    const auto tasks = crossSegmentPairs(topo, 8);
    ASSERT_EQ(tasks.size(), 8u);
    std::set<NodeId> all;
    for (const auto &pair : tasks) {
        ASSERT_EQ(pair.size(), 2u);
        EXPECT_NE(topo.segmentOf(pair[0]), topo.segmentOf(pair[1]));
        all.insert(pair[0]);
        all.insert(pair[1]);
    }
    EXPECT_EQ(all.size(), 16u); // no node reused
}

TEST(Experiment, CrossSegmentPairsRejectsTooMany)
{
    net::Topology topo(paperTestbed());
    EXPECT_THROW(crossSegmentPairs(topo, 64), std::invalid_argument);
}

} // namespace
} // namespace c4::core
