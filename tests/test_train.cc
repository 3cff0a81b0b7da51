/**
 * @file
 * Unit tests for the training substrate: model presets, parallel layout,
 * and the TrainingJob iteration machine (throughput, checkpoints,
 * stragglers, crashes, watchdog, restart).
 */

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "perf/perf.h"
#include "train/job.h"
#include "train/model.h"
#include "train/parallel.h"

namespace c4::train {
namespace {

TEST(Model, PresetsAreSane)
{
    for (const ModelConfig &m :
         {gpt22b(), gpt175b(), llama7b(), llama13b()}) {
        EXPECT_GT(m.params, 1e9);
        EXPECT_GT(m.microbatchCompute, 0);
        EXPECT_GT(m.activationBytes, 0);
        EXPECT_GT(m.gradientBytes(), 0);
    }
    EXPECT_EQ(gpt22b().gradientBytes(), static_cast<Bytes>(22e9) * 2);
}

TEST(Model, ComputeScalesWithParallelism)
{
    const ModelConfig m = gpt22b();
    const Duration full = microbatchComputeTime(m, 1, 1);
    const Duration tp8 = microbatchComputeTime(m, 8, 1);
    const Duration tp8pp8 = microbatchComputeTime(m, 8, 8);
    EXPECT_NEAR(static_cast<double>(full) / tp8, 8.0, 0.01);
    EXPECT_NEAR(static_cast<double>(full) / tp8pp8, 64.0, 0.1);
}

TEST(Parallel, SpecValidation)
{
    ParallelismSpec spec{.tp = 8, .pp = 1, .dp = 2};
    EXPECT_TRUE(spec.validate(8, 2).empty());
    EXPECT_FALSE(spec.validate(8, 1).empty()); // not enough nodes
    spec.tp = 16;
    EXPECT_FALSE(spec.validate(8, 100).empty()); // tp > gpusPerNode
    spec = {.tp = 3, .pp = 1, .dp = 1};
    EXPECT_FALSE(spec.validate(8, 1).empty()); // tp doesn't divide 8
}

TEST(Parallel, DeviceMappingIsNodePacked)
{
    ParallelismSpec spec{.tp = 8, .pp = 1, .dp = 2};
    ParallelLayout layout(spec, {10, 20}, 8);
    EXPECT_EQ(layout.worldSize(), 16);
    EXPECT_EQ(layout.deviceOf(0).node, 10);
    EXPECT_EQ(layout.deviceOf(7).node, 10);
    EXPECT_EQ(layout.deviceOf(8).node, 20);
    EXPECT_EQ(layout.deviceOf(0).gpu, 0);
    EXPECT_EQ(layout.deviceOf(9).gpu, 1);
    EXPECT_EQ(layout.deviceOf(9).nic, 1);
}

TEST(Parallel, GroupShapes)
{
    ParallelismSpec spec{.tp = 4, .pp = 2, .dp = 2};
    std::vector<NodeId> nodes = {0, 1};
    ParallelLayout layout(spec, nodes, 8);

    const auto tp = layout.tpGroups();
    ASSERT_EQ(tp.size(), 4u); // dp*pp
    for (const auto &g : tp) {
        ASSERT_EQ(g.size(), 4u);
        // TP groups must be node-local (consecutive ranks).
        const NodeId n0 = layout.deviceOf(g.front()).node;
        for (int r : g)
            EXPECT_EQ(layout.deviceOf(r).node, n0);
    }

    const auto dp = layout.dpGroups();
    ASSERT_EQ(dp.size(), 8u); // tp*pp
    for (const auto &g : dp)
        ASSERT_EQ(g.size(), 2u);

    const auto pp = layout.ppGroups();
    ASSERT_EQ(pp.size(), 8u); // tp*dp
    for (const auto &g : pp)
        ASSERT_EQ(g.size(), 2u);
}

TEST(Parallel, SingleGroupsMatchTheFullLists)
{
    // Reference lists built straight from the rank formula
    // global = (dp * pp + pp) * tp + tp, in each kind's group order.
    for (const ParallelismSpec spec :
         {ParallelismSpec{.tp = 4, .pp = 2, .dp = 2},
          ParallelismSpec{.tp = 8, .pp = 1, .dp = 4},
          ParallelismSpec{.tp = 2, .pp = 4, .dp = 3},
          ParallelismSpec{.tp = 1, .pp = 1, .dp = 16},
          ParallelismSpec{.tp = 8, .pp = 2, .dp = 2, .ep = 2}}) {
        std::vector<NodeId> nodes;
        for (int n = 0; n < spec.worldSize() / 8; ++n)
            nodes.push_back(n);
        ParallelLayout layout(spec, nodes, 8);
        auto rank = [&](int dp, int pp, int tp) {
            return (dp * spec.pp + pp) * spec.tp + tp;
        };
        std::vector<std::vector<int>> tp, dp, pp;
        for (int d = 0; d < spec.dp; ++d)
            for (int p = 0; p < spec.pp; ++p) {
                tp.emplace_back();
                for (int t = 0; t < spec.tp; ++t)
                    tp.back().push_back(rank(d, p, t));
            }
        for (int p = 0; p < spec.pp; ++p)
            for (int t = 0; t < spec.tp; ++t) {
                dp.emplace_back();
                for (int d = 0; d < spec.dp; ++d)
                    dp.back().push_back(rank(d, p, t));
            }
        for (int d = 0; d < spec.dp; ++d)
            for (int t = 0; t < spec.tp; ++t) {
                pp.emplace_back();
                for (int p = 0; p < spec.pp; ++p)
                    pp.back().push_back(rank(d, p, t));
            }
        ASSERT_EQ(layout.tpGroups(), tp);
        ASSERT_EQ(layout.dpGroups(), dp);
        ASSERT_EQ(layout.ppGroups(), pp);
        for (std::size_t i = 0; i < tp.size(); ++i)
            EXPECT_EQ(layout.tpGroup(static_cast<int>(i)),
                      layout.tpGroups()[i]);
        for (std::size_t i = 0; i < dp.size(); ++i)
            EXPECT_EQ(layout.dpGroup(static_cast<int>(i)),
                      layout.dpGroups()[i]);
        for (std::size_t i = 0; i < pp.size(); ++i)
            EXPECT_EQ(layout.ppGroup(static_cast<int>(i)),
                      layout.ppGroups()[i]);
    }
}

TEST(Parallel, IndexDecompositionRoundTrips)
{
    ParallelismSpec spec{.tp = 2, .pp = 2, .dp = 4};
    std::vector<NodeId> nodes = {0, 1};
    ParallelLayout layout(spec, nodes, 8);
    for (int r = 0; r < layout.worldSize(); ++r) {
        const int rebuilt =
            (layout.dpIndex(r) * spec.pp + layout.ppIndex(r)) * spec.tp +
            layout.tpIndex(r);
        EXPECT_EQ(rebuilt, r);
    }
}

struct JobHarness
{
    Simulator sim;
    net::Topology topo;
    net::Fabric fabric;
    accl::Accl lib;

    JobHarness()
        : topo(topoConfig()), fabric(sim, topo, fabricConfig()),
          lib(sim, fabric)
    {
    }

    static net::TopologyConfig
    topoConfig()
    {
        net::TopologyConfig tc;
        tc.numNodes = 4;
        tc.nodesPerSegment = 1;
        tc.numSpines = 8;
        return tc;
    }

    static net::FabricConfig
    fabricConfig()
    {
        net::FabricConfig fc;
        fc.congestionJitter = false;
        return fc;
    }

    JobConfig
    smallJob()
    {
        JobConfig jc;
        jc.id = 1;
        jc.model = llama7b();
        jc.model.microbatchCompute = milliseconds(400);
        jc.parallel = {.tp = 8, .pp = 1, .dp = 2};
        jc.nodes = {0, 1};
        jc.initTime = seconds(10);
        jc.computeJitterCv = 0.0;
        jc.dpGroupsSimulated = 1;
        return jc;
    }
};

TEST(TrainingJob, RunsIterationsAndReportsThroughput)
{
    JobHarness h;
    TrainingJob job(h.sim, h.lib, h.smallJob());
    EXPECT_EQ(job.state(), TrainingJob::State::Idle);
    job.start();
    h.sim.run(minutes(2));
    EXPECT_EQ(job.state(), TrainingJob::State::Running);
    EXPECT_GT(job.iterationsCompleted(), 10u);
    EXPECT_GT(job.meanSamplesPerSec(), 0.0);
    EXPECT_GT(job.dpBusBwGbps().mean(), 50.0);
}

TEST(TrainingJob, IterationCallbackSeesMonotoneIndices)
{
    JobHarness h;
    TrainingJob job(h.sim, h.lib, h.smallJob());
    std::uint64_t last = 0;
    job.onIteration([&](const IterationStats &st) {
        EXPECT_EQ(st.index, last + 1);
        last = st.index;
        EXPECT_GT(st.end, st.start);
        EXPECT_GT(st.commDuration, 0);
        EXPECT_GT(st.samplesPerSec, 0.0);
    });
    job.start();
    h.sim.run(minutes(1));
    EXPECT_GT(last, 0u);
}

TEST(TrainingJob, CheckpointCadenceCostsTime)
{
    JobHarness h;
    JobConfig slow = h.smallJob();
    slow.checkpointIntervalIters = 5;
    slow.checkpointCost = seconds(30);
    TrainingJob with_ckpt(h.sim, h.lib, slow);
    with_ckpt.start();
    h.sim.run(minutes(5));
    const auto iters_with = with_ckpt.iterationsCompleted();
    EXPECT_GT(with_ckpt.lastCheckpointIteration(), 0u);
    EXPECT_GT(with_ckpt.lastCheckpointTime(), 0);
    with_ckpt.stop();

    JobHarness h2;
    TrainingJob without(h2.sim, h2.lib, h2.smallJob());
    without.start();
    h2.sim.run(minutes(5));
    EXPECT_GT(without.iterationsCompleted(), iters_with);
}

TEST(TrainingJob, StragglerSlowsIterationsAndSkewsWaits)
{
    JobHarness h;
    TrainingJob job(h.sim, h.lib, h.smallJob());
    job.start();
    h.sim.run(minutes(1));
    const double clean_iter = job.iterationSeconds().mean();

    job.setNodeComputeScale(1, 3.0);
    h.sim.run(minutes(3));
    // Iterations now wait ~2x the compute phase for node 1's ranks.
    EXPECT_GT(job.iterationSeconds().max(), clean_iter * 1.25);
}

TEST(TrainingJob, CrashNodeHangsThenWatchdogFires)
{
    JobHarness h;
    JobConfig jc = h.smallJob();
    jc.hangWatchdogTimeout = minutes(5);
    TrainingJob job(h.sim, h.lib, jc);
    bool killed = false;
    job.onWatchdogKill([&] { killed = true; });
    job.start();
    h.sim.run(minutes(1));
    const auto iters = job.iterationsCompleted();
    ASSERT_GT(iters, 0u);

    job.crashNode(1);
    h.sim.run(minutes(2));
    EXPECT_EQ(job.iterationsCompleted(), iters); // no more progress
    EXPECT_FALSE(killed);

    h.sim.run(minutes(10));
    EXPECT_TRUE(killed);
    EXPECT_EQ(job.state(), TrainingJob::State::Failed);
}

TEST(TrainingJob, RestartOnNewNodesResumes)
{
    JobHarness h;
    TrainingJob job(h.sim, h.lib, h.smallJob());
    job.start();
    h.sim.run(minutes(1));
    const auto iters = job.iterationsCompleted();
    ASSERT_GT(iters, 0u);

    job.restart({2, 3});
    EXPECT_EQ(job.state(), TrainingJob::State::Initializing);
    h.sim.run(minutes(2));
    EXPECT_EQ(job.state(), TrainingJob::State::Running);
    EXPECT_GT(job.iterationsCompleted(), iters);
    EXPECT_EQ(job.nodes(), (std::vector<NodeId>{2, 3}));
}

TEST(TrainingJob, StopTearsDownComms)
{
    JobHarness h;
    TrainingJob job(h.sim, h.lib, h.smallJob());
    job.start();
    h.sim.run(minutes(1));
    EXPECT_FALSE(job.dpComms().empty());
    const CommId dp = job.dpComms().front();
    job.stop();
    EXPECT_EQ(job.state(), TrainingJob::State::Stopped);
    EXPECT_FALSE(h.lib.hasCommunicator(dp));
    h.sim.run(minutes(1)); // nothing further happens
}

TEST(TrainingJob, PipelineJobRunsSendRecvChain)
{
    JobHarness h;
    JobConfig jc = h.smallJob();
    jc.parallel = {.tp = 8, .pp = 2, .dp = 2};
    jc.nodes = {0, 1, 2, 3};
    TrainingJob job(h.sim, h.lib, jc);
    job.start();
    h.sim.run(minutes(2));
    EXPECT_GT(job.iterationsCompleted(), 5u);
    EXPECT_NE(job.ppComm(), kInvalidId);
}

TEST(TrainingJob, GradientAccumulationReducesCommShare)
{
    JobHarness h;
    JobConfig ga1 = h.smallJob();
    TrainingJob job1(h.sim, h.lib, ga1);
    job1.start();
    h.sim.run(minutes(2));
    double comm_share_1 = 0.0;
    std::uint64_t n1 = 0;
    job1.onIteration([](const IterationStats &) {});
    job1.stop();

    JobHarness h2;
    JobConfig ga8 = ga1;
    ga8.parallel.gradientAccumulation = 8;
    TrainingJob job8(h2.sim, h2.lib, ga8);
    double share1_sum = 0, share8_sum = 0;
    int count8 = 0;
    job8.onIteration([&](const IterationStats &st) {
        share8_sum += toSeconds(st.commDuration) /
                      toSeconds(st.end - st.start);
        ++count8;
    });
    job8.start();
    h2.sim.run(minutes(5));
    ASSERT_GT(count8, 0);

    JobHarness h3;
    TrainingJob job1b(h3.sim, h3.lib, ga1);
    int count1 = 0;
    job1b.onIteration([&](const IterationStats &st) {
        share1_sum += toSeconds(st.commDuration) /
                      toSeconds(st.end - st.start);
        ++count1;
    });
    job1b.start();
    h3.sim.run(minutes(5));
    ASSERT_GT(count1, 0);

    (void)comm_share_1;
    (void)n1;
    // GA=8 amortizes the DP allreduce over 8x compute: much smaller
    // communication share (the paper's Job3 explanation, Fig. 14).
    EXPECT_LT(share8_sum / count8, 0.5 * share1_sum / count1);
}

TEST(TrainingJob, RejectsInvalidConfig)
{
    JobHarness h;
    JobConfig jc = h.smallJob();
    jc.parallel.tp = 16; // > gpusPerNode
    EXPECT_THROW(TrainingJob(h.sim, h.lib, jc), std::invalid_argument);
}

/**
 * Allocations made by 200 iterations of @p cfg after 8 warm-up ones,
 * draining the monitor every 100 ms into reused vectors (what a C4
 * agent does).
 */
std::uint64_t
steadyIterationAllocs(JobHarness &h, const JobConfig &cfg)
{
    TrainingJob job(h.sim, h.lib, cfg);
    std::vector<accl::CommRecord> comms;
    std::vector<accl::RankWaitRecord> waits;
    std::vector<accl::ConnRecord> conns;
    auto runTo = [&](std::uint64_t iters) {
        while (job.iterationsCompleted() < iters) {
            h.sim.run(h.sim.now() + milliseconds(100));
            h.lib.monitor().drainComm(comms);
            h.lib.monitor().drainRankWait(waits);
            h.lib.monitor().drainConn(conns);
        }
    };
    job.start();
    runTo(8);
    const std::uint64_t before = perf::allocStatsNow().count;
    runTo(208);
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(job.state(), TrainingJob::State::Running);
    EXPECT_EQ(job.iterationsCompleted(), 208u);
    return allocs;
}

TEST(TrainingJob, SteadyIterationsDoNotAllocate)
{
    // The only allocations left are the doubling growth of the job's
    // two Summary sample vectors (iteration time, DP bus bandwidth).
    JobHarness h;
    EXPECT_LE(steadyIterationAllocs(h, h.smallJob()), 16u);
}

TEST(TrainingJob, SteadyMoePipelineIterationsDoNotAllocate)
{
    // Adds two skewed expert alltoalls and a pipeline send/recv chain
    // per iteration, whose entry delays and completion callbacks must
    // not allocate either.
    JobHarness h;
    JobConfig cfg = h.smallJob();
    cfg.model.epBytesPerMicrobatch = mib(32);
    cfg.parallel = {.tp = 8, .pp = 2, .dp = 2, .ep = 2};
    cfg.nodes = {0, 1, 2, 3};
    EXPECT_LE(steadyIterationAllocs(h, cfg), 16u);
}

} // namespace
} // namespace c4::train
