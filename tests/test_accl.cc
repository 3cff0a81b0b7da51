/**
 * @file
 * Integration-level tests of the ACCL engine over the fabric: busbw
 * physics (NVLink cap, dual-port imbalance), algorithm variants,
 * point-to-point, ordering, straggler skew, and crash semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "accl/accl.h"
#include "net/fabric.h"
#include "perf/perf.h"
#include "testutil/testutil.h"
#include "trace/trace.h"

namespace c4::accl {
namespace {

using net::Plane;

using Harness = testutil::AcclHarness;

/** Pins rx plane to tx plane and spreads spines: an ideal-path policy. */
class PinnedPolicy : public PathPolicy
{
  public:
    PathDecision
    decide(const ConnContext &ctx) override
    {
        PathDecision d;
        d.txPlane = net::planeFromIndex((ctx.channel + ctx.qpIndex) % 2);
        d.rxPlane = net::planeIndex(d.txPlane);
        d.spine = next_++ % 8;
        d.flowLabel = next_;
        return d;
    }

  private:
    std::uint32_t next_ = 0;
};

TEST(Accl, SingleNodeAllReduceHitsNvlinkBw)
{
    Harness h(1);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 362.0, 1.0);
}

TEST(Accl, CrossNodeAllReduceCappedByNvlinkWithPinnedPaths)
{
    Harness h(2);
    PinnedPolicy policy;
    h.lib.setPathPolicy(&policy);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 362.0, 2.0);
}

TEST(Accl, DualPortCollisionHalvesBusBw)
{
    // Force both channels' flows onto the same landing plane: the two
    // bonded RX ports become one 200 Gbps port (paper Fig. 9 syndrome).
    class CollidingPolicy : public PathPolicy
    {
      public:
        PathDecision
        decide(const ConnContext &ctx) override
        {
            PathDecision d;
            d.txPlane =
                net::planeFromIndex((ctx.channel + ctx.qpIndex) % 2);
            d.rxPlane = net::planeIndex(Plane::Left); // all on left
            d.spine = next_++ % 8;
            return d;
        }
        std::uint32_t next_ = 0;
    };

    Harness h(2);
    CollidingPolicy policy;
    h.lib.setPathPolicy(&policy);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 200.0, 5.0);
}

TEST(Accl, AllGatherAndReduceScatterComplete)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    int done = 0;
    h.lib.postCollective(comm, CollOp::AllGather, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::AllGather);
                             EXPECT_GT(r.busBw(), 0.0);
                         });
    h.lib.postCollective(comm, CollOp::ReduceScatter, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::ReduceScatter);
                         });
    h.lib.postCollective(comm, CollOp::Broadcast, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::Broadcast);
                         });
    h.sim.run();
    EXPECT_EQ(done, 3);
}

TEST(Accl, OpsOnOneCommExecuteFifo)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    std::vector<CollSeq> order;
    for (int i = 0; i < 4; ++i) {
        h.lib.postCollective(comm, CollOp::AllReduce, mib(16),
                             [&](const CollectiveResult &r) {
                                 order.push_back(r.seq);
                             });
    }
    h.sim.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(h.lib.collectivesCompleted(), 4u);
}

TEST(Accl, StragglerDelayGatesStart)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    std::vector<Duration> delays(16, 0);
    delays[5] = seconds(1); // rank 5 is late
    CollectiveResult res;
    h.lib.postCollective(
        comm, CollOp::AllReduce, mib(64),
        [&](const CollectiveResult &r) { res = r; }, delays);
    h.sim.run();
    EXPECT_EQ(res.startTime, seconds(1));
    EXPECT_GE(res.totalDuration(), seconds(1));
    EXPECT_LT(res.commDuration(), seconds(1));
}

TEST(Accl, SendRecvCrossNodeAtPortRate)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    Duration dur = 0;
    h.lib.sendRecv(comm, 0, 8, mib(100),
                   [&](const CollectiveResult &r) {
                       dur = r.commDuration();
                   });
    h.sim.run();
    // 100 MiB at 200 Gbps ~= 4.19 ms.
    EXPECT_NEAR(toMilliseconds(dur), 4.19, 0.3);
}

TEST(Accl, SendRecvSameNodeUsesNvlink)
{
    Harness h(1);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0}));
    Duration dur = 0;
    h.lib.sendRecv(comm, 0, 1, mib(100),
                   [&](const CollectiveResult &r) {
                       dur = r.commDuration();
                   });
    h.sim.run();
    // 100 MiB at 362 Gbps ~= 2.3 ms.
    EXPECT_NEAR(toMilliseconds(dur), 2.32, 0.2);
}

TEST(Accl, CrashBeforePostMeansOpNeverStarts)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    h.lib.crashRank(comm, 3);
    EXPECT_TRUE(h.lib.rankCrashed(comm, 3));

    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(64),
                         [&](const CollectiveResult &) { fired = true; });
    h.sim.run(minutes(10));
    EXPECT_FALSE(fired);

    const OpProgress *op = h.lib.currentOp(comm);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->posted());
    EXPECT_FALSE(op->started());

    // The survivors showed up at the synchronization point; the dead
    // rank never beats.
    const std::span<const Time> beats = h.lib.heartbeats(comm);
    ASSERT_EQ(beats.size(), 16u);
    for (std::size_t r = 0; r < beats.size(); ++r)
        EXPECT_EQ(beats[r], r == 3 ? kTimeNever : op->postTime) << r;
}

TEST(Accl, CrashMidOperationStallsProgress)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, gib(4),
                         [&](const CollectiveResult &) { fired = true; });
    // Let a few rounds complete, then kill rank 0's node mid-flight.
    h.sim.run(milliseconds(50));
    h.lib.crashRank(comm, 0);
    h.sim.run(minutes(5));
    const std::span<const Time> beats = h.lib.heartbeats(comm);
    const std::vector<Time> stalled(beats.begin(), beats.end());
    h.sim.run(minutes(10));
    EXPECT_FALSE(fired);

    const OpProgress *op = h.lib.currentOp(comm);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->started());
    EXPECT_FALSE(op->finished());

    // Work in flight at the crash may still land, then nothing moves.
    EXPECT_TRUE(std::ranges::equal(h.lib.heartbeats(comm), stalled));
    EXPECT_LT(*std::ranges::max_element(stalled), seconds(1));
}

TEST(Accl, HeartbeatsTrackLatest)
{
    Harness h(2);
    const CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    for (Time t : h.lib.heartbeats(comm))
        EXPECT_EQ(t, kTimeNever); // no op yet

    std::vector<CollectiveResult> results;
    for (std::size_t i = 0; i < 2; ++i) {
        h.lib.postCollective(comm, CollOp::AllReduce, gib(1),
                             [&](const CollectiveResult &r) {
                                 results.push_back(r);
                             });
        // Mid-op, every rank has beaten since the op started, and some
        // since then again.
        h.sim.run(h.sim.now() + milliseconds(20));
        ASSERT_EQ(results.size(), i);
        const Time start = h.lib.currentOp(comm)->startTime;
        for (Time t : h.lib.heartbeats(comm)) {
            EXPECT_GE(t, start);
            EXPECT_LE(t, h.sim.now());
        }
        EXPECT_GT(*std::ranges::max_element(h.lib.heartbeats(comm)),
                  start);

        // At completion, every rank beats.
        h.sim.run();
        ASSERT_EQ(results.size(), i + 1);
        for (Time t : h.lib.heartbeats(comm))
            EXPECT_EQ(t, results.back().endTime);
    }
    EXPECT_GT(results[1].endTime, results[0].endTime);
}

TEST(Accl, OpProgressLifecycle)
{
    Harness h(2);
    const CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    EXPECT_EQ(h.lib.currentOp(comm), nullptr); // nothing posted yet

    std::vector<Duration> delays(16, 0);
    delays[5] = milliseconds(10); // rank 5 enters late
    CollectiveResult res;
    const CollSeq seq = h.lib.postCollective(
        comm, CollOp::AllGather, gib(1),
        [&](const CollectiveResult &r) { res = r; }, delays);
    const OpProgress *op = h.lib.currentOp(comm);
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->comm, comm);
    EXPECT_EQ(op->seq, seq);
    EXPECT_EQ(op->op, CollOp::AllGather);
    EXPECT_EQ(op->bytes, gib(1));
    EXPECT_TRUE(op->posted());
    EXPECT_FALSE(op->started());

    h.sim.run(milliseconds(11));
    op = h.lib.currentOp(comm);
    EXPECT_EQ(op->startTime, milliseconds(10));
    EXPECT_FALSE(op->finished());

    h.sim.run();
    op = h.lib.currentOp(comm);
    EXPECT_EQ(op->postTime, res.postTime);
    EXPECT_EQ(op->startTime, res.startTime);
    EXPECT_EQ(op->endTime, res.endTime);
    EXPECT_TRUE(op->finished());

    // The next op to begin replaces it.
    const CollSeq next =
        h.lib.postCollective(comm, CollOp::AllReduce, mib(1), nullptr);
    op = h.lib.currentOp(comm);
    EXPECT_EQ(next, seq + 1);
    EXPECT_EQ(op->seq, next);
    EXPECT_EQ(op->op, CollOp::AllReduce);
    EXPECT_FALSE(op->started());
    EXPECT_FALSE(op->finished());
}

TEST(Accl, DestroyedCommunicatorHasNoProgress)
{
    Harness h(2);
    const CommId gone = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    const CommId kept = h.lib.createCommunicator(2, h.fullNodes({0, 1}));
    for (CommId c : {gone, kept})
        h.lib.postCollective(c, CollOp::AllReduce, gib(1), nullptr);
    h.sim.run(milliseconds(5));
    ASSERT_NE(h.lib.currentOp(gone), nullptr);
    const OpProgress before = *h.lib.currentOp(kept);
    const std::span<const Time> kept_beats = h.lib.heartbeats(kept);
    const std::vector<Time> beats(kept_beats.begin(), kept_beats.end());

    h.lib.destroyCommunicator(gone); // mid-op
    EXPECT_EQ(h.lib.currentOp(gone), nullptr);
    EXPECT_TRUE(h.lib.heartbeats(gone).empty());

    // The other communicator is untouched.
    const OpProgress *op = h.lib.currentOp(kept);
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->seq, before.seq);
    EXPECT_EQ(op->startTime, before.startTime);
    EXPECT_TRUE(std::ranges::equal(h.lib.heartbeats(kept), beats));
}

TEST(Accl, HeartbeatsHoldOneEntryPerRank)
{
    // Sized at creation: one entry per rank, none for an id that names
    // no communicator.
    Harness h(2);
    const CommId one = h.lib.createCommunicator(1, h.fullNodes({0}));
    const CommId two = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    EXPECT_EQ(h.lib.heartbeats(one).size(), 8u);
    EXPECT_EQ(h.lib.heartbeats(two).size(), 16u);
    EXPECT_TRUE(h.lib.heartbeats(kInvalidId).empty());
    EXPECT_TRUE(h.lib.heartbeats(two + 1).empty());
    EXPECT_EQ(h.lib.currentOp(two + 1), nullptr);

    h.lib.sendRecv(one, 0, 1, mib(1), nullptr);
    h.sim.run();
    EXPECT_EQ(h.lib.heartbeats(one).size(), 8u);
    for (Time t : h.lib.heartbeats(one))
        EXPECT_NE(t, kTimeNever);
    for (Time t : h.lib.heartbeats(two))
        EXPECT_EQ(t, kTimeNever); // another communicator's op
}

TEST(Accl, IdsNamingNoCommunicatorAreUnknownEverywhere)
{
    Harness h(2);
    const CommId gone = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    const CommId kept = h.lib.createCommunicator(2, h.fullNodes({0, 1}));
    h.lib.postCollective(gone, CollOp::AllReduce, gib(1), nullptr);
    h.sim.run(milliseconds(5));
    h.lib.destroyCommunicator(gone);
    for (CommId unknown : {kInvalidId, CommId{0}, gone, kept + 1}) {
        EXPECT_FALSE(h.lib.hasCommunicator(unknown)) << unknown;
        EXPECT_EQ(h.lib.currentOp(unknown), nullptr) << unknown;
        EXPECT_TRUE(h.lib.heartbeats(unknown).empty()) << unknown;
        EXPECT_THROW(h.lib.communicator(unknown), std::out_of_range)
            << unknown;
    }
    // Ids stay dense: a destroyed id is not handed out again.
    EXPECT_TRUE(h.lib.hasCommunicator(kept));
    EXPECT_EQ(h.lib.createCommunicator(3, h.fullNodes({0})), kept + 1);
}

TEST(Accl, DestroyCommunicatorAbortsInFlight)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, gib(8),
                         [&](const CollectiveResult &) { fired = true; });
    h.sim.run(milliseconds(10));
    h.lib.destroyCommunicator(comm);
    EXPECT_FALSE(h.lib.hasCommunicator(comm));
    h.sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(h.fabric.activeFlowCount(), 0u);
}

TEST(Accl, ResultBookkeepingConsistent)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    CollectiveResult res;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(128),
                         [&](const CollectiveResult &r) { res = r; });
    h.sim.run();
    EXPECT_EQ(res.comm, comm);
    EXPECT_EQ(res.nranks, 16);
    EXPECT_EQ(res.bytes, mib(128));
    EXPECT_GE(res.startTime, res.postTime);
    EXPECT_GT(res.endTime, res.startTime);
    EXPECT_NEAR(toGbps(res.busBw()),
                toGbps(res.algBw()) * busFactor(CollOp::AllReduce, 16),
                0.01);
}

TEST(Accl, PolicyRebalanceWeightsRespected)
{
    // A policy that puts all weight on QP 0 of a 2-QP connection: QP 1
    // must carry (almost) nothing.
    class LopsidedPolicy : public PathPolicy
    {
      public:
        PathDecision
        decide(const ConnContext &ctx) override
        {
            PathDecision d;
            d.txPlane = net::planeFromIndex(ctx.qpIndex % 2);
            d.rxPlane = net::planeIndex(d.txPlane);
            d.spine = ctx.qpIndex;
            return d;
        }
        bool
        rebalance(std::span<const ConnContext>, std::span<PathDecision>,
                  std::span<double> weights) override
        {
            if (weights.size() == 2) {
                weights[0] = 1.0;
                weights[1] = 0.0;
                return true;
            }
            return false;
        }
    };

    AcclConfig ac;
    ac.qpsPerConnection = 2;
    Harness h(testutil::flatConfig(2), testutil::quietFabricConfig(),
              ac);
    Accl &lib = h.lib;

    LopsidedPolicy policy;
    lib.setPathPolicy(&policy);

    CommId comm = lib.createCommunicator(1, h.fullNodes({0, 1}));

    bool fired = false;
    lib.postCollective(comm, CollOp::AllReduce, mib(64),
                       [&](const CollectiveResult &) { fired = true; });
    h.sim.run();
    EXPECT_TRUE(fired);

    // QP 1 carries traffic only in each connection's first round (the
    // rebalance fires between rounds): 2 boundaries x 2 channels = 4
    // messages; QP 0 carries all 8 simulated rounds.
    int qp0_msgs = 0, qp1_msgs = 0;
    std::vector<ConnRecord> conns;
    lib.monitor().drainConn(conns);
    for (const auto &rec : conns) {
        if (rec.qpIndex == 0)
            ++qp0_msgs;
        else
            ++qp1_msgs;
    }
    EXPECT_EQ(qp1_msgs, 4);
    EXPECT_EQ(qp0_msgs, 2 * 2 * 8);
}

TEST(Accl, SteadyCollectivesDoNotAllocate)
{
    // Ring allreduces on a fixed 4-node communicator, each followed by a
    // drain of the monitor into reused vectors (what a C4 agent does):
    // once a warm-up has grown the Exec, connection cache, monitor,
    // fabric and kernel buffers, a collective allocates nothing.
    Harness h(4);
    const CommId comm = h.fullComm(4);
    int done = 0;
    std::vector<ConnRecord> conns;
    std::vector<RankWaitRecord> waits;
    auto one = [&] {
        h.lib.postCollective(comm, CollOp::AllReduce, mib(64),
                             [&done](const CollectiveResult &) { ++done; });
        h.sim.run();
        h.lib.monitor().drainConn(conns);
        h.lib.monitor().drainRankWait(waits);
    };
    for (int i = 0; i < 8; ++i)
        one();
    const std::uint64_t before = perf::allocStatsNow().count;
    for (int i = 0; i < 32; ++i)
        one();
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(done, 40);
    EXPECT_FALSE(conns.empty());
    EXPECT_EQ(allocs, 0u);
}

/**
 * Two jobs' communicators over the same four nodes, both mid-allreduce
 * on a noisy fabric, recording every fabric recompute.
 */
struct TeardownRun
{
    // Declared first: the harness still records while it tears down.
    trace::TraceRecorder recorder{
        trace::kindBit(trace::EventKind::RecomputeBegin) |
        trace::kindBit(trace::EventKind::RecomputeEnd)};
    Harness h{testutil::flatConfig(4), net::FabricConfig{}};
    CommId victim = kInvalidId;
    CommId other = kInvalidId;

    TeardownRun()
    {
        h.sim.setTracer(trace::TraceScope(&recorder));
        victim = h.fullComm(4, 1);
        other = h.fullComm(4, 2);
        for (CommId c : {victim, other})
            h.lib.postCollective(c, CollOp::AllReduce, gib(4), nullptr);
        h.sim.run(milliseconds(3));
    }

    std::vector<FlowId>
    liveFlows() const
    {
        std::vector<FlowId> ids;
        for (FlowId id = 0;
             id <= static_cast<FlowId>(h.fabric.totalFlowsStarted()) + 1;
             ++id) {
            if (h.fabric.flowRoute(id) != nullptr)
                ids.push_back(id);
        }
        return ids;
    }
};

TEST(Accl, TeardownAbortsLiveFlowsInAscendingIdOrder)
{
    // Each abortFlow flushes a recompute, so the order a destroyed
    // communicator aborts its flows in reaches the recompute trace and,
    // through the CNP-noise draws, the survivors' rates. It must be
    // ascending FlowId order, not hash-container order.
    TeardownRun destroyed;
    const std::vector<FlowId> all = destroyed.liveFlows();
    destroyed.h.lib.destroyCommunicator(destroyed.victim);
    const std::vector<FlowId> survivors = destroyed.liveFlows();
    std::vector<FlowId> victims;
    std::set_difference(all.begin(), all.end(), survivors.begin(),
                        survivors.end(), std::back_inserter(victims));
    ASSERT_GE(victims.size(), 4u);
    ASSERT_FALSE(survivors.empty());

    TeardownRun byHand;
    ASSERT_EQ(byHand.liveFlows(), all);
    for (FlowId id : victims)
        EXPECT_TRUE(byHand.h.fabric.abortFlow(id));

    for (FlowId id : survivors) {
        EXPECT_EQ(destroyed.h.fabric.flowRate(id),
                  byHand.h.fabric.flowRate(id))
            << "flow " << id;
    }
    for (NodeId n = 0; n < 4; ++n) {
        for (NicId nic = 0; nic < destroyed.h.topo.nicsPerNode(); ++nic) {
            EXPECT_EQ(destroyed.h.fabric.nicCnpRate(n, nic),
                      byHand.h.fabric.nicCnpRate(n, nic));
        }
    }
    EXPECT_GT(destroyed.recorder.size(), 0u);
    EXPECT_EQ(destroyed.recorder.events(), byHand.recorder.events());
}

TEST(Accl, DestroyFromAnotherCommsCallbackInTheSameBatch)
{
    // Two communicators on the same node pair finish their rounds at the
    // same instant, so their last flows complete in one fabric batch.
    // The first callback destroys the other communicator: its pending
    // callbacks in the batch must not run against the destroyed Exec.
    Harness h(2);
    const CommId a = h.fullComm({0, 1}, 1);
    const CommId b = h.fullComm({0, 1}, 2);
    int finished = 0;
    h.lib.postCollective(a, CollOp::AllReduce, mib(64),
                         [&](const CollectiveResult &) {
                             ++finished;
                             h.lib.destroyCommunicator(b);
                         });
    h.lib.postCollective(b, CollOp::AllReduce, mib(64),
                         [&](const CollectiveResult &) { ++finished; });
    h.sim.run();
    EXPECT_EQ(finished, 1);
    EXPECT_FALSE(h.lib.hasCommunicator(b));
    EXPECT_EQ(h.fabric.activeFlowCount(), 0u);
    EXPECT_EQ(h.sim.pendingCount(), 0u);
}

} // namespace
} // namespace c4::accl
