/**
 * @file
 * Unit tests for the fluid fabric: max-min fair sharing, completions,
 * stalls, link failures with ECMP reroute, and the congestion overlay.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/fabric.h"
#include "net/philox.h"
#include "perf/perf.h"
#include "testutil/testutil.h"

namespace c4::net {
namespace {

using Harness = testutil::FabricHarness;
using testutil::podConfig;

TEST(Fabric, SingleFlowRunsAtPortRate)
{
    Harness h;
    Time end_time = 0;
    h.fabric.startFlow(h.request(0, 4), mib(250),
                       [&](const FlowEnd &end) {
                           end_time = end.endTime;
                           // 250 MiB at 200 Gbps ~= 10.49 ms
                           EXPECT_NEAR(toGbps(end.achievedRate()), 200.0,
                                       1.0);
                       });
    h.sim.run();
    EXPECT_GT(end_time, 0);
    EXPECT_EQ(h.fabric.totalFlowsCompleted(), 1u);
}

TEST(Fabric, TwoFlowsOnSamePortSplitFairly)
{
    Harness h;
    int done = 0;
    // Same source NIC/plane -> share the 200 Gbps host uplink.
    for (std::uint32_t i = 0; i < 2; ++i) {
        h.fabric.startFlow(h.request(0, 4 + static_cast<NodeId>(i), i),
                           mib(100), [&](const FlowEnd &end) {
                               ++done;
                               EXPECT_NEAR(toGbps(end.achievedRate()),
                                           100.0, 2.0);
                           });
    }
    h.sim.run();
    EXPECT_EQ(done, 2);
}

TEST(Fabric, FlowRateQueryMatchesAllocation)
{
    Harness h;
    const FlowId f = h.fabric.startFlow(h.request(0, 4), gib(1), nullptr);
    EXPECT_NEAR(toGbps(h.fabric.flowRate(f)), 200.0, 0.1);
    EXPECT_EQ(h.fabric.activeFlowCount(), 1u);
}

TEST(Fabric, UnequalShareWhenOneFlowIsElsewhereBottlenecked)
{
    Harness h;
    // Flow A: node0 -> node4 via spine 0. Flow B: node1 -> node4 via
    // spine 0 as well, but B's host uplink is degraded to 50 Gbps.
    h.fabric.setLinkCapacityScale(
        h.topo.hostUplink(1, 0, Plane::Left), 0.25);
    const FlowId a = h.fabric.startFlow(
        h.request(0, 4, 1, /*spine=*/0, planeIndex(Plane::Left)),
        gib(1), nullptr);
    const FlowId b = h.fabric.startFlow(
        h.request(1, 4, 2, /*spine=*/0, planeIndex(Plane::Left)),
        gib(1), nullptr);
    // Max-min: B gets 50, A picks up the remaining 150 of the trunk...
    // but both land on node4's single 200 Gbps downlink, so A gets 150.
    EXPECT_NEAR(toGbps(h.fabric.flowRate(b)), 50.0, 1.0);
    EXPECT_NEAR(toGbps(h.fabric.flowRate(a)), 150.0, 1.0);
}

TEST(Fabric, CompletionTimesAreBandwidthAccurate)
{
    Harness h;
    Time done_at = 0;
    h.fabric.startFlow(h.request(0, 4), mib(100),
                       [&](const FlowEnd &end) { done_at = end.endTime; });
    h.sim.run();
    // 100 MiB * 8 / 200 Gbps = 4.194 ms
    EXPECT_NEAR(toMilliseconds(done_at), 4.194, 0.05);
}

TEST(Fabric, AbortSuppressesCallback)
{
    Harness h;
    bool fired = false;
    const FlowId f = h.fabric.startFlow(h.request(0, 4), mib(10),
                                        [&](const FlowEnd &) {
                                            fired = true;
                                        });
    EXPECT_TRUE(h.fabric.abortFlow(f));
    EXPECT_FALSE(h.fabric.abortFlow(f));
    h.sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(h.fabric.totalFlowsCompleted(), 0u);
}

TEST(Fabric, StallAndResume)
{
    Harness h;
    bool fired = false;
    const FlowId f = h.fabric.startFlow(h.request(0, 4), mib(10),
                                        [&](const FlowEnd &) {
                                            fired = true;
                                        });
    h.fabric.stallFlow(f);
    h.sim.run(seconds(10));
    EXPECT_FALSE(fired);
    EXPECT_DOUBLE_EQ(h.fabric.flowRate(f), 0.0);

    h.fabric.resumeFlow(f);
    h.sim.run();
    EXPECT_TRUE(fired);
}

TEST(Fabric, ProgressPreservedAcrossReallocation)
{
    Harness h;
    Time done_at = 0;
    // One flow alone for 2 ms, then a competitor arrives.
    h.fabric.startFlow(h.request(0, 4, 1), mib(100),
                       [&](const FlowEnd &end) { done_at = end.endTime; });
    h.sim.scheduleAt(milliseconds(2), [&] {
        h.fabric.startFlow(h.request(0, 5, 2), mib(100), nullptr);
    });
    h.sim.run();
    // First 2 ms at 200 Gbps moves ~47.7 MiB; remaining ~52.3 MiB at
    // 100 Gbps takes ~4.39 ms -> total ~6.39 ms.
    EXPECT_NEAR(toMilliseconds(done_at), 6.39, 0.1);
}

TEST(Fabric, LinkDownStallsWhenNoAlternative)
{
    Harness h;
    bool fired = false;
    const FlowId f = h.fabric.startFlow(h.request(0, 4), mib(10),
                                        [&](const FlowEnd &) {
                                            fired = true;
                                        });
    h.fabric.setLinkUp(h.topo.hostUplink(0, 0, Plane::Left), false);
    h.sim.run(seconds(1));
    EXPECT_FALSE(fired);
    EXPECT_DOUBLE_EQ(h.fabric.flowRate(f), 0.0);

    // Restoration re-resolves the route and the flow completes.
    h.fabric.setLinkUp(h.topo.hostUplink(0, 0, Plane::Left), true);
    h.sim.run();
    EXPECT_TRUE(fired);
}

TEST(Fabric, TrunkFailureReroutesViaSurvivingSpines)
{
    Harness h;
    bool fired = false;
    const FlowId f =
        h.fabric.startFlow(h.request(0, 4), gib(1),
                           [&](const FlowEnd &) { fired = true; });
    const Route *route = h.fabric.flowRoute(f);
    ASSERT_NE(route, nullptr);
    const int original_spine = route->spine;
    ASSERT_GE(original_spine, 0);

    const int tx_leaf = h.topo.leafIndex(0, Plane::Left);
    h.fabric.setLinkUp(h.topo.trunkUplink(tx_leaf, original_spine),
                       false);
    route = h.fabric.flowRoute(f);
    ASSERT_NE(route, nullptr);
    ASSERT_TRUE(route->valid());
    EXPECT_NE(route->spine, original_spine);

    h.sim.run();
    EXPECT_TRUE(fired);
}

TEST(Fabric, LinkThroughputTracksAllocations)
{
    Harness h;
    const LinkId up = h.topo.hostUplink(0, 0, Plane::Left);
    EXPECT_DOUBLE_EQ(h.fabric.linkThroughput(up), 0.0);
    h.fabric.startFlow(h.request(0, 4), gib(10), nullptr);
    EXPECT_NEAR(toGbps(h.fabric.linkThroughput(up)), 200.0, 0.1);
    EXPECT_TRUE(h.fabric.linkCongested(up));
}

TEST(Fabric, DemandRatioReflectsOverload)
{
    Harness h;
    // Two full-rate flows forced onto one spine trunk.
    h.fabric.startFlow(h.request(0, 4, 1, 0, planeIndex(Plane::Left)),
                       gib(1), nullptr);
    h.fabric.startFlow(h.request(1, 5, 2, 0, planeIndex(Plane::Left)),
                       gib(1), nullptr);
    const int tx_leaf = h.topo.leafIndex(0, Plane::Left);
    const LinkId trunk = h.topo.trunkUplink(tx_leaf, 0);
    EXPECT_NEAR(h.fabric.linkDemandRatio(trunk), 2.0, 0.01);
    EXPECT_TRUE(h.fabric.linkCongested(trunk));
}

TEST(Fabric, CnpRateAppearsUnderCongestion)
{
    FabricConfig fc;
    fc.congestionJitter = true;
    fc.cnpRatePerOverload = 15000.0;
    Harness h(podConfig(), fc);
    // Two flows from the same NIC pinned through one trunk: demand 2x.
    h.fabric.startFlow(h.request(0, 4, 1, 0, planeIndex(Plane::Left)),
                       gib(10), nullptr);
    h.fabric.startFlow(h.request(0, 5, 2, 0, planeIndex(Plane::Left)),
                       gib(10), nullptr);
    const double cnp = h.fabric.nicCnpRate(0, 0);
    EXPECT_GT(cnp, 5000.0);
    EXPECT_LT(cnp, 50000.0);
}

TEST(Fabric, NoCnpWithoutCongestion)
{
    Harness h;
    h.fabric.startFlow(h.request(0, 4), gib(1), nullptr);
    // A single flow on its own path saturates links but demand == 1.
    EXPECT_DOUBLE_EQ(h.fabric.nicCnpRate(0, 0), 0.0);
}

TEST(Fabric, JitterReducesRatesSlightly)
{
    FabricConfig fc;
    fc.congestionJitter = true;
    fc.jitterMax = 0.06;
    Harness h(podConfig(), fc);
    const FlowId a = h.fabric.startFlow(
        h.request(0, 4, 1, 0, planeIndex(Plane::Left)), gib(1), nullptr);
    h.fabric.startFlow(h.request(1, 5, 2, 0, planeIndex(Plane::Left)),
                       gib(1), nullptr);
    const double rate = toGbps(h.fabric.flowRate(a));
    EXPECT_LE(rate, 100.0 + 1e-9);
    EXPECT_GE(rate, 100.0 * (1.0 - fc.jitterMax) - 1e-9);
}

TEST(Fabric, ManyFlowsAllComplete)
{
    Harness h;
    int done = 0;
    std::uint32_t label = 0;
    for (NodeId src = 0; src < 8; ++src) {
        for (int i = 0; i < 4; ++i) {
            PathRequest req = h.request(src, 8 + (src + i) % 8, ++label);
            req.srcNic = i % h.topo.nicsPerNode();
            h.fabric.startFlow(req, mib(64),
                               [&](const FlowEnd &) { ++done; });
        }
    }
    h.sim.run();
    EXPECT_EQ(done, 32);
    EXPECT_EQ(h.fabric.activeFlowCount(), 0u);
}

TEST(Fabric, ZeroAndTinyFlows)
{
    Harness h;
    int done = 0;
    h.fabric.startFlow(h.request(0, 4), 1, [&](const FlowEnd &end) {
        ++done;
        EXPECT_EQ(end.bytes, 1);
    });
    h.fabric.startFlow(h.request(0, 5, 2), 100,
                       [&](const FlowEnd &) { ++done; });
    h.sim.run();
    EXPECT_EQ(done, 2);
}

// ---------------------------------------------------------------------
// Incremental recompute: shadow equivalence against the full rebuild
// ---------------------------------------------------------------------

/**
 * Two fabrics over identical topologies: one incremental (the
 * default), one treating every flow as dirty on every recompute.
 * Every mutation is applied to both; equal() then compares the
 * complete observable state. Overlay draws are keyed by (seed, flow
 * id, per-flow counter) and taken only when a flow's inputs change,
 * so the comparison is exact, not approximate.
 */
struct ShadowPair
{
    Simulator simA, simB;
    Topology topoA, topoB;
    Fabric incr, full;
    std::vector<FlowId> ids; // admission order; identical in both
    Time now = 0;

    explicit ShadowPair(FabricConfig fc = testutil::quietFabricConfig(),
                        TopologyConfig tc = podConfig())
        : topoA(tc), topoB(tc),
          incr(simA, topoA, withIncremental(fc, true)),
          full(simB, topoB, withIncremental(fc, false))
    {
    }

    static FabricConfig
    withIncremental(FabricConfig fc, bool on)
    {
        fc.incrementalRecompute = on;
        return fc;
    }

    FlowId
    start(const PathRequest &req, Bytes bytes)
    {
        const FlowId a = incr.startFlow(req, bytes, nullptr);
        const FlowId b = full.startFlow(req, bytes, nullptr);
        EXPECT_EQ(a, b);
        ids.push_back(a);
        return a;
    }

    void
    startExplicit(Route route, Bytes bytes)
    {
        Route copy = route;
        const FlowId a =
            incr.startFlowOnRoute(std::move(route), bytes, nullptr);
        const FlowId b =
            full.startFlowOnRoute(std::move(copy), bytes, nullptr);
        EXPECT_EQ(a, b);
        ids.push_back(a);
    }

    void
    advance(Duration dt)
    {
        now += dt;
        simA.run(now);
        simB.run(now);
    }

    /** Compare every observable: flow rates and remaining bytes, link
     * throughput/congestion/demand, per-NIC CNP aggregates. */
    void
    equal()
    {
        ASSERT_EQ(incr.activeFlowCount(), full.activeFlowCount());
        for (FlowId id : ids) {
            ASSERT_EQ(incr.flowActive(id), full.flowActive(id))
                << "flow " << id;
            if (!incr.flowActive(id))
                continue;
            EXPECT_DOUBLE_EQ(incr.flowRate(id), full.flowRate(id))
                << "flow " << id;
            EXPECT_EQ(incr.flowRemaining(id), full.flowRemaining(id))
                << "flow " << id;
        }
        for (std::size_t l = 0; l < topoA.numLinks(); ++l) {
            const LinkId id = static_cast<LinkId>(l);
            EXPECT_DOUBLE_EQ(incr.linkThroughput(id),
                             full.linkThroughput(id))
                << "link " << id;
            EXPECT_EQ(incr.linkCongested(id), full.linkCongested(id))
                << "link " << id;
            EXPECT_DOUBLE_EQ(incr.linkDemandRatio(id),
                             full.linkDemandRatio(id))
                << "link " << id;
        }
        for (NodeId n = 0; n < topoA.numNodes(); ++n)
            for (NicId k = 0; k < topoA.nicsPerNode(); ++k)
                EXPECT_DOUBLE_EQ(incr.nicCnpRate(n, k),
                                 full.nicCnpRate(n, k))
                    << "nic " << n << "/" << k;
    }
};

/** Randomized event soup driving both allocators in lockstep. */
void
runShadowEquivalence(std::uint64_t seed, FabricConfig fc)
{
    ShadowPair p(fc);
    Rng ev(seed);
    PathSelector sel(p.topoA);
    std::uint32_t label = 0;

    const int trunks = p.topoA.numLeaves() * p.topoA.numSpines();
    auto randomTrunk = [&] {
        const int leaf =
            static_cast<int>(ev.uniformInt(0, p.topoA.numLeaves() - 1));
        const int spine =
            static_cast<int>(ev.uniformInt(0, p.topoA.numSpines() - 1));
        return p.topoA.trunkUplink(leaf, spine);
    };
    (void)trunks;

    for (int step = 0; step < 150; ++step) {
        const double roll = ev.uniform();
        if (roll < 0.35) {
            PathRequest req;
            req.srcNode = static_cast<NodeId>(
                ev.uniformInt(0, p.topoA.numNodes() / 2 - 1));
            req.dstNode = static_cast<NodeId>(ev.uniformInt(
                p.topoA.numNodes() / 2, p.topoA.numNodes() - 1));
            req.srcNic = static_cast<NicId>(
                ev.uniformInt(0, p.topoA.nicsPerNode() - 1));
            req.dstNic = req.srcNic;
            req.flowLabel = ++label;
            p.start(req, mib(static_cast<Bytes>(
                             ev.uniformInt(1, 512))));
        } else if (roll < 0.45 && !p.ids.empty()) {
            const FlowId id = p.ids[static_cast<std::size_t>(
                ev.uniformInt(0, static_cast<std::int64_t>(
                                     p.ids.size() - 1)))];
            EXPECT_EQ(p.incr.abortFlow(id), p.full.abortFlow(id));
        } else if (roll < 0.55 && !p.ids.empty()) {
            const FlowId id = p.ids[static_cast<std::size_t>(
                ev.uniformInt(0, static_cast<std::int64_t>(
                                     p.ids.size() - 1)))];
            if (ev.chance(0.5)) {
                p.incr.stallFlow(id);
                p.full.stallFlow(id);
            } else {
                p.incr.resumeFlow(id);
                p.full.resumeFlow(id);
            }
        } else if (roll < 0.7) {
            const LinkId id = randomTrunk();
            const bool up = !p.topoA.link(id).up;
            p.incr.setLinkUp(id, up);
            p.full.setLinkUp(id, up);
        } else if (roll < 0.8) {
            const LinkId id = randomTrunk();
            const double scale = ev.uniform(0.3, 1.0);
            p.incr.setLinkCapacityScale(id, scale);
            p.full.setLinkCapacityScale(id, scale);
        } else if (roll < 0.87) {
            // An explicit-route (prober-style) flow on whatever path
            // is currently healthy for a random pair. The NICs must be
            // real ones: PathSelector::select indexes host links by
            // (node, nic) and asserts on kInvalidId.
            PathRequest req;
            req.srcNode = 0;
            req.dstNode = static_cast<NodeId>(
                ev.uniformInt(4, p.topoA.numNodes() - 1));
            req.srcNic = static_cast<NicId>(
                ev.uniformInt(0, p.topoA.nicsPerNode() - 1));
            req.dstNic = req.srcNic;
            req.flowLabel = ++label;
            p.startExplicit(sel.select(req),
                            mib(static_cast<Bytes>(
                                ev.uniformInt(1, 64))));
        } else {
            p.advance(microseconds(ev.uniformInt(10, 2000)));
        }
        p.equal();
    }
    // Drain: restore all trunks and let the survivors finish.
    for (int leaf = 0; leaf < p.topoA.numLeaves(); ++leaf)
        for (int s = 0; s < p.topoA.numSpines(); ++s) {
            const LinkId id = p.topoA.trunkUplink(leaf, s);
            if (!p.topoA.link(id).up) {
                p.incr.setLinkUp(id, true);
                p.full.setLinkUp(id, true);
            }
        }
    p.advance(seconds(60));
    p.equal();
    EXPECT_EQ(p.incr.totalFlowsCompleted(),
              p.full.totalFlowsCompleted());
}

TEST(FabricIncremental, MatchesFullRebuildQuietSeed1)
{
    runShadowEquivalence(0xA11CE001, testutil::quietFabricConfig());
}

TEST(FabricIncremental, MatchesFullRebuildQuietSeed2)
{
    runShadowEquivalence(0xA11CE002, testutil::quietFabricConfig());
}

TEST(FabricIncremental, MatchesFullRebuildWithJitterAndCnpNoise)
{
    // Jitter + CNP noise on: both modes must take the same keyed
    // draws for the same flows, so even the noisy state compares
    // exactly.
    runShadowEquivalence(0xA11CE003, FabricConfig{});
}

TEST(FabricIncremental, RefillIsAtLeastFiveTimesCheaperThanRebuild)
{
    // The bench/golden locks exact counts; this is the in-tree floor.
    auto run = [](bool incremental) {
        net::TopologyConfig tc;
        tc.numNodes = 64;
        tc.nodesPerSegment = 4;
        Topology topo(tc);
        Simulator sim;
        FabricConfig fc = testutil::quietFabricConfig();
        fc.incrementalRecompute = incremental;
        Fabric fabric(sim, topo, fc);
        std::uint32_t label = 0;
        for (int i = 0; i < 256; ++i) {
            PathRequest req;
            req.srcNode = i % 32;
            req.srcNic = i % 8;
            req.dstNode = 32 + (i % 32);
            req.dstNic = i % 8;
            req.flowLabel = ++label;
            fabric.startFlow(req, gib(100), nullptr);
        }
        (void)fabric.flowRate(1);
        const std::uint64_t before = fabric.recomputeOpsTotal();
        for (int r = 0; r < 20; ++r) {
            fabric.setLinkUp(topo.trunkUplink(0, 0), false);
            (void)fabric.linkThroughput(0);
            fabric.setLinkUp(topo.trunkUplink(0, 0), true);
            (void)fabric.linkThroughput(0);
        }
        return fabric.recomputeOpsTotal() - before;
    };
    const std::uint64_t full = run(false);
    const std::uint64_t incr = run(true);
    EXPECT_GE(full, 5 * incr)
        << "full=" << full << " incr=" << incr;
}

TEST(FabricIncremental, CoalesceWindowBatchesLinkEvents)
{
    net::FabricConfig fc = testutil::quietFabricConfig();
    fc.coalesceWindow = milliseconds(1);
    Harness h(podConfig(), fc);
    std::uint32_t label = 0;
    for (NodeId src = 0; src < 4; ++src)
        h.fabric.startFlow(h.request(src, 8 + src, ++label), gib(10),
                           nullptr);
    (void)h.fabric.flowRate(1); // settle admission
    const std::uint64_t before = h.fabric.reallocationCount();

    // A storm of six link events at the same instant: one deferred
    // recompute, not six.
    for (int s = 0; s < 3; ++s)
        h.fabric.setLinkUp(h.topo.trunkUplink(0, s), false);
    for (int s = 0; s < 3; ++s)
        h.fabric.setLinkUp(h.topo.trunkUplink(1, s), false);
    h.sim.run(h.sim.now() + milliseconds(2));
    EXPECT_EQ(h.fabric.reallocationCount(), before + 1);

    // Queries force consistency even inside the window.
    h.fabric.setLinkUp(h.topo.trunkUplink(0, 0), true);
    EXPECT_GE(h.fabric.flowRate(1), 0.0);
    EXPECT_EQ(h.fabric.reallocationCount(), before + 2);
}

// ---------------------------------------------------------------------
// Regressions: recovery rebalance, overflow clamp, jitter bias, bounds
// ---------------------------------------------------------------------

TEST(Fabric, LinkRestoreRebalancesFlowsReroutedDuringOutage)
{
    Harness h;
    // Enough flows from one segment that several hash across spine 0.
    std::vector<FlowId> flows;
    std::uint32_t label = 0;
    for (int i = 0; i < 16; ++i) {
        PathRequest req = h.request(i % 4, 8 + i % 4, ++label);
        req.srcNic = i % h.topo.nicsPerNode();
        req.dstNic = req.srcNic;
        flows.push_back(h.fabric.startFlow(req, gib(100), nullptr));
    }
    (void)h.fabric.flowRate(flows.front());
    std::vector<std::vector<LinkId>> before;
    for (FlowId f : flows)
        before.push_back(h.fabric.flowRoute(f)->links);

    // Outage moves everything off spine 0; recovery must rebalance
    // every request-backed flow to its deterministic pre-outage path,
    // not only the ones that lost their route entirely.
    const LinkId trunk = h.topo.trunkUplink(0, 0);
    h.fabric.setLinkUp(trunk, false);
    h.fabric.setLinkUp(trunk, true);
    for (std::size_t i = 0; i < flows.size(); ++i)
        EXPECT_EQ(h.fabric.flowRoute(flows[i])->links, before[i])
            << "flow " << flows[i];
}

TEST(Fabric, NearZeroRateDoesNotOverflowCompletionTime)
{
    // A capacity so small the completion lands beyond the int64
    // nanosecond horizon: the old code cast (secs * 1e9) to Duration,
    // which was UB and in practice scheduled completion at now + 1.
    net::TopologyConfig tc = podConfig();
    tc.portBandwidth = 1e-3; // 1 millibit/s
    Harness h(tc);
    bool fired = false;
    const FlowId f = h.fabric.startFlow(
        h.request(0, 4), gib(1), [&](const FlowEnd &) { fired = true; });
    EXPECT_GT(h.fabric.flowRate(f), 0.0);
    h.sim.run(seconds(3600));
    EXPECT_FALSE(fired); // effectively stalled, not instantly done
    EXPECT_TRUE(h.fabric.flowActive(f));
    EXPECT_EQ(h.fabric.flowRemaining(f), gib(1));
}

TEST(Fabric, ExplicitRouteFlowsCarryDistinctJitterBias)
{
    // Two probers on the same congested uplink. Their DCQCN bias must
    // derive from the flow id (they share flowLabel == 0), so their
    // *mean* rates over many re-draws separate; with the old shared
    // bias the means coincide to within RNG noise.
    net::FabricConfig fc; // jitter ON
    Harness h(podConfig(), fc);
    PathSelector sel(h.topo);
    const Route route = sel.select(h.request(0, 4));
    const FlowId f1 =
        h.fabric.startFlowOnRoute(route, gib(1000), nullptr); // id 1
    h.fabric.startFlow(h.request(1, 5, 7), gib(1000), nullptr); // id 2
    const FlowId f3 =
        h.fabric.startFlowOnRoute(route, gib(1000), nullptr); // id 3

    // A flow draws new noise only when its overlay inputs change, so
    // each round nudges the shared host uplink's capacity: both
    // probers get a new fair share, hence a new draw.
    const int rounds = 400;
    double m1 = 0.0, m3 = 0.0;
    const LinkId shared = route.links.front();
    for (int r = 0; r < rounds; ++r) {
        h.fabric.setLinkCapacityScale(shared, r % 2 == 0 ? 0.99 : 1.0);
        m1 += h.fabric.flowRate(f1);
        m3 += h.fabric.flowRate(f3);
    }
    m1 /= rounds;
    m3 /= rounds;
    // Expected separation: 0.5 * jitterMax * |bias1 - bias3| * base,
    // with base = 100 Gbps and bias values ~0.35 vs ~0.72 for flow
    // ids 1 and 3 — about 1.1 Gbps. Mean RNG noise over 400 rounds is
    // ~0.05 Gbps, so a 0.5 Gbps floor is a safe discriminator.
    EXPECT_GT(m1 - m3, gbps(0.5))
        << "mean rates: " << toGbps(m1) << " vs " << toGbps(m3);
}

TEST(Fabric, OutOfRangeLinkQueriesAreSafe)
{
    Harness h;
    h.fabric.startFlow(h.request(0, 4), gib(1), nullptr);
    const LinkId past =
        static_cast<LinkId>(h.topo.numLinks());
    EXPECT_DOUBLE_EQ(h.fabric.linkThroughput(-1), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.linkThroughput(past), 0.0);
    EXPECT_FALSE(h.fabric.linkCongested(-1));
    EXPECT_FALSE(h.fabric.linkCongested(past + 1000));
    EXPECT_DOUBLE_EQ(h.fabric.linkDemandRatio(-5), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.linkDemandRatio(past), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.nicCnpRate(-1, 0), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.nicCnpRate(h.topo.numNodes(), 0), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.nicCnpRate(0, -1), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.nicCnpRate(0, h.topo.nicsPerNode()), 0.0);
}

TEST(Fabric, StaleFlowIdsAreInert)
{
    Harness h;
    bool fired = false;
    const FlowId done = h.fabric.startFlow(
        h.request(0, 4), mib(1), [&](const FlowEnd &) { fired = true; });
    h.sim.run();
    ASSERT_TRUE(fired);
    // Enough churn to compact the id index past the finished flow.
    std::vector<FlowId> aborted;
    for (std::uint32_t i = 0; i < 100; ++i)
        aborted.push_back(
            h.fabric.startFlow(h.request(1, 5, i + 2), gib(1), nullptr));
    for (FlowId id : aborted)
        EXPECT_TRUE(h.fabric.abortFlow(id));
    for (FlowId id : {done, aborted.front(), aborted.back(),
                      FlowId{0}, FlowId{-3}, aborted.back() + 1}) {
        EXPECT_FALSE(h.fabric.flowActive(id)) << id;
        EXPECT_FALSE(h.fabric.abortFlow(id)) << id;
        EXPECT_EQ(h.fabric.flowRoute(id), nullptr) << id;
        EXPECT_DOUBLE_EQ(h.fabric.flowRate(id), 0.0) << id;
        EXPECT_EQ(h.fabric.flowRemaining(id), 0) << id;
        h.fabric.stallFlow(id); // no-ops
        h.fabric.resumeFlow(id);
    }
    EXPECT_EQ(h.fabric.activeFlowCount(), 0u);
    // Ids keep counting up: never reused after the churn.
    EXPECT_EQ(h.fabric.startFlow(h.request(0, 4), mib(1), nullptr),
              aborted.back() + 1);
}

// ---------------------------------------------------------------------
// Order independence and steady-state cost
// ---------------------------------------------------------------------

TEST(Philox, MatchesRandom123KnownAnswers)
{
    EXPECT_EQ(philox4x32({0, 0, 0, 0}, {0, 0}),
              (PhiloxBlock{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu,
                           0x9b00dbd8u}));
    EXPECT_EQ(philox4x32({~0u, ~0u, ~0u, ~0u}, {~0u, ~0u}),
              (PhiloxBlock{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u,
                           0x6d5451fdu}));
    const UniformPair u = philoxUniforms(7, 3, 0);
    EXPECT_GE(u.first, 0.0);
    EXPECT_LT(u.first, 1.0);
    EXPECT_NE(u.first, philoxUniforms(7, 3, 1).first);
    EXPECT_NE(u.first, philoxUniforms(7, 4, 0).first);
    EXPECT_NE(u.first, philoxUniforms(8, 3, 0).first);
}

/** One logical flow of the order-independence workload. */
struct OrderFlow
{
    NodeId src;
    NodeId dst;
    NicId nic;
    std::uint32_t label;
    Bytes bytes;
};

/** Segment 0 -> segment 1 traffic; flows share NICs and trunks, so
 * links congest and per-NIC CNP sums have several terms. */
std::vector<OrderFlow>
orderFlows(int count, std::uint32_t firstLabel)
{
    std::vector<OrderFlow> out;
    for (int i = 0; i < count; ++i) {
        out.push_back({static_cast<NodeId>(i % 4),
                       static_cast<NodeId>(4 + (i * 3 + i / 4) % 4),
                       static_cast<NicId>(i % 3),
                       firstLabel + static_cast<std::uint32_t>(i),
                       mib(64 + 32 * (i % 5))});
    }
    return out;
}

/** What a run shows of the kept flows, by logical index. */
struct OrderRun
{
    std::vector<double> rates; // every flow, at each snapshot
    std::vector<double> cnp;   // NICs of nodes 0-7, at each snapshot
    std::vector<Time> ends;

    bool operator==(const OrderRun &) const = default;
};

/**
 * Admit the first wave of kept flows in @p order, decoys on disjoint
 * links (segments 2 -> 3) interleaved with it or after it, abort
 * decoys per @p abortPlan, admit a second wave at 1 ms, and record
 * rates, CNP sums and completion times.
 */
OrderRun
runOrder(FabricConfig fc, bool incremental,
         const std::vector<int> &order, bool interleaveDecoys,
         int abortPlan)
{
    fc.incrementalRecompute = incremental;
    Harness h(podConfig(), fc);
    const std::vector<OrderFlow> first = orderFlows(24, 1);
    const std::vector<OrderFlow> second = orderFlows(8, 100);
    const std::size_t kept = first.size() + second.size();
    OrderRun out;
    out.ends.assign(kept, -1);
    std::vector<FlowId> ids(kept, kInvalidId);
    std::vector<FlowId> decoys;

    auto startKept = [&](std::size_t i, const OrderFlow &f) {
        PathRequest req = h.request(f.src, f.dst, f.label);
        req.srcNic = req.dstNic = f.nic;
        ids[i] = h.fabric.startFlow(
            req, f.bytes,
            [&out, i](const FlowEnd &end) { out.ends[i] = end.endTime; });
    };
    auto startDecoy = [&] {
        const int k = static_cast<int>(decoys.size());
        PathRequest req = h.request(8 + k % 4, 12 + (k + 1) % 4,
                                    static_cast<std::uint32_t>(500 + k));
        req.srcNic = req.dstNic = static_cast<NicId>(k % 8);
        decoys.push_back(h.fabric.startFlow(req, mib(8 + k), nullptr));
    };
    auto snapshot = [&] {
        for (FlowId id : ids)
            out.rates.push_back(id == kInvalidId ? -1.0
                                                 : h.fabric.flowRate(id));
        for (NodeId n = 0; n < 8; ++n)
            for (NicId k = 0; k < h.topo.nicsPerNode(); ++k)
                out.cnp.push_back(h.fabric.nicCnpRate(n, k));
    };

    for (int i : order) {
        if (interleaveDecoys)
            startDecoy();
        startKept(static_cast<std::size_t>(i),
                  first[static_cast<std::size_t>(i)]);
    }
    if (!interleaveDecoys)
        for (int k = 0; k < 10; ++k)
            startDecoy();
    snapshot();
    if (abortPlan == 1) {
        for (FlowId d : decoys)
            h.fabric.abortFlow(d);
    }
    h.sim.run(microseconds(500));
    if (abortPlan == 2) {
        for (std::size_t k = decoys.size(); k-- > 0;)
            if (k % 2 == 1)
                h.fabric.abortFlow(decoys[k]);
    }
    h.sim.run(milliseconds(1));
    for (std::size_t i = 0; i < second.size(); ++i)
        startKept(first.size() + i, second[i]);
    snapshot();
    h.sim.run(milliseconds(8));
    snapshot();
    h.sim.run();
    return out;
}

std::vector<int>
identityOrder(int n)
{
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<std::size_t>(i)] = i;
    return order;
}

TEST(FabricOrder, AbortHistoryOfOtherFlowsDoesNotPerturbNoisyOverlay)
{
    // Jitter and CNP noise on. The kept flows get the same ids in
    // every run; the decoys around them are aborted at different
    // times and in different orders, so the kept flows land in
    // different slots and the id index compacts differently. Noise
    // drawn from one stream in table order would shift every flow's
    // numbers under any of this; keyed draws must not move.
    const std::vector<int> order = identityOrder(24);
    for (bool incremental : {true, false}) {
        const OrderRun base =
            runOrder(FabricConfig{}, incremental, order, false, 0);
        for (int plan : {1, 2}) {
            const OrderRun other =
                runOrder(FabricConfig{}, incremental, order, false, plan);
            EXPECT_TRUE(other == base)
                << "abort plan " << plan << " incremental "
                << incremental;
        }
        for (Time end : base.ends)
            EXPECT_GT(end, 0);
    }
}

TEST(FabricOrder, AdmissionOrderDoesNotChangeDeterministicAllocation)
{
    // With the stochastic terms off, the allocation is a function of
    // the flow set alone: admitting it in any order, with decoys
    // interleaved (shifting every id) and aborted on any schedule,
    // gives byte-identical rates, CNP sums and completion times.
    FabricConfig fc;
    fc.congestionJitter = false;
    fc.cnpNoise = 0.0;
    std::vector<int> reversed = identityOrder(24);
    std::reverse(reversed.begin(), reversed.end());
    std::vector<int> shuffled = identityOrder(24);
    Rng rng(0x0DE7);
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i - 1)))]);

    const OrderRun base =
        runOrder(fc, true, identityOrder(24), false, 0);
    EXPECT_TRUE(std::any_of(base.cnp.begin(), base.cnp.end(),
                            [](double c) { return c > 0.0; }))
        << "workload never congests; the CNP check would be vacuous";
    struct Case
    {
        const std::vector<int> *order;
        bool interleave;
        int plan;
    };
    const std::vector<int> ident = identityOrder(24);
    for (const Case &c : {Case{&reversed, false, 0},
                          Case{&shuffled, false, 2},
                          Case{&ident, true, 1},
                          Case{&reversed, true, 2},
                          Case{&shuffled, true, 0}}) {
        for (bool incremental : {true, false}) {
            EXPECT_TRUE(runOrder(fc, incremental, *c.order, c.interleave,
                                 c.plan) == base)
                << "interleave " << c.interleave << " plan " << c.plan
                << " incremental " << incremental;
        }
    }
}

TEST(Fabric, SteadyCapacityEventsDoNotAllocate)
{
    // A fixed flow set under repeated capacity-scale events: after a
    // warm-up grows the scratch buffers, the completion heap and the
    // kernel's event pool, a re-allocation allocates nothing.
    Harness h(podConfig(), FabricConfig{}); // overlay draws on
    std::uint32_t label = 0;
    FlowId first = kInvalidId;
    for (NodeId src = 0; src < 8; ++src) {
        for (NicId nic = 0; nic < 4; ++nic) {
            PathRequest req = h.request(src, 8 + (src + nic) % 8, ++label);
            req.srcNic = req.dstNic = nic;
            const FlowId id = h.fabric.startFlow(req, gib(1000), nullptr);
            if (first == kInvalidId)
                first = id;
        }
    }
    const LinkId trunk = h.fabric.flowRoute(first)->links[1];
    auto cycle = [&](int r) {
        h.fabric.setLinkCapacityScale(trunk, r % 2 == 0 ? 0.5 : 1.0);
        (void)h.fabric.nicCnpRate(0, 0);
        h.sim.run(h.sim.now() + microseconds(10));
    };
    for (int r = 0; r < 64; ++r)
        cycle(r);
    const std::uint64_t before = perf::allocStatsNow().count;
    const std::uint64_t reallocsBefore = h.fabric.reallocationCount();
    for (int r = 0; r < 256; ++r)
        cycle(r);
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(h.fabric.reallocationCount() - reallocsBefore, 256u);
    EXPECT_EQ(allocs, 0u);
}

} // namespace
} // namespace c4::net
