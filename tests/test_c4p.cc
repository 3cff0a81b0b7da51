/**
 * @file
 * C4P subsystem tests: the master's three allocation rules
 * (fault elimination, dual-port balance, spine balance), and dynamic
 * load balance re-pinning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "c4p/master.h"
#include "perf/perf.h"
#include "testutil/testutil.h"

namespace c4::c4p {
namespace {

using accl::ConnContext;
using accl::PathDecision;
using testutil::makeConnContext;
using testutil::podConfig;

TEST(C4pMaster, DualPortRulePinsRxPlane)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);

    for (int channel = 0; channel < 2; ++channel) {
        const PathDecision d =
            master.decide(makeConnContext(channel, 0));
        ASSERT_NE(d.rxPlane, kInvalidId);
        EXPECT_EQ(d.rxPlane, net::planeIndex(d.txPlane));
    }
}

TEST(C4pMaster, DualPortRuleCanBeDisabled)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pConfig cfg;
    cfg.balanceDualPort = false;
    C4pMaster master(sim, topo, cfg);
    EXPECT_EQ(master.decide(makeConnContext()).rxPlane, kInvalidId);
}

TEST(C4pMaster, SpineBalanceSpreadsQps)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);

    // 16 QPs from segment 0 to segment 1, all on the left plane
    // (channel 0): must spread 2-per-spine across the 8 spines.
    std::map<int, int> spine_counts;
    for (int i = 0; i < 16; ++i) {
        ConnContext ctx = makeConnContext(0, 0, /*src=*/0, /*dst=*/4);
        ctx.comm = i; // distinct QP identities
        const PathDecision d = master.decide(ctx);
        ASSERT_NE(d.spine, kInvalidId);
        ++spine_counts[d.spine];
    }
    EXPECT_EQ(spine_counts.size(), 8u);
    for (const auto &[spine, count] : spine_counts)
        EXPECT_EQ(count, 2);
    EXPECT_EQ(master.allocations(), 16u);
}

TEST(C4pMaster, LoadAccountingReleases)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);

    ConnContext ctx = makeConnContext();
    const PathDecision d = master.decide(ctx);
    const int tx_leaf = topo.leafIndex(0, d.txPlane);
    EXPECT_EQ(master.uplinkLoad(tx_leaf, d.spine), 1);
    master.release(ctx, d);
    EXPECT_EQ(master.uplinkLoad(tx_leaf, d.spine), 0);
    EXPECT_EQ(master.releases(), 1u);
}

TEST(C4pMaster, AvoidsFaultyTrunksAtAllocation)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);

    // Kill spine 0 and 1 uplinks from segment 0's left leaf.
    const int tx_leaf = topo.leafIndex(0, net::Plane::Left);
    topo.setLinkUp(topo.trunkUplink(tx_leaf, 0), false);
    topo.setLinkUp(topo.trunkUplink(tx_leaf, 1), false);

    for (int i = 0; i < 12; ++i) {
        ConnContext ctx = makeConnContext(0, 0);
        ctx.comm = i;
        const PathDecision d = master.decide(ctx);
        // Channel 0 departs the left plane from segment 0.
        EXPECT_NE(d.spine, 0);
        EXPECT_NE(d.spine, 1);
    }
}

TEST(C4pMaster, IntraSegmentNeedsNoSpine)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);
    const PathDecision d =
        master.decide(makeConnContext(0, 0, /*src=*/0, /*dst=*/1));
    EXPECT_EQ(d.spine, kInvalidId); // same segment: leaf-local
    EXPECT_NE(d.rxPlane, kInvalidId);
}

TEST(C4pMaster, DynamicRebalanceRepinsDeadSpine)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pConfig cfg;
    cfg.dynamicLoadBalance = true;
    cfg.rebalanceCooldown = 0;
    C4pMaster master(sim, topo, cfg);

    std::vector<ConnContext> ctxs = {makeConnContext(0, 0)};
    std::vector<PathDecision> decisions = {master.decide(ctxs[0])};
    std::vector<double> weights = {1.0};
    const int original = decisions[0].spine;
    ASSERT_NE(original, kInvalidId);

    // Feed some rate so the rebalance has data, then kill the trunk.
    accl::PathFeedback fb;
    fb.achievedRate = gbps(200);
    fb.bytes = mib(8);
    fb.duration = milliseconds(1);
    master.feedback(ctxs[0], decisions[0], fb);

    const int tx_leaf = topo.leafIndex(0, decisions[0].txPlane);
    topo.setLinkUp(topo.trunkUplink(tx_leaf, original), false);

    EXPECT_TRUE(master.rebalance(ctxs, decisions, weights));
    EXPECT_NE(decisions[0].spine, original);
    EXPECT_GE(master.repins(), 1u);
}

TEST(C4pMaster, DynamicRebalanceMovesSlowQp)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pConfig cfg;
    cfg.dynamicLoadBalance = true;
    cfg.rebalanceCooldown = 0;
    cfg.rebalanceRatio = 1.3;
    C4pMaster master(sim, topo, cfg);

    std::vector<ConnContext> ctxs = {makeConnContext(0, 0),
                                     makeConnContext(0, 1)};
    std::vector<PathDecision> decisions = {master.decide(ctxs[0]),
                                           master.decide(ctxs[1])};
    std::vector<double> weights = {1.0, 1.0};

    accl::PathFeedback fast;
    fast.achievedRate = gbps(200);
    accl::PathFeedback slow;
    slow.achievedRate = gbps(60);
    master.feedback(ctxs[0], decisions[0], fast);
    master.feedback(ctxs[1], decisions[1], slow);

    const int slow_spine = decisions[1].spine;
    EXPECT_TRUE(master.rebalance(ctxs, decisions, weights));
    EXPECT_NE(decisions[1].spine, slow_spine);
    // Weights shift toward the faster QP.
    EXPECT_GT(weights[0], weights[1]);
}

TEST(C4pMaster, RebalanceQuietWithoutDynamicMode)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo); // dynamicLoadBalance = false

    std::vector<ConnContext> ctxs = {makeConnContext(0, 0)};
    std::vector<PathDecision> decisions = {master.decide(ctxs[0])};
    std::vector<double> weights = {1.0};
    EXPECT_FALSE(master.rebalance(ctxs, decisions, weights));
}

TEST(C4pMaster, CooldownThrottlesRepins)
{
    Simulator sim;
    net::Topology topo(podConfig());
    C4pConfig cfg;
    cfg.dynamicLoadBalance = true;
    cfg.rebalanceCooldown = seconds(10);
    C4pMaster master(sim, topo, cfg);

    std::vector<ConnContext> ctxs = {makeConnContext(0, 0)};
    std::vector<PathDecision> decisions = {master.decide(ctxs[0])};
    std::vector<double> weights = {1.0};

    accl::PathFeedback fb;
    fb.achievedRate = gbps(100);
    master.feedback(ctxs[0], decisions[0], fb);

    const int tx_leaf = topo.leafIndex(0, decisions[0].txPlane);
    topo.setLinkUp(topo.trunkUplink(tx_leaf, decisions[0].spine),
                   false);
    EXPECT_TRUE(master.rebalance(ctxs, decisions, weights));
    const auto after_first = master.repins();

    // Immediately kill the new trunk too: cooldown forbids a repin.
    topo.setLinkUp(topo.trunkUplink(tx_leaf, decisions[0].spine),
                   false);
    master.rebalance(ctxs, decisions, weights);
    EXPECT_EQ(master.repins(), after_first);
}

/** C4pMaster::pickSpine as it was, building the healthy-spine list:
 * the reference the in-place count-and-pick must match. */
int
referencePickSpine(const net::Topology &topo, const C4pMaster &master,
                   int tx_leaf, int rx_leaf, int exclude)
{
    std::vector<int> healthy = topo.healthySpines(tx_leaf, rx_leaf);
    if (healthy.size() > 1 && exclude != kInvalidId) {
        healthy.erase(
            std::remove(healthy.begin(), healthy.end(), exclude),
            healthy.end());
    }
    if (healthy.empty())
        return kInvalidId;

    int best = healthy.front();
    int best_load = std::numeric_limits<int>::max();
    for (int s : healthy) {
        const int load = master.uplinkLoad(tx_leaf, s) +
                         master.downlinkLoad(s, rx_leaf);
        if (load < best_load) {
            best_load = load;
            best = s;
        }
    }
    return best;
}

TEST(C4pMaster, PickSpineMatchesTheListReference)
{
    // Random trunk failures and random allocations: for every leaf
    // pair and every exclude (none, each spine, one past the last),
    // the master picks what the list-building version picks. Some
    // rounds leave a pair a single healthy spine, others a leaf none.
    Simulator sim;
    net::Topology topo(podConfig());
    C4pMaster master(sim, topo);
    std::mt19937_64 rng(23);
    auto uniform = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int leaves = topo.numLeaves();
    const int spines = topo.numSpines();
    int single = 0;
    int none = 0;
    for (int round = 0; round < 60; ++round) {
        for (int leaf = 0; leaf < leaves; ++leaf) {
            for (int s = 0; s < spines; ++s) {
                topo.setLinkUp(topo.trunkUplink(leaf, s),
                               uniform(0, 3) != 0);
                topo.setLinkUp(topo.trunkDownlink(s, leaf),
                               uniform(0, 3) != 0);
            }
        }
        if (round % 3 == 0) {
            // Leave leaf 0 -> leaf 3 exactly one healthy spine.
            const int keep = uniform(0, spines - 1);
            for (int s = 0; s < spines; ++s) {
                topo.setLinkUp(topo.trunkUplink(0, s), s == keep);
                topo.setLinkUp(topo.trunkDownlink(s, 3), true);
            }
        } else if (round % 3 == 1) {
            // Cut leaf 1 off from every spine.
            for (int s = 0; s < spines; ++s)
                topo.setLinkUp(topo.trunkUplink(1, s), false);
        }
        for (int i = 0; i < 8; ++i) {
            ConnContext ctx = makeConnContext(0, uniform(0, 1),
                                              /*src=*/uniform(0, 3),
                                              /*dst=*/uniform(4, 15));
            ctx.comm = round * 8 + i;
            master.decide(ctx);
        }
        for (int tx = 0; tx < leaves; ++tx) {
            for (int rx = 0; rx < leaves; ++rx) {
                const std::size_t healthy =
                    topo.healthySpines(tx, rx).size();
                single += healthy == 1 ? 1 : 0;
                none += healthy == 0 ? 1 : 0;
                for (int exclude = kInvalidId; exclude <= spines;
                     ++exclude) {
                    ASSERT_EQ(master.pickSpine(tx, rx, exclude),
                              referencePickSpine(topo, master, tx, rx,
                                                 exclude))
                        << "round " << round << " leaves " << tx << "->"
                        << rx << " exclude " << exclude;
                }
            }
        }
    }
    EXPECT_GE(single, 20);
    EXPECT_GE(none, 20 * leaves);
    EXPECT_GT(master.allocations(), 0u);
}

TEST(C4pMaster, WarmRebalanceDoesNotAllocate)
{
    // A QP group re-weighted after every round of feedback, as ACCL
    // does after each collective round: once every QP has feedback
    // state, a rebalance allocates nothing.
    Simulator sim;
    net::Topology topo(podConfig());
    C4pConfig cfg;
    cfg.dynamicLoadBalance = true;
    C4pMaster master(sim, topo, cfg);

    std::vector<ConnContext> ctxs;
    std::vector<PathDecision> decisions;
    for (int qp = 0; qp < 8; ++qp) {
        ctxs.push_back(makeConnContext(0, qp));
        decisions.push_back(master.decide(ctxs.back()));
    }
    std::vector<double> weights(ctxs.size(), 1.0);

    // Rates within rebalanceRatio of each other: no QP is slow, so
    // every round re-weights and none re-pins.
    auto round = [&](int r) {
        for (std::size_t q = 0; q < ctxs.size(); ++q) {
            accl::PathFeedback fb;
            fb.achievedRate =
                gbps(180 + static_cast<double>((r + q) % 4) * 5);
            master.feedback(ctxs[q], decisions[q], fb);
        }
        return master.rebalance(ctxs, decisions, weights);
    };
    for (int r = 0; r < 4; ++r)
        round(r);
    const std::uint64_t before = perf::allocStatsNow().count;
    int changed = 0;
    for (int r = 0; r < 256; ++r)
        changed += round(r) ? 1 : 0;
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(changed, 256);
    EXPECT_EQ(master.repins(), 0u);
    EXPECT_EQ(allocs, 0u);
}

} // namespace
} // namespace c4::c4p
