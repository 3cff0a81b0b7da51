/**
 * @file
 * Unit tests for ECMP hashing and path selection.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "net/routing.h"
#include "testutil/testutil.h"

namespace c4::net {
namespace {

using testutil::podConfig;

/** 0 -> 4 crosses from segment 0 into segment 1. */
PathRequest
crossSegment(std::uint32_t label = 1)
{
    return testutil::makePathRequest(0, 4, label);
}

TEST(EcmpHash, DeterministicAndLabelSensitive)
{
    const PathRequest a = crossSegment(7);
    EXPECT_EQ(ecmpHash(a), ecmpHash(a));
    const PathRequest b = crossSegment(8);
    EXPECT_NE(ecmpHash(a), ecmpHash(b));
    EXPECT_NE(ecmpHash(a, 1), ecmpHash(a, 2));
}

TEST(EcmpHash, SpreadsAcrossLabels)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    std::map<int, int> spine_counts;
    for (std::uint32_t label = 0; label < 512; ++label) {
        const Route r = sel.select(crossSegment(label));
        ASSERT_TRUE(r.valid());
        ++spine_counts[r.spine];
    }
    // All 8 spines should receive a reasonable share.
    EXPECT_EQ(spine_counts.size(), 8u);
    for (const auto &[spine, count] : spine_counts)
        EXPECT_GT(count, 20);
}

TEST(PathSelector, SameSegmentSamePlaneTurnsAtLeaf)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    PathRequest req = crossSegment();
    req.dstNode = 1; // same segment as node 0
    req.rxPlane = planeIndex(Plane::Left);
    const Route r = sel.select(req);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.links.size(), 2u);
    EXPECT_EQ(r.spine, kInvalidId);
    EXPECT_EQ(r.rxPlane, Plane::Left);
}

TEST(PathSelector, CrossSegmentTransitsSpine)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    const Route r = sel.select(crossSegment());
    ASSERT_TRUE(r.valid());
    ASSERT_EQ(r.links.size(), 4u);
    EXPECT_EQ(topo.link(r.links[0]).kind, LinkKind::HostUp);
    EXPECT_EQ(topo.link(r.links[1]).kind, LinkKind::TrunkUp);
    EXPECT_EQ(topo.link(r.links[2]).kind, LinkKind::TrunkDown);
    EXPECT_EQ(topo.link(r.links[3]).kind, LinkKind::HostDown);
    EXPECT_GE(r.spine, 0);
}

TEST(PathSelector, PinnedSpineHonored)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    for (int spine = 0; spine < 8; ++spine) {
        PathRequest req = crossSegment();
        req.spine = spine;
        const Route r = sel.select(req);
        ASSERT_TRUE(r.valid());
        EXPECT_EQ(r.spine, spine);
    }
}

TEST(PathSelector, PinnedRxPlaneHonored)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    PathRequest req = crossSegment();
    req.rxPlane = planeIndex(Plane::Right);
    const Route r = sel.select(req);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.rxPlane, Plane::Right);
    EXPECT_EQ(topo.link(r.links.back()).plane, Plane::Right);
}

TEST(PathSelector, DeadPinnedSpineFallsBackToHash)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    PathRequest req = crossSegment();
    req.spine = 3;
    const int tx_leaf = topo.leafIndex(0, Plane::Left);
    topo.setLinkUp(topo.trunkUplink(tx_leaf, 3), false);
    const Route r = sel.select(req);
    ASSERT_TRUE(r.valid());
    EXPECT_NE(r.spine, 3);
}

TEST(PathSelector, AvoidsDeadSpines)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    const int tx_leaf = topo.leafIndex(0, Plane::Left);
    // Kill all but spine 6 (for left-plane destinations).
    for (int s = 0; s < 8; ++s) {
        if (s != 6)
            topo.setLinkUp(topo.trunkUplink(tx_leaf, s), false);
    }
    for (std::uint32_t label = 0; label < 32; ++label) {
        PathRequest req = crossSegment(label);
        req.rxPlane = planeIndex(Plane::Left); // stay on the tx leaf
        const Route r = sel.select(req);
        ASSERT_TRUE(r.valid());
        EXPECT_EQ(r.spine, 6);
    }
}

TEST(PathSelector, UnroutableWhenAllSpinesDead)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    const int tx_leaf = topo.leafIndex(0, Plane::Left);
    for (int s = 0; s < 8; ++s)
        topo.setLinkUp(topo.trunkUplink(tx_leaf, s), false);
    PathRequest req = crossSegment();
    req.rxPlane = planeIndex(Plane::Left);
    EXPECT_FALSE(sel.select(req).valid());
}

TEST(PathSelector, DeadHostUplinkIsUnroutable)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    topo.setLinkUp(topo.hostUplink(0, 0, Plane::Left), false);
    EXPECT_FALSE(sel.select(crossSegment()).valid());
}

TEST(PathSelector, CrossPlaneSameSegmentTransitsSpine)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    PathRequest req = crossSegment();
    req.dstNode = 1; // same segment
    req.txPlane = Plane::Left;
    req.rxPlane = planeIndex(Plane::Right);
    const Route r = sel.select(req);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.links.size(), 4u); // must go via a spine to cross planes
}

TEST(PathSelector, RxPlaneHashIsRoughlyBalanced)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    int left = 0;
    for (std::uint32_t label = 0; label < 400; ++label) {
        const Route r = sel.select(crossSegment(label));
        ASSERT_TRUE(r.valid());
        left += r.rxPlane == Plane::Left ? 1 : 0;
    }
    EXPECT_GT(left, 120);
    EXPECT_LT(left, 280);
}

TEST(PathSelector, CandidateSpinesMatchesTopology)
{
    Topology topo(podConfig());
    PathSelector sel(topo);
    const int tx = topo.leafIndex(0, Plane::Left);
    const int rx = topo.leafIndex(2, Plane::Left);
    EXPECT_EQ(sel.candidateSpines(tx, rx).size(), 8u);
    topo.setLinkUp(topo.trunkDownlink(1, rx), false);
    EXPECT_EQ(sel.candidateSpines(tx, rx).size(), 7u);
}

/**
 * Path selection as written before select() learned to fill a reused
 * route: it built the healthy-spine list and indexed it with the hash.
 * Kept as the reference for the allocation-free version.
 */
Route
referenceSelect(const Topology &topo, const PathRequest &req,
                std::uint32_t salt)
{
    Route route;
    const int src_seg = topo.segmentOf(req.srcNode);
    const int dst_seg = topo.segmentOf(req.dstNode);
    const int tx_leaf = topo.leafIndex(src_seg, req.txPlane);
    const Plane rx_plane =
        req.rxPlane != kInvalidId
            ? planeFromIndex(static_cast<int>(req.rxPlane))
            : planeFromIndex(
                  static_cast<int>(ecmpHash(req, salt ^ 0xA5A5A5A5u) % 2));
    const LinkId host_up =
        topo.hostUplink(req.srcNode, req.srcNic, req.txPlane);
    if (!topo.link(host_up).up)
        return route;
    if (src_seg == dst_seg && rx_plane == req.txPlane) {
        const LinkId host_down =
            topo.hostDownlink(req.dstNode, req.dstNic, rx_plane);
        if (!topo.link(host_down).up)
            return route;
        route.links = {host_up, host_down};
        route.rxPlane = rx_plane;
        return route;
    }
    const int rx_leaf = topo.leafIndex(dst_seg, rx_plane);
    int spine = kInvalidId;
    if (req.spine != kInvalidId &&
        topo.link(topo.trunkUplink(tx_leaf, req.spine)).up &&
        topo.link(topo.trunkDownlink(req.spine, rx_leaf)).up) {
        spine = req.spine;
    }
    if (spine == kInvalidId) {
        const auto healthy = topo.healthySpines(tx_leaf, rx_leaf);
        if (healthy.empty())
            return route;
        spine = healthy[ecmpHash(req, salt) % healthy.size()];
    }
    const LinkId host_down =
        topo.hostDownlink(req.dstNode, req.dstNic, rx_plane);
    if (!topo.link(host_down).up)
        return route;
    route.links = {host_up, topo.trunkUplink(tx_leaf, spine),
                   topo.trunkDownlink(spine, rx_leaf), host_down};
    route.spine = spine;
    route.rxPlane = rx_plane;
    return route;
}

TEST(PathSelector, ReusedRouteMatchesReferenceUnderRandomFailures)
{
    // Random requests (pinned and hashed, both planes, salts) over a pod
    // whose links fail and heal at random; one Route is reused for every
    // answer, so stale links or fields from the previous answer would
    // show.
    Topology topo(podConfig());
    PathSelector sel(topo);
    std::mt19937_64 rng(7);
    auto uniform = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Route reused;
    int valid = 0;
    for (int i = 0; i < 4000; ++i) {
        if (i % 50 == 0) {
            for (std::size_t l = 0; l < topo.numLinks(); ++l)
                topo.setLinkUp(static_cast<LinkId>(l), uniform(0, 9) != 0);
        }
        PathRequest req;
        req.srcNode = uniform(0, topo.numNodes() - 1);
        do {
            req.dstNode = uniform(0, topo.numNodes() - 1);
        } while (req.dstNode == req.srcNode);
        req.srcNic = uniform(0, topo.nicsPerNode() - 1);
        req.dstNic = uniform(0, topo.nicsPerNode() - 1);
        req.txPlane = planeFromIndex(uniform(0, 1));
        req.spine = uniform(0, 2) == 0 ? uniform(0, topo.numSpines() - 1)
                                       : kInvalidId;
        req.rxPlane = uniform(0, 2) == 0 ? uniform(0, 1) : kInvalidId;
        req.flowLabel = static_cast<std::uint32_t>(rng());
        const auto salt = static_cast<std::uint32_t>(uniform(0, 3));

        const Route want = referenceSelect(topo, req, salt);
        sel.select(req, reused, salt);
        ASSERT_EQ(reused.links, want.links) << "request " << i;
        ASSERT_EQ(reused.spine, want.spine) << "request " << i;
        ASSERT_EQ(reused.rxPlane, want.rxPlane) << "request " << i;
        const Route fresh = sel.select(req, salt);
        ASSERT_EQ(fresh.links, want.links);
        valid += want.valid() ? 1 : 0;
    }
    EXPECT_GT(valid, 1000);
    EXPECT_LT(valid, 4000);
}

} // namespace
} // namespace c4::net
