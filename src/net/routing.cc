#include "net/routing.h"

#include <cassert>

namespace c4::net {

namespace {

/** 32-bit mix (murmur3 finalizer). */
std::uint32_t
mix32(std::uint32_t h)
{
    h ^= h >> 16;
    h *= 0x85EBCA6Bu;
    h ^= h >> 13;
    h *= 0xC2B2AE35u;
    h ^= h >> 16;
    return h;
}

} // namespace

std::uint32_t
ecmpHash(const PathRequest &req, std::uint32_t salt)
{
    std::uint32_t h = 0x9E3779B9u ^ salt;
    auto fold = [&h](std::uint32_t v) {
        h = mix32(h ^ mix32(v + 0x165667B1u));
    };
    fold(static_cast<std::uint32_t>(req.srcNode));
    fold(static_cast<std::uint32_t>(req.srcNic) << 8);
    fold(static_cast<std::uint32_t>(req.dstNode) << 1);
    fold(static_cast<std::uint32_t>(req.dstNic) << 9);
    fold(static_cast<std::uint32_t>(planeIndex(req.txPlane)) + 77u);
    fold(req.flowLabel);
    return h;
}

PathSelector::PathSelector(const Topology &topo) : topo_(topo)
{
}

std::vector<int>
PathSelector::candidateSpines(int txLeaf, int rxLeaf) const
{
    return topo_.healthySpines(txLeaf, rxLeaf);
}

Route
PathSelector::select(const PathRequest &req, std::uint32_t salt) const
{
    Route route;
    select(req, route, salt);
    return route;
}

void
PathSelector::select(const PathRequest &req, Route &route,
                     std::uint32_t salt) const
{
    assert(req.srcNode != req.dstNode &&
           "intra-node traffic rides NVLink, not the fabric");

    route.links.clear();
    route.spine = kInvalidId;
    route.rxPlane = Plane::Left;

    const int src_seg = topo_.segmentOf(req.srcNode);
    const int dst_seg = topo_.segmentOf(req.dstNode);
    const int tx_leaf = topo_.leafIndex(src_seg, req.txPlane);

    // Decide the landing plane: pinned by C4P, otherwise hashed.
    Plane rx_plane;
    if (req.rxPlane != kInvalidId) {
        rx_plane = planeFromIndex(static_cast<int>(req.rxPlane));
    } else {
        rx_plane = planeFromIndex(
            static_cast<int>(ecmpHash(req, salt ^ 0xA5A5A5A5u) % 2));
    }

    const LinkId host_up =
        topo_.hostUplink(req.srcNode, req.srcNic, req.txPlane);
    if (!topo_.link(host_up).up)
        return; // source port dead: unroutable on this plane

    // Same segment and same plane: turn around at the shared leaf.
    if (src_seg == dst_seg && rx_plane == req.txPlane) {
        const LinkId host_down =
            topo_.hostDownlink(req.dstNode, req.dstNic, rx_plane);
        if (!topo_.link(host_down).up)
            return;
        route.links.push_back(host_up);
        route.links.push_back(host_down);
        route.rxPlane = rx_plane;
        return;
    }

    // Cross-segment (or cross-plane) traffic transits a spine.
    const int rx_leaf = topo_.leafIndex(dst_seg, rx_plane);
    auto healthy = [&](int s) {
        return topo_.link(topo_.trunkUplink(tx_leaf, s)).up &&
               topo_.link(topo_.trunkDownlink(s, rx_leaf)).up;
    };

    int spine = kInvalidId;
    if (req.spine != kInvalidId) {
        // Pinned by C4P; honour it only if still healthy.
        if (healthy(req.spine))
            spine = req.spine;
    }
    if (spine == kInvalidId) {
        // ECMP: the hash picks among the healthy spines in index order
        // (Topology::healthySpines without building the list).
        std::uint32_t count = 0;
        for (int s = 0; s < topo_.numSpines(); ++s)
            count += healthy(s) ? 1u : 0u;
        if (count == 0)
            return;
        std::uint32_t pick = ecmpHash(req, salt) % count;
        for (int s = 0; spine == kInvalidId; ++s) {
            if (healthy(s) && pick-- == 0)
                spine = s;
        }
    }

    const LinkId host_down =
        topo_.hostDownlink(req.dstNode, req.dstNic, rx_plane);
    if (!topo_.link(host_down).up)
        return;

    route.links.push_back(host_up);
    route.links.push_back(topo_.trunkUplink(tx_leaf, spine));
    route.links.push_back(topo_.trunkDownlink(spine, rx_leaf));
    route.links.push_back(host_down);
    route.spine = spine;
    route.rxPlane = rx_plane;
}

} // namespace c4::net
