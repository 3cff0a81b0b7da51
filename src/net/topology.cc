#include "net/topology.h"

#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace c4::net {

const char *
linkKindName(LinkKind kind)
{
    switch (kind) {
      case LinkKind::HostUp:    return "host-up";
      case LinkKind::HostDown:  return "host-down";
      case LinkKind::TrunkUp:   return "trunk-up";
      case LinkKind::TrunkDown: return "trunk-down";
    }
    return "?";
}

std::string
TopologyConfig::validate() const
{
    if (numNodes <= 0)
        return "numNodes must be positive";
    if (gpusPerNode <= 0)
        return "gpusPerNode must be positive";
    if (nicsPerNode <= 0)
        return "nicsPerNode must be positive";
    if (gpusPerNode % nicsPerNode != 0)
        return "gpusPerNode must be a multiple of nicsPerNode";
    if (nodesPerSegment <= 0)
        return "nodesPerSegment must be positive";
    if (numSpines <= 0)
        return "numSpines must be positive";
    if (portBandwidth <= 0.0)
        return "portBandwidth must be positive";
    if (oversubscription < 1.0)
        return "oversubscription must be >= 1.0";
    if (nvlinkBusBandwidth <= 0.0)
        return "nvlinkBusBandwidth must be positive";
    return {};
}

Topology::Topology(const TopologyConfig &config) : config_(config)
{
    const std::string err = config_.validate();
    if (!err.empty())
        throw std::invalid_argument("TopologyConfig: " + err);

    numSegments_ = config_.numSegments();

    buildHostLinks();
    buildTrunkLinks();
}

int
Topology::segmentOf(NodeId node) const
{
    assert(node >= 0 && node < config_.numNodes);
    return node / config_.nodesPerSegment;
}

int
Topology::leafIndex(int segment, Plane plane) const
{
    assert(segment >= 0 && segment < numSegments_);
    return segment * kNumPlanes + planeIndex(plane);
}

int
Topology::leafSegment(int leaf) const
{
    assert(leaf >= 0 && leaf < numLeaves());
    return leaf / kNumPlanes;
}

Plane
Topology::leafPlane(int leaf) const
{
    assert(leaf >= 0 && leaf < numLeaves());
    return planeFromIndex(leaf % kNumPlanes);
}

std::size_t
Topology::hostLinkIndex(NodeId node, NicId nic, Plane plane) const
{
    assert(node >= 0 && node < config_.numNodes);
    assert(nic >= 0 && nic < config_.nicsPerNode);
    return (static_cast<std::size_t>(node) * config_.nicsPerNode + nic) *
               kNumPlanes +
           planeIndex(plane);
}

LinkId
Topology::hostUplink(NodeId node, NicId nic, Plane plane) const
{
    return hostUp_[hostLinkIndex(node, nic, plane)];
}

LinkId
Topology::hostDownlink(NodeId node, NicId nic, Plane plane) const
{
    return hostDown_[hostLinkIndex(node, nic, plane)];
}

LinkId
Topology::trunkUplink(int leaf, int spine) const
{
    assert(leaf >= 0 && leaf < numLeaves());
    assert(spine >= 0 && spine < config_.numSpines);
    return trunkUp_[static_cast<std::size_t>(leaf) * config_.numSpines +
                    spine];
}

LinkId
Topology::trunkDownlink(int spine, int leaf) const
{
    assert(leaf >= 0 && leaf < numLeaves());
    assert(spine >= 0 && spine < config_.numSpines);
    return trunkDown_[static_cast<std::size_t>(spine) * numLeaves() + leaf];
}

const Link &
Topology::link(LinkId id) const
{
    assert(id >= 0 && static_cast<std::size_t>(id) < links_.size());
    return links_[static_cast<std::size_t>(id)];
}

Link &
Topology::link(LinkId id)
{
    assert(id >= 0 && static_cast<std::size_t>(id) < links_.size());
    return links_[static_cast<std::size_t>(id)];
}

void
Topology::setLinkUp(LinkId id, bool up)
{
    link(id).up = up;
}

void
Topology::setLinkCapacityScale(LinkId id, double scale)
{
    assert(scale > 0.0 && scale <= 1.0);
    link(id).capacityScale = scale;
}

std::vector<int>
Topology::healthySpines(int txLeaf, int rxLeaf) const
{
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(config_.numSpines));
    for (int s = 0; s < config_.numSpines; ++s) {
        if (link(trunkUplink(txLeaf, s)).up &&
            link(trunkDownlink(s, rxLeaf)).up) {
            out.push_back(s);
        }
    }
    return out;
}

LinkId
Topology::addLink(Link l)
{
    l.id = static_cast<LinkId>(links_.size());
    links_.push_back(std::move(l));
    return links_.back().id;
}

void
Topology::buildHostLinks()
{
    const std::size_t host_slots =
        static_cast<std::size_t>(config_.numNodes) * config_.nicsPerNode *
        kNumPlanes;
    hostUp_.assign(host_slots, kInvalidId);
    hostDown_.assign(host_slots, kInvalidId);

    for (NodeId n = 0; n < config_.numNodes; ++n) {
        const int seg = segmentOf(n);
        for (NicId k = 0; k < config_.nicsPerNode; ++k) {
            for (int pi = 0; pi < kNumPlanes; ++pi) {
                const Plane plane = planeFromIndex(pi);
                const int leaf = leafIndex(seg, plane);

                Link up;
                up.kind = LinkKind::HostUp;
                up.capacity = config_.portBandwidth;
                up.node = n;
                up.nic = k;
                up.plane = plane;
                up.leaf = leaf;
                hostUp_[hostLinkIndex(n, k, plane)] = addLink(up);

                Link down = up;
                down.kind = LinkKind::HostDown;
                hostDown_[hostLinkIndex(n, k, plane)] = addLink(down);
            }
        }
    }
}

void
Topology::buildTrunkLinks()
{
    // Each trunk models one uplink-port slice of the leaf->spine bundle.
    // The collective model sends a node's boundary traffic through one
    // active bonded NIC pair (one port per plane), so the matching
    // fat-tree slice gives every spine a trunk of one port's capacity;
    // oversubscription thins it. This preserves the real collision
    // economics (k flows hashed onto one uplink port share it k-ways)
    // without simulating all 8 physical rails.
    const Bandwidth trunk_cap =
        config_.portBandwidth / config_.oversubscription;

    trunkUp_.assign(
        static_cast<std::size_t>(numLeaves()) * config_.numSpines,
        kInvalidId);
    trunkDown_.assign(
        static_cast<std::size_t>(config_.numSpines) * numLeaves(),
        kInvalidId);

    for (int leaf = 0; leaf < numLeaves(); ++leaf) {
        for (int s = 0; s < config_.numSpines; ++s) {
            Link up;
            up.kind = LinkKind::TrunkUp;
            up.capacity = trunk_cap;
            up.leaf = leaf;
            up.spine = s;
            trunkUp_[static_cast<std::size_t>(leaf) * config_.numSpines +
                     s] = addLink(up);

            Link down = up;
            down.kind = LinkKind::TrunkDown;
            trunkDown_[static_cast<std::size_t>(s) * numLeaves() + leaf] =
                addLink(down);
        }
    }
}

std::string
Topology::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%d nodes x %d GPUs, %d segments, %d leaves, %d spines, "
                  "port %.0f Gbps, oversub %.1f:1",
                  config_.numNodes, config_.gpusPerNode, numSegments_,
                  numLeaves(), config_.numSpines,
                  toGbps(config_.portBandwidth), config_.oversubscription);
    return buf;
}

} // namespace c4::net
