#include "train/parallel.h"

#include <cassert>
#include <stdexcept>

namespace c4::train {

std::string
ParallelismSpec::validate(int gpusPerNode, int numNodes) const
{
    if (tp < 1 || pp < 1 || dp < 1 || ep < 1)
        return "parallel degrees must be >= 1";
    if (ep != 1 && ep != dp)
        return "ep must be 1 (dense) or equal to dp (experts sharded "
               "across the data-parallel group)";
    if (gradientAccumulation < 1)
        return "gradientAccumulation must be >= 1";
    if (zeroStage < 0 || zeroStage > 3)
        return "zeroStage must be in [0, 3]";
    if (tp > gpusPerNode)
        return "tp must not exceed gpusPerNode (TP must be node-local)";
    if (gpusPerNode % tp != 0)
        return "tp must divide gpusPerNode";
    if (worldSize() % gpusPerNode != 0)
        return "worldSize must be a whole number of nodes";
    if (worldSize() / gpusPerNode > numNodes)
        return "not enough nodes for worldSize";
    return {};
}

ParallelLayout::ParallelLayout(const ParallelismSpec &spec,
                               std::vector<NodeId> nodes, int gpusPerNode)
    : spec_(spec), nodes_(std::move(nodes)), gpusPerNode_(gpusPerNode)
{
    const std::string err =
        spec_.validate(gpusPerNode_, static_cast<int>(nodes_.size()));
    if (!err.empty())
        throw std::invalid_argument("ParallelismSpec: " + err);
}

accl::DeviceInfo
ParallelLayout::deviceOf(int globalRank) const
{
    assert(globalRank >= 0 && globalRank < worldSize());
    accl::DeviceInfo d;
    const int node_idx = globalRank / gpusPerNode_;
    d.node = nodes_[static_cast<std::size_t>(node_idx)];
    d.gpu = static_cast<GpuId>(globalRank % gpusPerNode_);
    d.nic = static_cast<NicId>(d.gpu);
    return d;
}

int
ParallelLayout::tpIndex(int globalRank) const
{
    return globalRank % spec_.tp;
}

int
ParallelLayout::ppIndex(int globalRank) const
{
    return (globalRank / spec_.tp) % spec_.pp;
}

int
ParallelLayout::dpIndex(int globalRank) const
{
    return globalRank / (spec_.tp * spec_.pp);
}

std::vector<int>
ParallelLayout::tpGroup(int i) const
{
    assert(i >= 0 && i < spec_.dp * spec_.pp);
    std::vector<int> g;
    g.reserve(static_cast<std::size_t>(spec_.tp));
    for (int tp = 0; tp < spec_.tp; ++tp)
        g.push_back(i * spec_.tp + tp);
    return g;
}

std::vector<int>
ParallelLayout::dpGroup(int i) const
{
    assert(i >= 0 && i < spec_.pp * spec_.tp);
    const int pp = i / spec_.tp;
    const int tp = i % spec_.tp;
    std::vector<int> g;
    g.reserve(static_cast<std::size_t>(spec_.dp));
    for (int dp = 0; dp < spec_.dp; ++dp)
        g.push_back((dp * spec_.pp + pp) * spec_.tp + tp);
    return g;
}

std::vector<int>
ParallelLayout::ppGroup(int i) const
{
    assert(i >= 0 && i < spec_.dp * spec_.tp);
    const int dp = i / spec_.tp;
    const int tp = i % spec_.tp;
    std::vector<int> g;
    g.reserve(static_cast<std::size_t>(spec_.pp));
    for (int pp = 0; pp < spec_.pp; ++pp)
        g.push_back((dp * spec_.pp + pp) * spec_.tp + tp);
    return g;
}

namespace {

std::vector<std::vector<int>>
allGroups(int count, std::vector<int> (ParallelLayout::*group)(int) const,
          const ParallelLayout &layout)
{
    std::vector<std::vector<int>> groups;
    groups.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        groups.push_back((layout.*group)(i));
    return groups;
}

} // namespace

std::vector<std::vector<int>>
ParallelLayout::tpGroups() const
{
    return allGroups(spec_.dp * spec_.pp, &ParallelLayout::tpGroup, *this);
}

std::vector<std::vector<int>>
ParallelLayout::dpGroups() const
{
    return allGroups(spec_.pp * spec_.tp, &ParallelLayout::dpGroup, *this);
}

std::vector<std::vector<int>>
ParallelLayout::ppGroups() const
{
    return allGroups(spec_.dp * spec_.tp, &ParallelLayout::ppGroup, *this);
}

std::vector<accl::DeviceInfo>
ParallelLayout::devicesFor(const std::vector<int> &globalRanks) const
{
    std::vector<accl::DeviceInfo> out;
    out.reserve(globalRanks.size());
    for (int r : globalRanks)
        out.push_back(deviceOf(r));
    return out;
}

} // namespace c4::train
