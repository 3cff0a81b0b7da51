#include "accl/communicator.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace c4::accl {

Communicator::Communicator(CommId id, JobId job,
                           std::vector<DeviceInfo> devices, int channels)
    : id_(id), job_(job), devices_(std::move(devices)), channels_(channels)
{
    if (devices_.empty())
        throw std::invalid_argument("Communicator needs >= 1 device");
    if (channels_ < 1)
        throw std::invalid_argument("Communicator needs >= 1 channel");

    // Group ranks by node (stable: rank order within a node) and
    // index the groups, so ranksOnNode is a binary search.
    ranksByNode_.resize(devices_.size());
    std::iota(ranksByNode_.begin(), ranksByNode_.end(), Rank{0});
    std::stable_sort(ranksByNode_.begin(), ranksByNode_.end(),
                     [this](Rank a, Rank b) {
                         return device(a).node < device(b).node;
                     });
    for (std::size_t i = 0; i < ranksByNode_.size(); ++i) {
        const NodeId node = device(ranksByNode_[i]).node;
        if (nodeRanks_.empty() || nodeRanks_.back().node != node)
            nodeRanks_.push_back({node, static_cast<std::uint32_t>(i), 0});
        ++nodeRanks_.back().count;
        maxRanksPerNode_ = std::max(
            maxRanksPerNode_, static_cast<int>(nodeRanks_.back().count));
    }
    // Distinct nodes in first-rank order.
    for (Rank r = 0; r < size(); ++r) {
        if (ranksOnNode(device(r).node).front() == r)
            nodes_.push_back(device(r).node);
    }
    singleNode_ = nodes_.size() == 1;

    if (!singleNode_) {
        for (Rank r = 0; r < size(); ++r) {
            const Rank nr = nextRank(r);
            if (devices_[static_cast<std::size_t>(r)].node !=
                devices_[static_cast<std::size_t>(nr)].node) {
                boundaries_.push_back(Boundary{r, nr});
            }
        }
    }
}

const DeviceInfo &
Communicator::device(Rank r) const
{
    assert(r >= 0 && r < size());
    return devices_[static_cast<std::size_t>(r)];
}

std::span<const Rank>
Communicator::ranksOnNode(NodeId node) const
{
    auto it = std::lower_bound(
        nodeRanks_.begin(), nodeRanks_.end(), node,
        [](const NodeRanks &g, NodeId key) { return g.node < key; });
    if (it == nodeRanks_.end() || it->node != node)
        return {};
    return std::span<const Rank>(ranksByNode_).subspan(it->offset,
                                                       it->count);
}

std::string
Communicator::str() const
{
    std::ostringstream os;
    os << "comm" << id_ << "[job=" << job_ << " ranks=" << size()
       << " nodes=" << nodes_.size() << " channels=" << channels_
       << " boundaries=" << boundaries_.size() << "]";
    return os.str();
}

} // namespace c4::accl
