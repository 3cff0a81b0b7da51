#include "core/placement.h"

#include <algorithm>
#include <set>

namespace c4::core {

std::vector<NodeId>
choosePlacement(const net::Topology &topo, const std::vector<bool> &used,
                int count, PlacementStrategy strategy)
{
    std::vector<NodeId> out;
    if (count <= 0)
        return out;

    auto free = [&](NodeId n) {
        return n < topo.numNodes() &&
               !used[static_cast<std::size_t>(n)];
    };

    if (strategy == PlacementStrategy::Packed) {
        // Prefer segments with the most free capacity so jobs span as
        // few leaf pairs as possible.
        struct Seg
        {
            int id;
            std::vector<NodeId> nodes;
        };
        std::vector<Seg> segments;
        for (int s = 0; s < topo.numSegments(); ++s)
            segments.push_back({s, {}});
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            if (free(n))
                segments[static_cast<std::size_t>(topo.segmentOf(n))]
                    .nodes.push_back(n);
        }
        std::stable_sort(segments.begin(), segments.end(),
                         [](const Seg &a, const Seg &b) {
                             return a.nodes.size() > b.nodes.size();
                         });
        for (const Seg &seg : segments) {
            for (NodeId n : seg.nodes) {
                if (static_cast<int>(out.size()) == count)
                    return out;
                out.push_back(n);
            }
        }
    } else {
        // Round-robin over segments: consecutive ranks land under
        // different leaves, maximizing spine exposure.
        std::vector<std::vector<NodeId>> per_segment(
            static_cast<std::size_t>(topo.numSegments()));
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            if (free(n))
                per_segment[static_cast<std::size_t>(topo.segmentOf(n))]
                    .push_back(n);
        }
        std::vector<std::size_t> cursor(per_segment.size(), 0);
        bool progress = true;
        while (static_cast<int>(out.size()) < count && progress) {
            progress = false;
            for (std::size_t s = 0; s < per_segment.size() &&
                                    static_cast<int>(out.size()) < count;
                 ++s) {
                if (cursor[s] < per_segment[s].size()) {
                    out.push_back(per_segment[s][cursor[s]++]);
                    progress = true;
                }
            }
        }
    }

    if (static_cast<int>(out.size()) < count)
        out.clear(); // pool short: all-or-nothing
    return out;
}

int
segmentsSpanned(const net::Topology &topo,
                const std::vector<NodeId> &nodes)
{
    std::set<int> segments;
    for (NodeId n : nodes)
        segments.insert(topo.segmentOf(n));
    return static_cast<int>(segments.size());
}

} // namespace c4::core
