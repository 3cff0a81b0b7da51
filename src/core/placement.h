/**
 * @file
 * Node placement strategies. The paper's stack "utilize[s]
 * topology-aware scheduling techniques to ensure that the two ranks
 * needing to communicate are as close as possible within the network"
 * (Section III-B): packing a job into as few leaf segments as possible
 * keeps ring traffic leaf-local and off the spines.
 */

#ifndef C4_CORE_PLACEMENT_H
#define C4_CORE_PLACEMENT_H

#include <vector>

#include "common/types.h"
#include "net/topology.h"

namespace c4::core {

enum class PlacementStrategy {
    /** Topology-aware: fill whole segments first (fewest spanned). */
    Packed,
    /** Topology-oblivious: round-robin across segments (worst case). */
    Scattered,
};

/**
 * Choose @p count free nodes under the given strategy.
 *
 * @param topo cluster wiring (segment structure)
 * @param used per-node occupancy; chosen nodes are NOT marked here
 * @param count nodes required
 * @return chosen nodes, or an empty vector if the pool is short
 */
std::vector<NodeId> choosePlacement(const net::Topology &topo,
                                    const std::vector<bool> &used,
                                    int count, PlacementStrategy strategy);

/** Number of distinct segments a placement spans. */
int segmentsSpanned(const net::Topology &topo,
                    const std::vector<NodeId> &nodes);

} // namespace c4::core

#endif // C4_CORE_PLACEMENT_H
