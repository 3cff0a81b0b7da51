/**
 * @file
 * Path selection over the dual-plane fat-tree.
 *
 * A flow's route is fully determined by three choices:
 *   1. the Tx plane (which of the source NIC's two bonded ports it leaves),
 *   2. the spine it crosses (for inter-segment traffic),
 *   3. the Rx plane (which leaf — and hence which of the destination NIC's
 *      bonded ports — it lands on).
 *
 * The baseline leaves (2) and (3) to ECMP: switches hash the five-tuple.
 * Since RDMA source ports are drawn at connection setup, this is a uniform
 * random pick among healthy next hops — exactly the behaviour C4P replaces
 * by choosing source ports that steer the hash onto planned paths (paper
 * Section III-B). PathRequest therefore carries optional pinned choices;
 * unset fields fall back to the hash.
 */

#ifndef C4_NET_ROUTING_H
#define C4_NET_ROUTING_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/topology.h"

namespace c4::net {

/**
 * Everything needed to route one flow. Pinned fields (spine, rxPlane)
 * override ECMP; flowLabel stands in for the five-tuple entropy (RDMA
 * source port etc.) that the hash consumes.
 */
struct PathRequest
{
    NodeId srcNode = kInvalidId;
    NicId srcNic = kInvalidId;
    NodeId dstNode = kInvalidId;
    NicId dstNic = kInvalidId;

    /** Physical port the flow departs on. */
    Plane txPlane = Plane::Left;

    /** Pinned spine index, or kInvalidId for ECMP. */
    std::int32_t spine = kInvalidId;

    /** Pinned landing plane, or kInvalidId for ECMP. */
    std::int32_t rxPlane = kInvalidId;

    /** Five-tuple entropy consumed by the ECMP hash. */
    std::uint32_t flowLabel = 0;
};

/**
 * Deterministic ECMP hash over flow identity. Models the switch ASIC's
 * hash: the same flow always takes the same path; different flowLabels
 * spread (imperfectly) across choices.
 */
std::uint32_t ecmpHash(const PathRequest &req, std::uint32_t salt = 0);

/** Result of routing a request. */
struct Route
{
    /** Directed links in traversal order; empty when unroutable. */
    std::vector<LinkId> links;

    /** Spine actually crossed, or kInvalidId for leaf-local routes. */
    std::int32_t spine = kInvalidId;

    /** Landing plane actually used. */
    Plane rxPlane = Plane::Left;

    bool valid() const { return !links.empty(); }
};

/**
 * Stateless resolver from PathRequest to a concrete Route given current
 * link health. Does not allocate bandwidth; the Fabric does that.
 */
class PathSelector
{
  public:
    explicit PathSelector(const Topology &topo);

    /**
     * Resolve a request to a route.
     *
     * Intra-node requests are invalid here (they ride NVLink and never
     * enter the fabric). If every candidate spine is unhealthy the route
     * comes back empty and the caller decides whether to stall or retry.
     *
     * @param salt extra hash salt; rerouting after a link failure rehashes
     *             with a new salt, reproducing ECMP's "rehash onto the
     *             survivors" behaviour (paper Fig. 13a).
     */
    Route select(const PathRequest &req, std::uint32_t salt = 0) const;

    /**
     * select() into a caller-owned route (reusing its link capacity), so
     * resolving a request allocates nothing once @p out has held a
     * route. Every field of @p out is overwritten.
     */
    void select(const PathRequest &req, Route &out,
                std::uint32_t salt = 0) const;

    /**
     * Enumerate the distinct spine choices currently healthy for a
     * (txLeaf, rxLeaf) pair. Used by the C4P path prober.
     */
    std::vector<int> candidateSpines(int txLeaf, int rxLeaf) const;

  private:
    const Topology &topo_;
};

} // namespace c4::net

#endif // C4_NET_ROUTING_H
