/**
 * @file
 * The seam between ACCL's transport layer and traffic engineering.
 *
 * In the paper, ACCL is "enhanced to support issuing path allocation
 * requests for communicating workers and set the source port accordingly"
 * (Section III-B, Fig. 8). PathPolicy is that enhancement point: when the
 * transport creates a QP it asks the policy for a path decision; every
 * message completion is fed back so adaptive policies (C4P's dynamic load
 * balance) can rebalance QP weights and re-pin paths.
 *
 * The baseline policy reproduces stock behaviour: the bonding driver
 * sprays QPs across the NIC's two physical ports and ECMP hashes pick the
 * spine and the landing plane.
 */

#ifndef C4_ACCL_PATH_POLICY_H
#define C4_ACCL_PATH_POLICY_H

#include <cstdint>
#include <span>

#include "common/random.h"
#include "common/types.h"
#include "net/topology.h"

namespace c4::accl {

/** Identity of one QP (transport connection) asking for a path. */
struct ConnContext
{
    JobId job = kInvalidId;
    CommId comm = kInvalidId;
    int channel = 0;
    int qpIndex = 0; ///< index within the connection's QP group
    NodeId srcNode = kInvalidId;
    NicId srcNic = kInvalidId;
    NodeId dstNode = kInvalidId;
    NicId dstNic = kInvalidId;
};

/**
 * A path decision for one QP. Unpinned fields (kInvalidId) defer to ECMP
 * hashing in the fabric; flowLabel models the RDMA source port the
 * decision is realized through.
 */
struct PathDecision
{
    net::Plane txPlane = net::Plane::Left;
    std::int32_t spine = kInvalidId;
    std::int32_t rxPlane = kInvalidId;
    std::uint32_t flowLabel = 0;
};

/** Message-completion feedback handed to the policy. */
struct PathFeedback
{
    Bytes bytes = 0;
    Duration duration = 0;
    Bandwidth achievedRate = 0.0;
};

/**
 * Strategy interface for QP path selection.
 *
 * Implementations must be deterministic given their own RNG streams.
 * decide() is called once per QP at connection setup; feedback() after
 * every message on that QP; rebalance() between collective rounds with
 * the connection's QP group so the policy may adjust traffic weights
 * (returning true if weights changed). release() on teardown.
 */
class PathPolicy
{
  public:
    virtual ~PathPolicy() = default;

    virtual PathDecision decide(const ConnContext &ctx) = 0;

    /**
     * When true, the transport calls decide() for every message instead
     * of once per QP — per-packet/per-message load balancing, i.e. the
     * "adaptive routing / packet spraying" alternative the paper's
     * Related Work discusses. Default: paths are per-QP (RoCE keeps a
     * flow on one path to avoid reordering).
     */
    virtual bool perMessageRouting() const { return false; }

    virtual void
    feedback(const ConnContext &ctx, const PathDecision &decision,
             const PathFeedback &fb)
    {
        (void)ctx;
        (void)decision;
        (void)fb;
    }

    /**
     * Give the policy a chance to re-weight / re-pin a QP group. The
     * three spans have one entry per QP of the connection, in ascending
     * qpIndex. They view the transport's own per-communicator arrays, so
     * the call copies nothing, and they stay valid only for the call.
     * @param ctxs per-QP contexts (same connection)
     * @param decisions per-QP decisions; may be mutated (re-pinning)
     * @param weights per-QP traffic shares; may be mutated (must stay
     *        non-negative, sum > 0)
     * @return true if anything changed
     */
    virtual bool
    rebalance(std::span<const ConnContext> ctxs,
              std::span<PathDecision> decisions, std::span<double> weights)
    {
        (void)ctxs;
        (void)decisions;
        (void)weights;
        return false;
    }

    virtual void
    release(const ConnContext &ctx, const PathDecision &decision)
    {
        (void)ctx;
        (void)decision;
    }
};

/**
 * Stock behaviour without C4P: bonding spreads QPs over the two physical
 * ports round-robin; spine and landing plane are left to ECMP with a
 * random source port drawn at QP creation.
 */
class EcmpPathPolicy : public PathPolicy
{
  public:
    explicit EcmpPathPolicy(std::uint64_t seed = 0xECB0ECB0ull);

    PathDecision decide(const ConnContext &ctx) override;

  private:
    Rng rng_;
};

/**
 * Packet-spraying baseline (paper Section V Related Work): every message
 * re-rolls its path, spreading load statistically instead of planning
 * it. Averages out collisions across rounds, but any given round can
 * still collide — and, as the paper argues, its "efficiency can be
 * compromised by the flows that are deterministically routed" next to
 * it. Included as the third point of comparison for the ablations.
 */
class SprayPathPolicy : public EcmpPathPolicy
{
  public:
    explicit SprayPathPolicy(std::uint64_t seed = 0x5B4A45ull)
        : EcmpPathPolicy(seed)
    {
    }

    bool perMessageRouting() const override { return true; }
};

} // namespace c4::accl

#endif // C4_ACCL_PATH_POLICY_H
