/**
 * @file
 * The C4P master (paper Fig. 8): a cluster-wide, multi-tenant path
 * allocator implementing ACCL's PathPolicy.
 *
 * Rules, as in the paper:
 *  1. Faulty-link elimination: allocations only use trunks the probe
 *     catalog (and live topology) report healthy.
 *  2. Dual-port RX balance: traffic leaving a NIC's left port lands on
 *     the receiver's left port, and right on right — "forbidding the
 *     paths from left ports to right, and vice versa".
 *  3. Leaf/spine QP balance: the master tracks allocated QPs per trunk
 *     and places each new QP on the least-loaded healthy spine.
 *  4. Dynamic load balance (optional): per-QP message-completion-time
 *     feedback re-pins QPs off paths that became slow (link failures,
 *     congestion), and re-weights chunk splits toward faster QPs.
 */

#ifndef C4_C4P_MASTER_H
#define C4_C4P_MASTER_H

#include <span>
#include <unordered_map>
#include <vector>

#include "accl/path_policy.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace c4::c4p {

/** Master behaviour switches (for ablations and the paper's modes). */
struct C4pConfig
{
    /** Rule 2: pin the landing plane to the departure plane. */
    bool balanceDualPort = true;

    /** Rule 3: least-loaded spine allocation (vs ECMP hash). */
    bool balanceSpines = true;

    /** Rule 4: feedback-driven re-pinning and re-weighting. */
    bool dynamicLoadBalance = false;

    /** A QP is "slow" when the group's best rate exceeds its by this. */
    double rebalanceRatio = 1.3;

    /** Minimum time between re-pins of the same QP. */
    Duration rebalanceCooldown = milliseconds(200);
};

class C4pMaster : public accl::PathPolicy
{
  public:
    /**
     * @param sim event engine (cooldown clocks)
     * @param topo live topology (health consultation)
     */
    C4pMaster(Simulator &sim, const net::Topology &topo,
              C4pConfig cfg = {}, std::uint64_t seed = 0xC4BC4Bull);

    /** @name accl::PathPolicy @{ */
    accl::PathDecision decide(const accl::ConnContext &ctx) override;
    void feedback(const accl::ConnContext &ctx,
                  const accl::PathDecision &decision,
                  const accl::PathFeedback &fb) override;
    bool rebalance(std::span<const accl::ConnContext> ctxs,
                   std::span<accl::PathDecision> decisions,
                   std::span<double> weights) override;
    void release(const accl::ConnContext &ctx,
                 const accl::PathDecision &decision) override;
    /** @} */

    /** @name Introspection @{ */

    /** Allocated QP count on a trunk uplink. */
    int uplinkLoad(int leaf, int spine) const;

    /** Allocated QP count on a trunk downlink. */
    int downlinkLoad(int spine, int leaf) const;

    /**
     * Least-loaded healthy spine for the leaf pair (lowest index on a
     * tie); kInvalidId if none. Counts and picks in place: no list.
     * @param exclude spine to avoid if any alternative exists (used when
     *        moving a QP off a slow path)
     */
    int pickSpine(int txLeaf, int rxLeaf, int exclude = kInvalidId) const;

    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t releases() const { return releases_; }
    std::uint64_t repins() const { return repins_; }

    const C4pConfig &config() const { return cfg_; }
    /** @} */

  private:
    struct QpState
    {
        Ewma rate;
        Time lastRepin = -1; ///< -1: never re-pinned

        QpState() : rate(0.4) {}
    };

    Simulator &sim_;
    const net::Topology &topo_;
    C4pConfig cfg_;
    Rng rng_;

    // QP allocation counts per directed trunk, sized leaves x spines.
    std::vector<int> upLoad_;   // leaf*S + spine
    std::vector<int> downLoad_; // spine*L + leaf

    // Per-QP feedback state, keyed by connection identity.
    std::unordered_map<std::uint64_t, QpState> qpState_;

    // rebalance()'s per-QP rate scratch; keeps its capacity across calls.
    std::vector<double> rates_;

    std::uint64_t allocations_ = 0;
    std::uint64_t releases_ = 0;
    std::uint64_t repins_ = 0;

    static std::uint64_t qpKey(const accl::ConnContext &ctx);

    int txLeaf(const accl::ConnContext &ctx, net::Plane plane) const;
    int rxLeaf(const accl::ConnContext &ctx, net::Plane plane) const;

    void addLoad(int txLeaf, int rxLeaf, int spine, int delta);

    std::size_t
    upIndex(int leaf, int spine) const
    {
        return static_cast<std::size_t>(leaf * topo_.numSpines() + spine);
    }

    std::size_t
    downIndex(int spine, int leaf) const
    {
        return static_cast<std::size_t>(spine * topo_.numLeaves() + leaf);
    }
};

} // namespace c4::c4p

#endif // C4_C4P_MASTER_H
