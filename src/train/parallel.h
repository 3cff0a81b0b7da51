/**
 * @file
 * Parallelism layout: how a job's global ranks map to GPUs and how the
 * TP / DP / PP communicator groups are formed (Megatron-style ordering:
 * TP fastest-varying and node-local, then PP, then DP).
 */

#ifndef C4_TRAIN_PARALLEL_H
#define C4_TRAIN_PARALLEL_H

#include <string>
#include <vector>

#include "accl/communicator.h"
#include "common/types.h"

namespace c4::train {

/** Degrees of each parallelism dimension plus optimizer settings. */
struct ParallelismSpec
{
    int tp = 1; ///< tensor parallel (must divide gpusPerNode)
    int pp = 1; ///< pipeline parallel
    int dp = 1; ///< data parallel
    /**
     * Expert parallel degree (MoE): experts sharded across the ranks of
     * a data-parallel group. 1 = dense model; otherwise must equal dp
     * (the common Megatron/GShard configuration, and what the paper's
     * Section V discusses for C4D applicability).
     */
    int ep = 1;
    int gradientAccumulation = 1;
    int zeroStage = 0; ///< DeepSpeed ZeRO stage (affects DP traffic shape)

    int worldSize() const { return tp * pp * dp; }

    /** Validate against a node shape; empty string when OK. */
    std::string validate(int gpusPerNode, int numNodes) const;
};

/**
 * Immutable mapping of global ranks to devices and parallel groups.
 *
 * Rank order: global = ((dpIdx * pp) + ppIdx) * tp + tpIdx. Consecutive
 * global ranks fill a node's GPUs before moving on, so TP groups are
 * node-local whenever tp <= gpusPerNode — the topology-aware placement
 * the paper relies on (Section III-B).
 */
class ParallelLayout
{
  public:
    /**
     * @param spec parallelism degrees (worldSize must fit the nodes)
     * @param nodes nodes assigned to the job, in placement order
     * @param gpusPerNode GPUs (and NICs) per node
     */
    ParallelLayout(const ParallelismSpec &spec, std::vector<NodeId> nodes,
                   int gpusPerNode);

    const ParallelismSpec &spec() const { return spec_; }
    int worldSize() const { return spec_.worldSize(); }
    const std::vector<NodeId> &nodes() const { return nodes_; }

    /** Placement of a global rank. */
    accl::DeviceInfo deviceOf(int globalRank) const;

    /** @name Index decomposition @{ */
    int tpIndex(int globalRank) const;
    int ppIndex(int globalRank) const;
    int dpIndex(int globalRank) const;
    /** @} */

    /**
     * TP group @p i, a list of global ranks. There is one per
     * (DP index d, PP index p), at i = d * spec().pp + p.
     */
    std::vector<int> tpGroup(int i) const;

    /** DP group @p i: one per (PP index p, TP index t), at
     * i = p * spec().tp + t. */
    std::vector<int> dpGroup(int i) const;

    /** PP group @p i: one per (DP index d, TP index t), at
     * i = d * spec().tp + t. */
    std::vector<int> ppGroup(int i) const;

    /** @name Every group of a kind, by index @{ */
    std::vector<std::vector<int>> tpGroups() const;
    std::vector<std::vector<int>> dpGroups() const;
    std::vector<std::vector<int>> ppGroups() const;
    /** @} */

    /** Devices (ring order) for a list of global ranks. */
    std::vector<accl::DeviceInfo>
    devicesFor(const std::vector<int> &globalRanks) const;

  private:
    ParallelismSpec spec_;
    std::vector<NodeId> nodes_;
    int gpusPerNode_;
};

} // namespace c4::train

#endif // C4_TRAIN_PARALLEL_H
