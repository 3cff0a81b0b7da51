/**
 * @file
 * Experiment harness helpers shared by the benches: nccl-test-style
 * repeated-allreduce tasks (the paper's busbw benchmarks) and placement
 * utilities reproducing the evaluation setups.
 */

#ifndef C4_CORE_EXPERIMENT_H
#define C4_CORE_EXPERIMENT_H

#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/cluster.h"

namespace c4::core {

/** Configuration of one nccl-test-style allreduce benchmark task. */
struct AllreduceTaskConfig
{
    JobId job = 1;
    std::vector<NodeId> nodes;
    Bytes bytes = mib(256);
    int iterations = 50;
};

/**
 * Repeatedly runs ring allreduce over all GPUs of the given nodes and
 * records per-operation bus bandwidth — the measurement loop behind
 * Figs. 9, 10 and 12.
 */
class AllreduceTask
{
  public:
    using IterationCallback =
        std::function<void(int iteration, double busBwGbps)>;

    AllreduceTask(Cluster &cluster, AllreduceTaskConfig cfg);
    ~AllreduceTask();

    AllreduceTask(const AllreduceTask &) = delete;
    AllreduceTask &operator=(const AllreduceTask &) = delete;

    void start();

    bool finished() const { return done_; }
    int iterationsCompleted() const { return iter_; }

    /** Bus bandwidth samples in Gbps. */
    const Summary &busBwGbps() const { return busBw_; }
    const std::vector<double> &series() const { return series_; }

    void onIteration(IterationCallback cb) { cb_ = std::move(cb); }

  private:
    Cluster &cluster_;
    AllreduceTaskConfig cfg_;
    CommId comm_ = kInvalidId;
    int iter_ = 0;
    bool done_ = false;
    Summary busBw_;
    std::vector<double> series_;
    IterationCallback cb_;

    void postNext();
};

/**
 * Pair up nodes across segments: task i gets one node from segment
 * (i mod S) and one from a different segment, forcing its traffic over
 * the spines — the Fig. 10 placement ("two servers connected to
 * distinct groups of leaf switches").
 */
std::vector<std::vector<NodeId>>
crossSegmentPairs(const net::Topology &topo, int numTasks);

/**
 * Spread @p count nodes round-robin across the segments (node i of
 * segment i mod S): every ring boundary crosses the spines — the
 * Fig. 9 placement.
 */
std::vector<NodeId> spreadAcrossSegments(const net::Topology &topo,
                                         int count);

} // namespace c4::core

#endif // C4_CORE_EXPERIMENT_H
