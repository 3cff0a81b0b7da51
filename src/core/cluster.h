/**
 * @file
 * The cluster runtime: one object owning the whole stack — event engine,
 * topology, fabric, ACCL, fault injection, and (optionally) the C4D and
 * C4P subsystems — wired the way the paper deploys them (Fig. 4/8).
 *
 * This is the public entry point a downstream user instantiates; the
 * examples and benches are all built on it.
 */

#ifndef C4_CORE_CLUSTER_H
#define C4_CORE_CLUSTER_H

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "accl/accl.h"
#include "c4d/agent.h"
#include "c4d/downtime.h"
#include "c4d/master.h"
#include "c4d/rca.h"
#include "c4d/steering.h"
#include "core/placement.h"
#include "c4p/master.h"
#include "c4p/prober.h"
#include "common/types.h"
#include "fault/injector.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "train/job.h"

namespace c4::core {

/** Aggregate configuration for a cluster instance. */
struct ClusterConfig
{
    net::TopologyConfig topology;
    net::FabricConfig fabric;
    accl::AcclConfig accl;

    /** Deploy C4D (agents + master + steering). */
    bool enableC4d = false;
    c4d::C4dConfig c4d;
    c4d::SteeringConfig steering;
    Duration agentPeriod = seconds(2);

    /** Deploy C4P (path allocation policy installed into ACCL). */
    bool enableC4p = false;
    c4p::C4pConfig c4p;

    std::uint64_t seed = 0xC4C10C4Dull;
};

class Cluster
{
  public:
    explicit Cluster(ClusterConfig cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** @name Layer access @{ */
    Simulator &sim() { return sim_; }
    net::Topology &topology() { return topo_; }
    net::Fabric &fabric() { return *fabric_; }
    accl::Accl &accl() { return *accl_; }
    fault::FaultInjector &faults() { return *injector_; }

    /** Non-null only when enableC4d. */
    c4d::C4dMaster *c4dMaster() { return c4dMaster_.get(); }
    c4d::JobSteeringService *steering() { return steering_.get(); }
    c4d::C4Agent *agent() { return agent_.get(); }
    c4d::RootCauseAnalyzer *rca() { return rca_.get(); }

    /** Non-null only when enableC4p. */
    c4p::C4pMaster *c4pMaster() { return c4pMaster_.get(); }
    /** @} */

    /** @name Node pool @{ */

    /**
     * Reserve @p count free nodes under the given placement strategy
     * (Packed = topology-aware, the production default).
     * @throws std::runtime_error when the pool is exhausted.
     */
    std::vector<NodeId>
    allocateNodes(int count,
                  PlacementStrategy strategy = PlacementStrategy::Packed);

    /**
     * Reserve @p count nodes as warm backups for the steering pool.
     * The accumulated count becomes the backup *reserve size*:
     * removeJob refills the pool back up to it from freed healthy
     * nodes.
     */
    void provisionBackupNodes(int count);

    /** Warm-standby target established by provisionBackupNodes. */
    int backupReserve() const { return backupReserve_; }

    /** Nodes allocateNodes can still hand out: neither in use nor
     * broken. */
    int freeNodes() const;

    /**
     * Nodes with unrepaired fatal hardware faults. A job initializing
     * on a broken node suffers a *start failure* (paper Fig. 2) — C4D
     * cannot see it (no collectives ran), so recovery goes through the
     * manual-diagnosis path.
     */
    bool isNodeBroken(NodeId node) const;
    std::size_t brokenNodeCount() const { return broken_.size(); }

    /** Repair a node (hardware replacement / burn-in passed). */
    void repairNode(NodeId node);
    /** @} */

    /** @name Jobs @{ */

    /**
     * Create and register a training job. If cfg.nodes is empty, nodes
     * are allocated from the pool automatically. The job is managed by
     * the steering service when C4D is enabled, and the fault applier
     * routes node faults into it.
     */
    train::TrainingJob &addJob(train::JobConfig cfg);

    train::TrainingJob *job(JobId id);
    std::size_t jobCount() const { return jobs_.size(); }

    /**
     * Stop and deregister a job, returning its nodes to the free pool.
     * Broken nodes return too but stay masked out of allocation until
     * repaired; steering-isolated nodes stay out entirely. While the
     * steering service's warm-standby queue sits below the configured
     * reserve (provisionBackupNodes), freed healthy nodes refill it —
     * the swapped-in backup a departing job hands back becomes the
     * next job's warm spare instead of leaking into the general pool.
     * No-op on an unknown id.
     * @return true if the job existed.
     */
    bool removeJob(JobId id);
    /** @} */

    /**
     * Start the C4 runtime (agents + master evaluation loops). Jobs are
     * started individually via TrainingJob::start().
     */
    void startRuntime();

    /** Run the simulation until @p until (or queue exhaustion). */
    std::uint64_t run(Time until = kTimeNever) { return sim_.run(until); }

    const ClusterConfig &config() const { return cfg_; }

  private:
    ClusterConfig cfg_;
    Simulator sim_;
    net::Topology topo_;
    std::unique_ptr<net::Fabric> fabric_;
    std::unique_ptr<accl::Accl> accl_;
    std::unique_ptr<fault::FaultInjector> injector_;

    std::unique_ptr<c4p::C4pMaster> c4pMaster_;
    std::unique_ptr<c4d::C4dMaster> c4dMaster_;
    std::unique_ptr<c4d::C4Agent> agent_;
    std::unique_ptr<c4d::JobSteeringService> steering_;
    std::unique_ptr<c4d::RootCauseAnalyzer> rca_;

    std::unordered_map<JobId, std::unique_ptr<train::TrainingJob>> jobs_;
    std::vector<bool> nodeUsed_;
    std::unordered_set<NodeId> broken_;
    int backupReserve_ = 0;

    void applyFault(const fault::FaultEvent &ev);
    train::TrainingJob *jobOnNode(NodeId node);
};

/** The paper's controlled testbed (Section IV-A): 16 nodes x 8 H800,
 * dual-port 200 Gbps NICs, 8 leaves (4 segments x 2 planes), 8 spines. */
net::TopologyConfig paperTestbed(double oversubscription = 1.0);

/** A larger production-style pod for scaling studies (Fig. 3). */
net::TopologyConfig productionPod(int numNodes,
                                  double oversubscription = 1.0);

} // namespace c4::core

#endif // C4_CORE_CLUSTER_H
