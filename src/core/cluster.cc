#include "core/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace c4::core {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), topo_(cfg_.topology)
{
    Rng seeds(cfg_.seed);

    fabric_ = std::make_unique<net::Fabric>(sim_, topo_, cfg_.fabric,
                                            seeds());
    accl_ = std::make_unique<accl::Accl>(sim_, *fabric_, cfg_.accl,
                                         seeds());
    injector_ =
        std::make_unique<fault::FaultInjector>(sim_, seeds());
    injector_->setApplier(
        [this](const fault::FaultEvent &ev) { applyFault(ev); });

    if (cfg_.enableC4p) {
        c4pMaster_ = std::make_unique<c4p::C4pMaster>(sim_, topo_,
                                                      cfg_.c4p, seeds());
        accl_->setPathPolicy(c4pMaster_.get());
    }
    if (cfg_.enableC4d) {
        c4dMaster_ = std::make_unique<c4d::C4dMaster>(sim_, cfg_.c4d);
        agent_ =
            std::make_unique<c4d::C4Agent>(sim_, *accl_, *c4dMaster_);
        steering_ = std::make_unique<c4d::JobSteeringService>(
            sim_, cfg_.steering, seeds());
        c4dMaster_->onEvent([this](const c4d::C4dEvent &ev) {
            steering_->handleEvent(ev);
        });
        // Manual diagnosis (watchdog / start-failure path) eventually
        // identifies broken hardware offline.
        steering_->setCulpritOracle([this](JobId id) {
            std::vector<NodeId> culprits;
            if (train::TrainingJob *j = job(id)) {
                for (NodeId n : j->nodes()) {
                    if (broken_.count(n))
                        culprits.push_back(n);
                }
            }
            return culprits;
        });
    }

    nodeUsed_.assign(static_cast<std::size_t>(topo_.numNodes()), false);
}

Cluster::~Cluster()
{
    // Jobs must release communicators before ACCL goes away.
    jobs_.clear();
}

std::vector<NodeId>
Cluster::allocateNodes(int count, PlacementStrategy strategy)
{
    // Unrepaired hardware is masked out of the pool: a broken node in
    // the free list would hand every new job a start failure.
    std::vector<bool> unavailable = nodeUsed_;
    for (NodeId n : broken_)
        unavailable[static_cast<std::size_t>(n)] = true;
    std::vector<NodeId> out =
        choosePlacement(topo_, unavailable, count, strategy);
    if (out.empty() && count > 0)
        throw std::runtime_error("node pool exhausted");
    for (NodeId n : out)
        nodeUsed_[static_cast<std::size_t>(n)] = true;
    return out;
}

void
Cluster::provisionBackupNodes(int count)
{
    if (!steering_)
        throw std::runtime_error("backup nodes need C4D enabled");
    steering_->addBackupNodes(allocateNodes(count));
    backupReserve_ += count;
}

int
Cluster::freeNodes() const
{
    // Count exactly what allocateNodes can hand out: unused nodes
    // minus unrepaired broken ones.
    int free = 0;
    for (std::size_t n = 0; n < nodeUsed_.size(); ++n) {
        if (!nodeUsed_[n] && !broken_.count(static_cast<NodeId>(n)))
            ++free;
    }
    return free;
}

train::TrainingJob &
Cluster::addJob(train::JobConfig jc)
{
    if (jobs_.count(jc.id))
        throw std::invalid_argument("duplicate job id");
    jc.gpusPerNode = topo_.gpusPerNode();
    if (jc.nodes.empty()) {
        const int needed =
            jc.parallel.worldSize() / topo_.gpusPerNode();
        jc.nodes = allocateNodes(needed);
    }
    auto job =
        std::make_unique<train::TrainingJob>(sim_, *accl_, std::move(jc));
    train::TrainingJob &ref = *job;
    // Initialization on a broken node is a start failure (Fig. 2).
    ref.setStartValidator([this](const std::vector<NodeId> &nodes) {
        for (NodeId n : nodes) {
            if (broken_.count(n))
                return false;
        }
        return true;
    });
    jobs_.emplace(ref.id(), std::move(job));
    if (steering_)
        steering_->manageJob(ref);
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::JobArrival)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::JobArrival;
        tev.job = ref.id();
        tev.a = static_cast<std::int64_t>(ref.nodes().size());
        tev.detail = ref.config().name;
        tr.record(std::move(tev));
    }
    return ref;
}

bool
Cluster::isNodeBroken(NodeId node) const
{
    return broken_.count(node) > 0;
}

void
Cluster::repairNode(NodeId node)
{
    if (broken_.erase(node) == 0)
        return;
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::FaultRecovered)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::FaultRecovered;
        tev.node = node;
        tr.record(std::move(tev));
    }
}

train::TrainingJob *
Cluster::job(JobId id)
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

bool
Cluster::removeJob(JobId id)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    train::TrainingJob &j = *it->second;
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::JobDeparture)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::JobDeparture;
        tev.job = id;
        tev.a = static_cast<std::int64_t>(j.nodes().size());
        tr.record(std::move(tev));
    }
    // Unmanage first so an in-flight steering recovery cannot touch
    // the job after teardown.
    if (steering_)
        steering_->unmanageJob(id);
    j.stop();
    // Broken nodes return to the pool too — allocateNodes masks them
    // until repaired — but steering-isolated nodes stay out (that is
    // the steering service's lifecycle, not the allocator's). Healthy
    // nodes refill the warm-standby queue up to the configured
    // reserve before any reach the general pool; they stay marked
    // used, exactly like the nodes provisionBackupNodes reserved.
    for (NodeId n : j.nodes()) {
        if (steering_ && steering_->isolatedNodes().count(n))
            continue;
        if (steering_ && !broken_.count(n) &&
            steering_->backupsAvailable() <
                static_cast<std::size_t>(backupReserve_)) {
            steering_->addBackupNodes({n});
            continue;
        }
        nodeUsed_[static_cast<std::size_t>(n)] = false;
    }
    jobs_.erase(it);
    return true;
}

void
Cluster::startRuntime()
{
    if (c4dMaster_) {
        c4dMaster_->start();
        agent_->start();
    }
}

train::TrainingJob *
Cluster::jobOnNode(NodeId node)
{
    for (auto &[id, job] : jobs_) {
        const auto &nodes = job->nodes();
        if (std::find(nodes.begin(), nodes.end(), node) != nodes.end())
            return job.get();
    }
    return nullptr;
}

void
Cluster::applyFault(const fault::FaultEvent &ev)
{
    using fault::FaultType;
    switch (ev.type) {
      case FaultType::CudaError:
      case FaultType::EccError:
      case FaultType::NvlinkError:
      case FaultType::NcclTimeout:
      case FaultType::AckTimeout:
      case FaultType::NetworkOther: {
        // Hardware faults with a defective component stay broken until
        // repaired; transient software/stack faults do not.
        if (ev.isLocal &&
            (ev.type == FaultType::EccError ||
             ev.type == FaultType::NvlinkError)) {
            broken_.insert(ev.node);
        }
        if (train::TrainingJob *j = jobOnNode(ev.node))
            j->crashNode(ev.node);
        break;
      }
      case FaultType::SlowNode: {
        if (train::TrainingJob *j = jobOnNode(ev.node))
            j->setNodeComputeScale(ev.node, 1.0 / ev.severity);
        break;
      }
      case FaultType::SlowNicTx: {
        for (int p = 0; p < net::kNumPlanes; ++p) {
            fabric_->setLinkCapacityScale(
                topo_.hostUplink(ev.node, ev.nic, net::planeFromIndex(p)),
                ev.severity);
        }
        break;
      }
      case FaultType::SlowNicRx: {
        for (int p = 0; p < net::kNumPlanes; ++p) {
            fabric_->setLinkCapacityScale(
                topo_.hostDownlink(ev.node, ev.nic,
                                   net::planeFromIndex(p)),
                ev.severity);
        }
        break;
      }
      case FaultType::LinkDown: {
        // ev.link is a trunk index: leaf * numSpines + spine. A cable
        // failure kills both directions.
        const int spines = topo_.numSpines();
        const int leaf = static_cast<int>(ev.link) / spines;
        const int spine = static_cast<int>(ev.link) % spines;
        if (leaf < topo_.numLeaves()) {
            fabric_->setLinkUp(topo_.trunkUplink(leaf, spine), false);
            fabric_->setLinkUp(topo_.trunkDownlink(spine, leaf), false);
        }
        break;
      }
    }
}

net::TopologyConfig
paperTestbed(double oversubscription)
{
    net::TopologyConfig tc;
    tc.numNodes = 16;
    tc.gpusPerNode = 8;
    tc.nicsPerNode = 8;
    tc.nodesPerSegment = 4;
    tc.numSpines = 8;
    tc.portBandwidth = gbps(200);
    tc.oversubscription = oversubscription;
    tc.nvlinkBusBandwidth = gbps(362);
    return tc;
}

net::TopologyConfig
productionPod(int numNodes, double oversubscription)
{
    net::TopologyConfig tc = paperTestbed(oversubscription);
    tc.numNodes = numNodes;
    tc.nodesPerSegment = 4;
    tc.numSpines = 8;
    return tc;
}

} // namespace c4::core
