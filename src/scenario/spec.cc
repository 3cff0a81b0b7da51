#include "scenario/spec.h"

#include <set>
#include <sstream>

#include "core/cluster.h"

namespace c4::scenario {

bool
knownModel(const std::string &model)
{
    return model == "gpt22b" || model == "gpt175b" ||
           model == "llama7b" || model == "llama13b";
}

std::string
validateTrialRange(int begin, int count, int totalTrials)
{
    std::ostringstream os;
    if (begin < 0) {
        os << "trial_begin must be >= 0, not " << begin;
        return os.str();
    }
    if (count < 0) {
        os << "trial_count must not be negative (0 means through "
              "the last trial), not "
           << count;
        return os.str();
    }
    if (begin >= totalTrials) {
        os << "trial_begin " << begin << " is out of range for a "
           << totalTrials << "-trial sweep";
        return os.str();
    }
    if (count > 0 && begin + count > totalTrials) {
        os << "trial range [" << begin << ", " << begin + count
           << ") overflows the " << totalTrials << "-trial sweep";
        return os.str();
    }
    return "";
}

namespace {

std::string
err(const ScenarioSpec &spec, const std::string &what)
{
    return "variant '" + spec.variant + "': " + what;
}

bool
inRange(int index, int count)
{
    return index >= 0 && index < count;
}

std::string
outOfRange(const ScenarioSpec &spec, const char *what, int index,
           int count)
{
    std::ostringstream os;
    os << what << " " << index << " is out of range [0, " << count
       << ") for the topology";
    return err(spec, os.str());
}

} // namespace

net::TopologyConfig
topologyConfigOf(const TopologySpec &t)
{
    net::TopologyConfig tc =
        t.kind == TopologySpec::Kind::Testbed
            ? core::paperTestbed(t.oversubscription)
            : core::productionPod(t.numNodes, t.oversubscription);
    if (t.nodesPerSegment > 0)
        tc.nodesPerSegment = t.nodesPerSegment;
    if (t.nvlinkBusBandwidth > 0)
        tc.nvlinkBusBandwidth = t.nvlinkBusBandwidth;
    return tc;
}

std::string
validateSpec(const ScenarioSpec &spec)
{
    if (spec.variant.empty())
        return "spec has an empty variant label";
    if (spec.custom)
        return ""; // custom executors own their configuration

    if (spec.topology.nodesPerSegment < 0)
        return err(spec, "nodesPerSegment must be >= 0");
    if (spec.topology.nvlinkBusBandwidth < 0)
        return err(spec, "nvlinkBusBandwidth must be >= 0");
    const net::TopologyConfig topo = topologyConfigOf(spec.topology);
    const std::string wiring = topo.validate();
    if (!wiring.empty())
        return err(spec, wiring);
    if (spec.features.qpsPerConnection < 0)
        return err(spec, "qpsPerConnection must be >= 0");
    if (spec.features.backupNodes < 0)
        return err(spec, "backupNodes must be >= 0");
    if (spec.features.backupNodes > 0 && !spec.features.c4d)
        return err(spec, "backup nodes need C4D enabled");
    if (spec.features.fabricCoalesceWindow < 0)
        return err(spec, "fabricCoalesceWindow must be >= 0");
    if (spec.features.evaluatePeriod < 0)
        return err(spec, "evaluatePeriod must be >= 0");
    if (spec.features.hangThreshold < 0)
        return err(spec, "hangThreshold must be >= 0");
    if (spec.features.minWaitForSlow < 0)
        return err(spec, "minWaitForSlow must be >= 0");
    if (spec.features.isolationDelay < 0)
        return err(spec, "isolationDelay must be >= 0");

    std::set<JobId> ids;
    for (const JobSpec &job : spec.jobs) {
        if (!knownModel(job.model))
            return err(spec, "unknown model '" + job.model + "'");
        if (!ids.insert(job.id).second) {
            std::ostringstream os;
            os << "duplicate job id " << job.id;
            return err(spec, os.str());
        }
        if (job.parallel.tp < 1 || job.parallel.pp < 1 ||
            job.parallel.dp < 1) {
            return err(spec, "parallel degrees must be >= 1");
        }
        if (job.microBatch < 1)
            return err(spec, "microBatch must be >= 1");
        if (job.microbatchCompute < 0)
            return err(spec, "microbatchCompute must be >= 0");
        if (job.initTime < 0)
            return err(spec, "initTime must be >= 0");
        if (job.checkpointCost < 0)
            return err(spec, "checkpointCost must be >= 0");
        if (job.hangWatchdogTimeout < 0)
            return err(spec, "hangWatchdogTimeout must be >= 0");
        for (NodeId n : job.nodes) {
            if (!inRange(n, topo.numNodes))
                return outOfRange(spec, "job node", n, topo.numNodes);
        }
    }
    if (!spec.jobs.empty() && spec.horizon <= 0) {
        return err(spec,
                   "jobs iterate forever; a horizon > 0 is required");
    }

    for (const AllreduceGroupSpec &g : spec.allreduces) {
        if (g.tasks < 1)
            return err(spec, "allreduce group needs tasks >= 1");
        if (g.iterations < 1)
            return err(spec, "allreduce group needs iterations >= 1");
        if (g.bytes <= 0)
            return err(spec, "allreduce group needs bytes > 0");
        if (g.placement == AllreduceGroupSpec::Placement::Explicit &&
            g.explicitNodes.size() != static_cast<std::size_t>(g.tasks)) {
            return err(spec, "explicit allreduce placement needs one "
                             "node list per task");
        }
        for (const std::vector<NodeId> &nodes : g.explicitNodes) {
            for (NodeId n : nodes) {
                if (!inRange(n, topo.numNodes)) {
                    return outOfRange(spec, "allreduce node", n,
                                      topo.numNodes);
                }
            }
        }
        if (g.placement ==
            AllreduceGroupSpec::Placement::SpreadAcrossSegments) {
            if (g.nodesPerTask < 2)
                return err(spec,
                           "spread allreduce needs nodesPerTask >= 2");
            if (g.tasks != 1)
                return err(spec, "spread allreduce placement supports "
                                 "exactly one task");
        }
    }

    for (const LinkEventSpec &le : spec.linkEvents) {
        if (le.at < 0)
            return err(spec, "link event at_s must be >= 0");
        if (!inRange(le.segment, topo.numSegments())) {
            return outOfRange(spec, "link event segment", le.segment,
                              topo.numSegments());
        }
        if (!inRange(le.spine, topo.numSpines)) {
            return outOfRange(spec, "link event spine", le.spine,
                              topo.numSpines);
        }
    }

    for (const FaultSpec &f : spec.faults) {
        if (f.at < 0)
            return err(spec, "fault at_s must be >= 0");
        if (f.job == kInvalidId && f.node == kInvalidId)
            return err(spec, "fault needs a job or an absolute node");
        if (f.job != kInvalidId && f.jobNodeIndex < 0)
            return err(spec, "fault jobNodeIndex must be >= 0");
        if (f.job == kInvalidId && !inRange(f.node, topo.numNodes))
            return outOfRange(spec, "fault node", f.node, topo.numNodes);
        if (!inRange(f.nic, topo.nicsPerNode))
            return outOfRange(spec, "fault nic", f.nic, topo.nicsPerNode);
        if (f.severity <= 0.0)
            return err(spec, "fault severity must be > 0");
    }
    if (spec.campaign.enabled && spec.campaign.span <= 0)
        return err(spec, "campaign needs span > 0");

    if (spec.abortAt < 0)
        return err(spec, "abort_at_s must be >= 0");
    if (spec.abortTrial < -1)
        return err(spec, "abort_trial must be >= -1");
    if (spec.abortTrial >= 0 && spec.abortAt <= 0) {
        return err(spec,
                   "abort_trial needs abort_at_s > 0 to take effect");
    }

    if (spec.metrics.detection && !spec.features.c4d)
        return err(spec, "detection metrics need C4D enabled");
    if (spec.metrics.detection && spec.faults.empty())
        return err(spec, "detection metrics need an injected fault");
    if (spec.metrics.cnpSamplePeriod < 0 ||
        spec.metrics.uplinkSamplePeriod < 0) {
        return err(spec, "sampler periods must be >= 0");
    }
    if (!inRange(spec.metrics.cnpNic, topo.nicsPerNode)) {
        return outOfRange(spec, "cnp_nic", spec.metrics.cnpNic,
                          topo.nicsPerNode);
    }
    if (!inRange(spec.metrics.uplinkSegment, topo.numSegments())) {
        return outOfRange(spec, "uplink_segment",
                          spec.metrics.uplinkSegment, topo.numSegments());
    }
    return "";
}

} // namespace c4::scenario
