/**
 * @file
 * Declarative scenario specification.
 *
 * A ScenarioSpec composes, as plain data, what the paper-figure benches
 * used to hard-code: topology and oversubscription, the job mix and its
 * placement, allreduce benchmark tasks, a fault / link-event schedule,
 * the C4P/C4D feature knobs, and which metrics to collect. The spec
 * interpreter (workload.h) turns one spec + one seed into a metric set;
 * scenarios that need machinery the interpreter does not model (e.g.
 * the Monte-Carlo downtime table) install a `custom` executor instead
 * and still ride the same registry / runner / sink pipeline.
 */

#ifndef C4_SCENARIO_SPEC_H
#define C4_SCENARIO_SPEC_H

#include <functional>
#include <string>
#include <vector>

#include "c4d/master.h"
#include "common/types.h"
#include "core/placement.h"
#include "fault/fault_types.h"
#include "net/topology.h"
#include "scenario/options.h"
#include "train/parallel.h"

namespace c4::scenario {

/** Which cluster wiring to instantiate. */
struct TopologySpec
{
    enum class Kind {
        Testbed, ///< the paper's 16-node controlled testbed
        Pod,     ///< production-style pod (numNodes required)
    };

    Kind kind = Kind::Testbed;
    int numNodes = 0; ///< Pod only
    double oversubscription = 1.0;

    /** Overrides; 0 keeps the topology default. */
    int nodesPerSegment = 0;
    Bandwidth nvlinkBusBandwidth = 0;
};

/** C4P / C4D deployment knobs. */
struct FeatureSpec
{
    bool c4p = false;
    bool dualPortRule = true;
    bool spineRule = true;
    bool dynamicLoadBalance = false;

    /** Use the packet-spraying path policy instead of ECMP/C4P. */
    bool sprayPaths = false;

    /** ACCL QPs per connection; 0 keeps the default. */
    int qpsPerConnection = 0;

    bool c4d = false;
    Duration evaluatePeriod = 0;  ///< 0 keeps the default
    Duration hangThreshold = 0;   ///< 0 keeps the default
    Duration minWaitForSlow = 0;  ///< analyzer knob; 0 keeps default
    bool isolateOnSlow = true;
    Duration isolationDelay = 0;  ///< 0 keeps the default
    int backupNodes = 0;          ///< warm spares for steering

    /**
     * Fabric re-allocation coalesce window for link events
     * (FabricConfig::coalesceWindow): during a fault storm, link
     * up/down and capacity-scale events within the window fold into a
     * single incremental recompute. 0 keeps the default (immediate).
     */
    Duration fabricCoalesceWindow = 0;
};

/** One training job of the workload. */
struct JobSpec
{
    JobId id = 1;
    std::string name;          ///< defaults to "job<id>"
    std::string model = "llama7b"; ///< gpt22b|gpt175b|llama7b|llama13b
    Duration microbatchCompute = 0; ///< override; 0 = model default
    train::ParallelismSpec parallel;
    int microBatch = 1;
    Duration initTime = seconds(1);
    int dpGroupsSimulated = 2;
    int checkpointIntervalIters = 0;
    Duration checkpointCost = seconds(30);
    Duration hangWatchdogTimeout = 0; ///< 0 keeps the default

    /** Explicit placement, or empty to allocate under `placement`. */
    std::vector<NodeId> nodes;
    core::PlacementStrategy placement = core::PlacementStrategy::Packed;
};

/** A group of nccl-test-style repeated-allreduce benchmark tasks. */
struct AllreduceGroupSpec
{
    /** How task node sets are derived. */
    enum class Placement {
        CrossSegmentPairs,    ///< Fig. 10 style: one pair per task
        SpreadAcrossSegments, ///< one task over nodes spread round-robin
        Explicit,             ///< explicitNodes, one entry per task
    };

    int tasks = 1;
    Placement placement = Placement::CrossSegmentPairs;
    int nodesPerTask = 2; ///< SpreadAcrossSegments only
    std::vector<std::vector<NodeId>> explicitNodes;
    Bytes bytes = mib(256);
    int iterations = 25;
};

/** Fail (or restore) one leaf<->spine trunk, both directions. */
struct LinkEventSpec
{
    Time at = 0;
    int segment = 0;
    net::Plane plane = net::Plane::Left;
    int spine = 0;
    bool up = false;
};

/** One scheduled fault injection. */
struct FaultSpec
{
    Time at = 0;
    fault::FaultType type = fault::FaultType::SlowNode;

    /**
     * Victim selection: when job != kInvalidId the victim is that job's
     * placement entry [jobNodeIndex], resolved at injection time (the
     * steering service may have reshaped the placement by then);
     * otherwise `node` is used as-is.
     */
    JobId job = kInvalidId;
    int jobNodeIndex = 0;
    NodeId node = kInvalidId;

    /** NIC-scoped faults: one event per NIC when allNics is set. */
    bool allNics = false;
    NicId nic = 0;

    double severity = 1.0;
};

/** A Poisson fault campaign over the cluster's node population. */
struct CampaignSpec
{
    enum class Rates { June2023, December2023 };

    bool enabled = false;
    Rates rates = Rates::June2023;
    double scale = 1.0; ///< rate multiplier (compressed campaigns)
    Duration span = 0;
};

/** Which measurements the interpreter collects. */
struct MetricsSpec
{
    /** Allreduce tasks: per-task busbw + mean/min/max aggregate. */
    bool taskBusBw = true;
    bool perTask = true;

    /** Split busbw / uplink samples into before/after this time
     * (0 disables the split) — the Fig. 12/13 failure experiments. */
    Time splitAt = 0;

    /** Jobs: samples/s, communication share, segments spanned. */
    bool jobThroughput = true;
    bool jobCommShare = false;
    bool jobSegments = false;

    /** Steering / C4D counters (restarts, isolations, events). */
    bool steeringCounters = false;

    /** Sample NIC CNP rates each period (0 disables); Fig. 11. */
    Duration cnpSamplePeriod = 0;
    NicId cnpNic = 7;

    /** Sample one leaf's trunk-uplink throughput (0 disables); Fig. 13. */
    Duration uplinkSamplePeriod = 0;
    int uplinkSegment = 0;
    net::Plane uplinkPlane = net::Plane::Left;

    /** Scan the C4D event log for a detection of the injected fault. */
    bool detection = false;
    c4d::C4dEventKind detectionKind = c4d::C4dEventKind::CommSlow;
};

/**
 * One declaratively-described simulated run (a scenario variant).
 * Executed by runSpecTrial() unless `custom` is installed.
 */
struct ScenarioSpec
{
    std::string variant = "default"; ///< row label in tables/CSV

    TopologySpec topology;
    FeatureSpec features;

    std::vector<JobSpec> jobs;
    std::vector<AllreduceGroupSpec> allreduces;

    std::vector<LinkEventSpec> linkEvents;
    std::vector<FaultSpec> faults;
    CampaignSpec campaign;

    MetricsSpec metrics;

    /** Simulated horizon; 0 = run until the event queue drains
     * (allreduce-only workloads). Required when jobs are present. */
    Duration horizon = 0;

    /**
     * Deterministic failure injection: raise an error at this
     * simulated time (0 disables). Because per-trial seeds depend only
     * on (base seed, absolute trial index), a shard that fails here
     * fails identically when re-run — which is what lets the campaign
     * executor cut a forensics bundle by re-running the shard under
     * `--trace`. Every event up to the abort is recorded.
     */
    Duration abortAt = 0;

    /** Restrict abortAt to one absolute trial index (-1 = every
     * trial), so one shard of a sweep fails while its siblings
     * complete. */
    int abortTrial = -1;

    /**
     * Escape hatch: scenarios whose machinery the interpreter does not
     * model (Monte-Carlo downtime, raw fault campaigns, kernel
     * microbenchmarks) execute through this instead. Must be callable
     * concurrently from multiple trial workers.
     */
    std::function<void(TrialContext &)> custom;
};

/** The wiring a spec's cluster is built on (what toClusterConfig uses). */
net::TopologyConfig topologyConfigOf(const TopologySpec &t);

/**
 * Validate a declarative spec. Returns an empty string when the spec is
 * runnable, otherwise a human-readable description of the first error:
 * a bad value, a topology TopologyConfig::validate rejects, or a node,
 * NIC, segment or spine index out of range for that topology. Specs with a `custom` executor skip workload
 * validation.
 */
std::string validateSpec(const ScenarioSpec &spec);

/** True if `model` names a known model preset. */
bool knownModel(const std::string &model);

/**
 * Validate a shard trial range against a sweep of @p totalTrials
 * trials. @p count 0 means "through the last trial". Returns an empty
 * string when the range is runnable, otherwise the error: a negative
 * bound, a begin at or past the sweep end, or a range overflowing it.
 * Shared by the runner (against the resolved trial count) and the
 * spec-file binder (against the counts stored in the file).
 */
std::string validateTrialRange(int begin, int count, int totalTrials);

} // namespace c4::scenario

#endif // C4_SCENARIO_SPEC_H
