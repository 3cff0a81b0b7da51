#include "scenario/workload.h"

#include <functional>
#include <memory>
#include <stdexcept>

#include "accl/path_policy.h"
#include "c4d/metrics_sink.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "train/model.h"

namespace c4::scenario {

namespace {

fault::FaultRates
campaignRates(const CampaignSpec &c)
{
    fault::FaultRates rates = c.rates == CampaignSpec::Rates::June2023
                                  ? fault::FaultRates::paperJune2023()
                                  : fault::FaultRates::paperDecember2023();
    return c.scale == 1.0 ? rates : rates.scaled(c.scale);
}

} // namespace

train::ModelConfig
modelByName(const std::string &name)
{
    if (name == "gpt22b")
        return train::gpt22b();
    if (name == "gpt175b")
        return train::gpt175b();
    if (name == "llama7b")
        return train::llama7b();
    if (name == "llama13b")
        return train::llama13b();
    throw std::invalid_argument("unknown model '" + name + "'");
}

core::ClusterConfig
toClusterConfig(const ScenarioSpec &spec, std::uint64_t seed)
{
    core::ClusterConfig cc;
    cc.topology = topologyConfigOf(spec.topology);

    const FeatureSpec &f = spec.features;
    cc.enableC4p = f.c4p;
    cc.c4p.balanceDualPort = f.dualPortRule;
    cc.c4p.balanceSpines = f.spineRule;
    cc.c4p.dynamicLoadBalance = f.dynamicLoadBalance;
    if (f.qpsPerConnection > 0)
        cc.accl.qpsPerConnection = f.qpsPerConnection;

    cc.enableC4d = f.c4d;
    if (f.evaluatePeriod > 0)
        cc.c4d.evaluatePeriod = f.evaluatePeriod;
    if (f.hangThreshold > 0)
        cc.c4d.hangThreshold = f.hangThreshold;
    if (f.minWaitForSlow > 0)
        cc.c4d.analyzer.minWaitForSlow = f.minWaitForSlow;
    cc.steering.isolateOnSlow = f.isolateOnSlow;
    if (f.isolationDelay > 0)
        cc.steering.isolationDelay = f.isolationDelay;
    if (f.fabricCoalesceWindow > 0)
        cc.fabric.coalesceWindow = f.fabricCoalesceWindow;

    cc.seed = seed;
    return cc;
}

void
runSpecTrial(const ScenarioSpec &spec, TrialContext &ctx)
{
    const std::string invalid = validateSpec(spec);
    if (!invalid.empty())
        throw std::invalid_argument(invalid);

    // The spray policy must outlive the cluster's ACCL instance.
    accl::SprayPathPolicy spray(deriveSeed(ctx.seed, 0x5B4A45));
    // The telemetry sink must outlive the cluster (steering holds a
    // raw pointer until the cluster is torn down).
    std::unique_ptr<c4d::MetricsTelemetrySink> obsSink;
    if (ctx.meter != nullptr) {
        obsSink =
            std::make_unique<c4d::MetricsTelemetrySink>(*ctx.meter);
    }

    core::Cluster cluster(toClusterConfig(spec, ctx.seed));
    core::Cluster &cl = cluster;
    // One attach instruments the whole stack: every layer emits
    // through the Simulator's TraceScope. Nullptr recorder = no-op.
    cl.sim().setTracer(trace::TraceScope(ctx.tracer));
    // Same deal for metrics: a detached scope is a null check.
    cl.sim().setMetrics(obs::MetricsScope(ctx.meter));
    const net::Topology &topo = cl.topology();

    if (spec.features.sprayPaths)
        cl.accl().setPathPolicy(&spray);
    if (spec.features.backupNodes > 0)
        cl.provisionBackupNodes(spec.features.backupNodes);
    if (spec.features.c4d)
        cl.startRuntime();
    if (obsSink && cl.steering() != nullptr)
        cl.steering()->setTelemetrySink(obsSink.get());

    // --- jobs ---------------------------------------------------------
    struct JobProbe
    {
        train::TrainingJob *job = nullptr;
        JobId id = kInvalidId;
        int segments = 0;
        double commSeconds = 0.0;
        double totalSeconds = 0.0;
    };
    std::vector<JobProbe> jobProbes;
    jobProbes.reserve(spec.jobs.size());
    for (const JobSpec &js : spec.jobs) {
        train::JobConfig jc;
        jc.id = js.id;
        jc.name = js.name.empty() ? "job" + std::to_string(js.id)
                                  : js.name;
        jc.model = modelByName(js.model);
        if (js.microbatchCompute > 0)
            jc.model.microbatchCompute = js.microbatchCompute;
        jc.parallel = js.parallel;
        jc.microBatch = js.microBatch;
        jc.initTime = js.initTime;
        jc.dpGroupsSimulated = js.dpGroupsSimulated;
        jc.checkpointIntervalIters = js.checkpointIntervalIters;
        jc.checkpointCost = js.checkpointCost;
        if (js.hangWatchdogTimeout > 0)
            jc.hangWatchdogTimeout = js.hangWatchdogTimeout;
        jc.seed =
            deriveSeed(ctx.seed, static_cast<std::uint64_t>(js.id));

        const std::string perr = jc.parallel.validate(
            topo.gpusPerNode(), topo.numNodes());
        if (!perr.empty()) {
            throw std::invalid_argument("variant '" + spec.variant +
                                        "': " + perr);
        }

        if (!js.nodes.empty()) {
            jc.nodes = js.nodes;
        } else {
            const int needed =
                jc.parallel.worldSize() / topo.gpusPerNode();
            jc.nodes = cl.allocateNodes(needed, js.placement);
        }

        JobProbe probe;
        probe.id = js.id;
        probe.segments = core::segmentsSpanned(topo, jc.nodes);
        probe.job = &cl.addJob(jc);
        jobProbes.push_back(probe);
    }
    // Attach the comm-share accumulators after the vector is stable.
    if (spec.metrics.jobCommShare) {
        for (JobProbe &p : jobProbes) {
            JobProbe *probe = &p;
            p.job->onIteration(
                [probe](const train::IterationStats &st) {
                    probe->commSeconds += toSeconds(st.commDuration);
                    probe->totalSeconds +=
                        toSeconds(st.end - st.start);
                });
        }
    }

    // --- allreduce benchmark tasks ------------------------------------
    struct TaskProbe
    {
        std::unique_ptr<core::AllreduceTask> task;
        Summary before, after;
    };
    std::vector<TaskProbe> taskProbes;
    // Keep task telemetry ids disjoint from every training-job id.
    JobId taskIdBase = 1;
    for (const JobSpec &js : spec.jobs)
        taskIdBase = std::max(taskIdBase, js.id + 1);
    const Time splitAt = spec.metrics.splitAt;
    for (const AllreduceGroupSpec &g : spec.allreduces) {
        std::vector<std::vector<NodeId>> placements;
        switch (g.placement) {
          case AllreduceGroupSpec::Placement::CrossSegmentPairs:
            placements = core::crossSegmentPairs(topo, g.tasks);
            break;
          case AllreduceGroupSpec::Placement::SpreadAcrossSegments:
            placements.push_back(
                core::spreadAcrossSegments(topo, g.nodesPerTask));
            break;
          case AllreduceGroupSpec::Placement::Explicit:
            placements = g.explicitNodes;
            break;
        }
        for (const std::vector<NodeId> &nodes : placements) {
            core::AllreduceTaskConfig tc;
            tc.job = static_cast<JobId>(taskIdBase + taskProbes.size());
            tc.nodes = nodes;
            tc.bytes = g.bytes;
            tc.iterations = g.iterations;
            taskProbes.push_back(
                {std::make_unique<core::AllreduceTask>(cl, tc), {}, {}});
        }
    }
    if (splitAt > 0) {
        for (TaskProbe &p : taskProbes) {
            TaskProbe *probe = &p;
            Simulator *sim = &cl.sim();
            p.task->onIteration([probe, sim, splitAt](int, double bw) {
                (sim->now() < splitAt ? probe->before : probe->after)
                    .add(bw);
            });
        }
    }

    // --- fault plan ---------------------------------------------------
    for (const LinkEventSpec &le : spec.linkEvents) {
        cl.sim().scheduleAt(le.at, [&cl, le] {
            const int leaf =
                cl.topology().leafIndex(le.segment, le.plane);
            cl.fabric().setLinkUp(
                cl.topology().trunkUplink(leaf, le.spine), le.up);
            cl.fabric().setLinkUp(
                cl.topology().trunkDownlink(le.spine, leaf), le.up);
        });
    }

    // Deterministic failure injection (the campaign-forensics test
    // hook): the trial raises at a fixed simulated time, so re-running
    // the same shard under --trace reproduces the failure with every
    // event up to the abort on record.
    if (spec.abortAt > 0 &&
        (spec.abortTrial < 0 || spec.abortTrial == ctx.trial)) {
        const int trial = ctx.trial;
        const Time at = spec.abortAt;
        cl.sim().scheduleAt(at, [trial, at] {
            throw std::runtime_error(
                "injected abort (abort_at_s) at t=" +
                std::to_string(static_cast<double>(at) * 1e-9) +
                "s in trial " + std::to_string(trial));
        });
    }

    Time lastFaultAt = 0;
    std::vector<NodeId> faultVictims;
    for (const FaultSpec &fs : spec.faults) {
        lastFaultAt = std::max(lastFaultAt, fs.at);
        // Victims referencing a job placement resolve at injection time
        // (steering may have reshaped the placement by then).
        cl.sim().scheduleAt(fs.at, [&cl, &faultVictims, fs] {
            NodeId victim = fs.node;
            if (fs.job != kInvalidId) {
                train::TrainingJob *job = cl.job(fs.job);
                if (!job ||
                    static_cast<std::size_t>(fs.jobNodeIndex) >=
                        job->nodes().size()) {
                    return;
                }
                victim = job->nodes()[static_cast<std::size_t>(
                    fs.jobNodeIndex)];
            }
            faultVictims.push_back(victim);
            const int nics =
                fs.allNics ? cl.topology().config().nicsPerNode : 1;
            for (int n = 0; n < nics; ++n) {
                fault::FaultEvent ev;
                ev.type = fs.type;
                ev.node = victim;
                ev.nic = fs.allNics ? static_cast<NicId>(n) : fs.nic;
                ev.severity = fs.severity;
                cl.faults().injectNow(ev);
            }
        });
    }
    if (spec.campaign.enabled) {
        std::vector<NodeId> population;
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            population.push_back(n);
        cl.faults().startCampaign(
            campaignRates(spec.campaign), population,
            topo.config().nicsPerNode, topo.gpusPerNode(),
            topo.numLeaves() * topo.numSpines(), spec.campaign.span);
    }

    // --- samplers -----------------------------------------------------
    Summary cnpSamples;
    std::unique_ptr<PeriodicTask> cnpSampler;
    if (spec.metrics.cnpSamplePeriod > 0) {
        const NicId nic = spec.metrics.cnpNic;
        c4d::TelemetrySink *cnpSink = obsSink.get();
        cnpSampler = std::make_unique<PeriodicTask>(
            cl.sim(), spec.metrics.cnpSamplePeriod,
            [&cl, &cnpSamples, nic, cnpSink] {
                double sum = 0.0;
                std::int64_t hot = 0;
                for (NodeId n = 0; n < cl.topology().numNodes(); ++n) {
                    const double kps =
                        cl.fabric().nicCnpRate(n, nic) / 1000.0;
                    if (kps > 0.0) {
                        cnpSamples.add(kps);
                        sum += kps;
                        ++hot;
                    }
                }
                const double mean =
                    hot > 0 ? sum / static_cast<double>(hot) : 0.0;
                // One event feeds the live metrics sink and the
                // trace. The spec-driven sampler runs (and draws its
                // lazy recomputes) whether or not either is attached,
                // so attaching cannot perturb the simulation.
                trace::TraceScope &tr = cl.sim().tracer();
                if (cnpSink != nullptr ||
                    tr.wants(trace::EventKind::CnpSample)) {
                    trace::Event tev;
                    tev.when = cl.sim().now();
                    tev.kind = trace::EventKind::CnpSample;
                    tev.a = hot;
                    tev.value = mean;
                    if (cnpSink != nullptr)
                        cnpSink->onEvent(tev);
                    tr.record(std::move(tev));
                }
            });
        cnpSampler->start();
    }

    std::vector<Summary> uplinkBefore, uplinkAfter;
    std::unique_ptr<PeriodicTask> uplinkSampler;
    if (spec.metrics.uplinkSamplePeriod > 0) {
        const int leaf = topo.leafIndex(spec.metrics.uplinkSegment,
                                        spec.metrics.uplinkPlane);
        uplinkBefore.resize(static_cast<std::size_t>(topo.numSpines()));
        uplinkAfter.resize(static_cast<std::size_t>(topo.numSpines()));
        uplinkSampler = std::make_unique<PeriodicTask>(
            cl.sim(), spec.metrics.uplinkSamplePeriod,
            [&cl, &uplinkBefore, &uplinkAfter, leaf, splitAt] {
                for (int s = 0; s < cl.topology().numSpines(); ++s) {
                    const double gb = toGbps(cl.fabric().linkThroughput(
                        cl.topology().trunkUplink(leaf, s)));
                    auto si = static_cast<std::size_t>(s);
                    (splitAt > 0 && cl.sim().now() >= splitAt
                         ? uplinkAfter[si]
                         : uplinkBefore[si])
                        .add(gb);
                }
            });
        uplinkSampler->start();
    }

    // --- metrics pump -------------------------------------------------
    // Pulls gauge state from pure accessors only: anything that could
    // trigger a lazy fabric recompute (and so consume RNG) would make
    // a metrics-enabled run diverge from the golden one. Fabric/CNP
    // observables come from push-side instrumentation and the
    // spec-driven CNP sampler above instead.
    std::function<void()> sampleMetrics;
    std::shared_ptr<std::function<void()>> pump;
    if (ctx.meter != nullptr) {
        obs::MetricRegistry *reg = ctx.meter;
        core::Cluster *clp = &cl;
        std::vector<JobProbe> *probes = &jobProbes;
        sampleMetrics = [reg, clp, probes] {
            Simulator &sim = clp->sim();
            reg->setCounter("sim.executed",
                            static_cast<std::int64_t>(
                                sim.executedCount()));
            reg->setGauge("sim.pending",
                          static_cast<double>(sim.pendingCount()));
            reg->observe("sim.depth",
                         static_cast<double>(sim.pendingCount()));
            reg->setGauge("sim.pool_slots",
                          static_cast<double>(sim.poolSlotCount()));
            reg->setCounter("fabric.flows_started",
                            static_cast<std::int64_t>(
                                clp->fabric().totalFlowsStarted()));
            reg->setCounter("fabric.flows_completed",
                            static_cast<std::int64_t>(
                                clp->fabric().totalFlowsCompleted()));
            reg->setCounter("fabric.reallocs",
                            static_cast<std::int64_t>(
                                clp->fabric().reallocationCount()));
            double sps = 0.0;
            std::int64_t iters = 0;
            for (const JobProbe &p : *probes) {
                sps += p.job->meanSamplesPerSec();
                iters += static_cast<std::int64_t>(
                    p.job->iterationsCompleted());
            }
            reg->setGauge("jobs.samples_per_sec", sps);
            reg->setCounter("jobs.iterations", iters);
            if (clp->steering() != nullptr) {
                reg->setGauge("steering.backups_available",
                              static_cast<double>(
                                  clp->steering()->backupsAvailable()));
                reg->setGauge(
                    "steering.isolated_nodes",
                    static_cast<double>(
                        clp->steering()->isolatedNodes().size()));
                reg->setCounter("steering.restarts",
                                static_cast<std::int64_t>(
                                    clp->steering()->restartsIssued()));
            }
            if (clp->c4dMaster() != nullptr) {
                reg->setCounter("c4d.events",
                                static_cast<std::int64_t>(
                                    clp->c4dMaster()->eventsEmitted()));
            }
            reg->snapshot(sim.now());
        };

        // Self-stopping pump instead of a PeriodicTask: a task that
        // always reschedules would keep a horizonless run() from ever
        // draining its queue. The pump re-arms only while other work
        // is pending, so it ticks for exactly the simulation's
        // lifetime; the post-run sample below captures the end state.
        const Duration period =
            ctx.opt.metricsPeriod > 0 ? ctx.opt.metricsPeriod
                                      : seconds(1);
        Simulator *simp = &cl.sim();
        pump = std::make_shared<std::function<void()>>();
        std::weak_ptr<std::function<void()>> weak = pump;
        auto fire = sampleMetrics;
        *pump = [simp, period, fire, weak] {
            fire();
            if (simp->pendingCount() > 0) {
                if (auto next = weak.lock())
                    simp->scheduleAfter(period,
                                        [next] { (*next)(); });
            }
        };
        simp->scheduleAfter(period, [pump] { (*pump)(); });
    }

    // --- run ----------------------------------------------------------
    for (JobProbe &p : jobProbes)
        p.job->start();
    for (TaskProbe &p : taskProbes)
        p.task->start();
    cl.run(spec.horizon > 0 ? spec.horizon : kTimeNever);
    if (cnpSampler)
        cnpSampler->stop();
    if (uplinkSampler)
        uplinkSampler->stop();
    // One final pull at end time, before any reporting below runs the
    // fabric's lazy recomputes.
    if (sampleMetrics)
        sampleMetrics();

    // --- metrics ------------------------------------------------------
    const MetricsSpec &m = spec.metrics;
    if (m.jobThroughput && !jobProbes.empty()) {
        double total = 0.0;
        for (const JobProbe &p : jobProbes) {
            const std::string prefix =
                jobProbes.size() == 1
                    ? ""
                    : "job" + std::to_string(p.id) + "_";
            const double sps = p.job->meanSamplesPerSec();
            total += sps;
            ctx.metric(prefix + "samples_per_sec", sps);
            if (m.jobCommShare) {
                ctx.metric(prefix + "comm_share",
                           p.totalSeconds > 0.0
                               ? p.commSeconds / p.totalSeconds
                               : 0.0);
            }
            if (m.jobSegments) {
                ctx.metric(prefix + "segments",
                           static_cast<double>(p.segments));
            }
        }
        if (jobProbes.size() > 1)
            ctx.metric("samples_per_sec_total", total);
    }

    if (m.taskBusBw && !taskProbes.empty()) {
        if (splitAt > 0) {
            Summary before, after;
            for (const TaskProbe &p : taskProbes) {
                before.merge(p.before);
                after.merge(p.after);
            }
            ctx.metric("busbw_before",
                       before.empty() ? 0.0 : before.mean());
            ctx.metric("busbw_after",
                       after.empty() ? 0.0 : after.mean());
            if (m.perTask && taskProbes.size() > 1) {
                for (std::size_t i = 0; i < taskProbes.size(); ++i) {
                    const Summary &a = taskProbes[i].after;
                    ctx.metric("task" + std::to_string(i + 1) +
                                   "_busbw_after",
                               a.empty() ? 0.0 : a.mean());
                }
            }
        } else {
            Summary means;
            for (const TaskProbe &p : taskProbes)
                means.add(p.task->busBwGbps().mean());
            ctx.metric("busbw_mean", means.mean());
            if (taskProbes.size() > 1) {
                ctx.metric("busbw_min", means.min());
                ctx.metric("busbw_max", means.max());
                if (m.perTask) {
                    for (std::size_t i = 0; i < taskProbes.size();
                         ++i) {
                        ctx.metric(
                            "task" + std::to_string(i + 1) + "_busbw",
                            taskProbes[i].task->busBwGbps().mean());
                    }
                }
            }
        }
    }

    if (m.cnpSamplePeriod > 0) {
        ctx.metric("cnp_mean_kps",
                   cnpSamples.empty() ? 0.0 : cnpSamples.mean());
        ctx.metric("cnp_p5_kps",
                   cnpSamples.empty() ? 0.0 : cnpSamples.percentile(5));
        ctx.metric("cnp_p95_kps", cnpSamples.empty()
                                      ? 0.0
                                      : cnpSamples.percentile(95));
    }

    if (m.uplinkSamplePeriod > 0) {
        std::vector<bool> failed(
            static_cast<std::size_t>(topo.numSpines()), false);
        for (const LinkEventSpec &le : spec.linkEvents) {
            if (!le.up && le.segment == m.uplinkSegment &&
                le.plane == m.uplinkPlane &&
                le.spine < topo.numSpines()) {
                failed[static_cast<std::size_t>(le.spine)] = true;
            }
        }
        Summary surviving;
        for (int s = 0; s < topo.numSpines(); ++s) {
            auto si = static_cast<std::size_t>(s);
            ctx.metric("uplink" + std::to_string(s) + "_before_gbps",
                       uplinkBefore[si].empty()
                           ? 0.0
                           : uplinkBefore[si].mean());
            const double after =
                uplinkAfter[si].empty() ? 0.0 : uplinkAfter[si].mean();
            ctx.metric("uplink" + std::to_string(s) + "_after_gbps",
                       after);
            if (!failed[si])
                surviving.add(after);
        }
        ctx.metric("uplink_surviving_cv", surviving.cv());
    }

    if (m.detection) {
        double detected = 0.0, localized = 0.0, latency = 0.0;
        for (const c4d::C4dEvent &ev :
             cl.c4dMaster()->eventLog()) {
            if (ev.when < lastFaultAt || ev.kind != m.detectionKind)
                continue;
            detected = 1.0;
            latency = toSeconds(ev.when - lastFaultAt);
            for (NodeId n : ev.suspectNodes) {
                for (NodeId v : faultVictims) {
                    if (n == v)
                        localized = 1.0;
                }
            }
            break;
        }
        ctx.metric("detected", detected);
        ctx.metric("localized", localized);
        ctx.metric("detect_latency_s", latency);
    }

    if (m.steeringCounters) {
        ctx.metric("restarts",
                   cl.steering() ? static_cast<double>(
                                       cl.steering()->restartsIssued())
                                 : 0.0);
        ctx.metric("isolated_nodes",
                   cl.steering()
                       ? static_cast<double>(
                             cl.steering()->isolatedNodes().size())
                       : 0.0);
        ctx.metric("c4d_events",
                   cl.c4dMaster()
                       ? static_cast<double>(
                             cl.c4dMaster()->eventsEmitted())
                       : 0.0);
        double iters = 0.0;
        for (const JobProbe &p : jobProbes)
            iters += static_cast<double>(p.job->iterationsCompleted());
        ctx.metric("iterations", iters);
    }
}

} // namespace c4::scenario
