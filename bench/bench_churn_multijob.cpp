/**
 * @file
 * Scenario `churn_multijob` — a randomized multi-job churn workload
 * the old per-driver structure made awkward: training jobs of random
 * size arrive and depart on a production pod while a compressed fault
 * campaign fires, with the full C4 stack (C4D detection + steering +
 * C4P traffic engineering) keeping the survivors alive. Exercises the
 * allocator / steering / removeJob paths under continuous churn.
 */

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "scenario/registry.h"
#include "train/job.h"

namespace {

using namespace c4;
using namespace c4::scenario;

struct ChurnState
{
    core::Cluster *cluster = nullptr;
    Rng rng;
    Time horizon = 0;
    Duration meanInterarrival = 0;
    JobId nextId = 1;
    int started = 0;
    int completed = 0; ///< departed after a full residency
    int rejected = 0;  ///< pool too empty at arrival time
    double iterations = 0.0;

    explicit ChurnState(std::uint64_t seed) : rng(seed) {}

    void
    scheduleNextArrival()
    {
        const Duration gap = static_cast<Duration>(
            rng.exponential(static_cast<double>(meanInterarrival)));
        const Time at = cluster->sim().now() + std::max<Duration>(
                                                   gap, seconds(1));
        if (at >= horizon)
            return;
        cluster->sim().scheduleAt(at, [this] {
            arrive();
            scheduleNextArrival();
        });
    }

    void
    arrive()
    {
        // 1, 2 or 4 nodes (TP8 within the node, DP across).
        const int sizes[] = {1, 2, 4};
        const int nodes =
            sizes[static_cast<std::size_t>(rng.uniformInt(0, 2))];
        if (cluster->freeNodes() < nodes) {
            ++rejected;
            return;
        }
        train::JobConfig jc;
        const JobId id = nextId++;
        jc.id = id;
        jc.name = "churn" + std::to_string(id);
        jc.model = train::llama7b();
        jc.model.microbatchCompute = milliseconds(400);
        jc.parallel = {.tp = 8, .pp = 1, .dp = nodes};
        jc.microBatch = 4;
        jc.initTime = seconds(20);
        jc.dpGroupsSimulated = 1;
        jc.seed = rng();
        train::TrainingJob &job = cluster->addJob(jc);
        job.start();
        ++started;

        const Duration residency = static_cast<Duration>(
            rng.uniform(0.25, 1.0) *
            static_cast<double>(meanInterarrival) * 6.0);
        cluster->sim().scheduleAfter(residency, [this, id] {
            depart(id);
        });
    }

    void
    depart(JobId id)
    {
        train::TrainingJob *job = cluster->job(id);
        if (!job)
            return;
        iterations +=
            static_cast<double>(job->iterationsCompleted());
        cluster->removeJob(id);
        ++completed;
    }
};

void
runTrial(TrialContext &ctx)
{
    core::ClusterConfig cc;
    cc.topology = core::productionPod(32);
    cc.enableC4d = true;
    cc.enableC4p = true;
    cc.c4d.evaluatePeriod = seconds(5);
    cc.c4d.hangThreshold = seconds(30);
    cc.steering.isolationDelay = minutes(1);
    cc.seed = ctx.seed;
    core::Cluster cluster(cc);
    cluster.provisionBackupNodes(4);
    cluster.startRuntime();

    ChurnState churn(ctx.seed ^ 0xC0FFEEull);
    churn.cluster = &cluster;
    churn.horizon = ctx.pick(hours(4), minutes(8));
    churn.meanInterarrival = ctx.pick(minutes(10), minutes(1));

    // Compressed June-2023 fault rates so even a short window sees a
    // hyperscale month's worth of trouble (the 256-GPU pod's base
    // rate is only ~2.5 crashes per month).
    std::vector<NodeId> population;
    for (NodeId n = 0; n < cluster.topology().numNodes(); ++n)
        population.push_back(n);
    cluster.faults().startCampaign(
        fault::FaultRates::paperJune2023().scaled(
            ctx.pick(500.0, 20000.0)),
        population, cluster.topology().config().nicsPerNode,
        cluster.topology().gpusPerNode(),
        cluster.topology().numLeaves() *
            cluster.topology().numSpines(),
        churn.horizon);

    // Seed the pod with two initial jobs, then let churn run.
    churn.arrive();
    churn.arrive();
    churn.scheduleNextArrival();
    cluster.run(churn.horizon);

    // Jobs still resident at the horizon count their work too.
    double residentIters = 0.0;
    for (JobId id = 1; id < churn.nextId; ++id) {
        if (train::TrainingJob *job = cluster.job(id))
            residentIters +=
                static_cast<double>(job->iterationsCompleted());
    }

    ctx.metric("jobs_started", churn.started);
    ctx.metric("jobs_completed", churn.completed);
    ctx.metric("jobs_rejected", churn.rejected);
    ctx.metric("iterations_total",
               churn.iterations + residentIters);
    ctx.metric("restarts",
               static_cast<double>(
                   cluster.steering()->restartsIssued()));
    ctx.metric("isolated_nodes",
               static_cast<double>(
                   cluster.steering()->isolatedNodes().size()));
    ctx.metric("c4d_events",
               static_cast<double>(
                   cluster.c4dMaster()->eventsEmitted()));
    ctx.metric("broken_nodes",
               static_cast<double>(cluster.brokenNodeCount()));
}

const Register reg{{
    .name = "churn_multijob",
    .title = "Churn: random job arrivals/departures under a fault "
             "campaign (C4 stack on)",
    .description =
        "Jobs of random size arrive and depart on a 32-node pod while "
        "compressed June-2023 faults fire; C4D+steering+C4P keep the "
        "survivors alive. Exercises allocator and steering churn.",
    .notes = "New workload (not a paper figure): sanity metrics are "
             "jobs completed vs started and restarts vs isolations.",
    .fullTrials = 3,
    .smokeTrials = 1,
    .seed = 0xC0C4C0C4,
    .variants =
        [](const RunOptions &) {
            ScenarioSpec spec;
            spec.variant = "pod32";
            spec.custom = runTrial;
            return std::vector<ScenarioSpec>{spec};
        },
    .claims = {},
}};

} // namespace
