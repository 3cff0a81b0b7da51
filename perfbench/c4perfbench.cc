/**
 * @file
 * c4perfbench: runs one benchmark workload in this process and prints
 * one JSON line with its measurements.
 *
 *   c4perfbench WORKLOAD --seed N --seconds S --trace 0|1
 *               [--short] [--crosscheck] [--spans FILE]
 *
 * WORKLOAD is fig3_ladder, churn_pod32 or failover_replay. The seeded
 * generator below writes the workload's input as spec text (plus, for
 * churn_pod32, a job and fault schedule); a *pass* hands that text to the
 * program — specio parse, cluster build, job/task start, simulation,
 * and for failover_replay trace/metrics recording, JSONL parse-back and
 * incident replay — and checks the simulated outputs. One untimed
 * warm-up pass runs first, then passes repeat serially on this one
 * thread until S seconds have elapsed.
 *
 * --trace 0 reports the end-to-end metrics (the median pass, see
 * medianPass) with the benchmark's tracing off. --trace 1 alternates untraced passes
 * with traced ones: a traced pass attaches the program's obs registry
 * (without its sampling pump, so the event stream is unchanged) to read
 * layer counters, and records spans around every call into a layer's
 * public API into storage reserved before timing. It reports per-layer
 * counts and self times plus the traced-minus-untraced wall time, and
 * writes the spans as JSONL to --spans FILE when given.
 *
 * heap_allocs counts operator-new calls inside the program's calls
 * only (c4::perf::allocStatsNow deltas around each call), so the
 * harness's own bookkeeping stays out of it. Every pass must reproduce
 * the warm-up pass's outputs and counters, and every untraced pass its
 * allocation count, exactly; a difference counts as a failed operation.
 * --short shrinks every workload for the self-test; --crosscheck also
 * re-runs each spec-driven trial through scenario::runSpecTrial.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "c4d/metrics_sink.h"
#include "common/random.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "obs/snapshot.h"
#include "perf/perf.h"
#include "replay/replay.h"
#include "replay/score.h"
#include "scenario/workload.h"
#include "specio/specio.h"
#include "trace/export.h"

namespace {

using namespace c4;
using Clock = std::chrono::steady_clock;

// --- layers and spans ----------------------------------------------------

/** The program calls a pass makes, one span name each. */
enum class Layer {
    Parse,      ///< specio: spec text (and schedule) -> data
    Build,      ///< validation + core::Cluster construction
    Start,      ///< job / task / campaign start
    Run,        ///< Simulator::run to the horizon
    TraceWrite, ///< trace::writeJsonl
    ObsWrite,   ///< obs registry snapshot + writeSnapshot
    TraceParse, ///< trace::parseJsonl
    Replay,     ///< replay::replayTrace
    Count
};
constexpr int kLayers = static_cast<int>(Layer::Count);

const char *const kLayerName[kLayers] = {
    "specio.parse", "core.build",  "train.start", "sim.run",
    "trace.write",  "obs.write",   "trace.parse", "replay.analyze",
};

/** One recorded interval. Spans of one trial share `trial`. */
struct Span
{
    const char *name = "";
    int trial = 0;
    int parent = -1; ///< index into the span table, -1 = root
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Span table with its storage reserved up front: recording never
 * allocates, so spans add nothing to the allocation counts. When full,
 * further spans are dropped.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

    int
    open(const char *name, int trial, int parent)
    {
        if (spans_.size() == spans_.capacity())
            return -1;
        Span s;
        s.name = name;
        s.trial = trial;
        s.parent = parent;
        s.start = Clock::now();
        spans_.push_back(s);
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int index)
    {
        if (index >= 0)
            spans_[static_cast<std::size_t>(index)].end = Clock::now();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- pass bookkeeping ------------------------------------------------------

/** Everything one pass measured. */
struct PassResult
{
    double wallS = 0.0;
    double setupS = 0.0; ///< parse + build + start, summed over trials
    double peakRssMb = 0.0; ///< resident high-water mark of this pass
    std::array<double, kLayers> layerS{};
    std::array<std::uint64_t, kLayers> layerAllocs{};
    std::uint64_t heapAllocs = 0;
    /** Host seconds and set-up seconds of each trial, in pass order. */
    std::vector<double> trialS;
    std::vector<double> trialSetupS;
    int trials = 0; ///< trials + replayed incidents attempted
    int failed = 0; ///< of those, threw or failed an output check
    std::vector<std::string> errors;
    /** Deterministic counters (layer counts), by name. */
    std::map<std::string, double> counts;
    /** Simulated outputs, in a fixed order; must repeat exactly. */
    std::vector<std::pair<std::string, double>> outputs;
};

/** Per-pass context handed to the workload code. */
class Pass
{
  public:
    Pass(PassResult &result, SpanLog *spans, int firstTrial)
        : result_(result), spans_(spans), nextTrial_(firstTrial)
    {
    }

    bool traced() const { return spans_ != nullptr; }
    PassResult &result() { return result_; }

    /**
     * Run @p fn as one call into @p layer: timed, alloc-counted, and
     * recorded as a span of the current trial when tracing. Calls may
     * nest (a churn arrival starts a job from inside Simulator::run):
     * each layer is charged its self time and self allocations, and
     * only time outside the simulation counts as set-up.
     */
    template <typename F>
    decltype(auto)
    call(Layer layer, F &&fn)
    {
        Frame frame(*this, static_cast<int>(layer));
        return fn();
    }

    /** Open a trial: the shared identifier of the spans inside it. */
    void
    beginTrial()
    {
        trialStart_ = Clock::now();
        trialSetupStart_ = result_.setupS;
        trial_ = nextTrial_++;
        parentSpan_ =
            spans_ ? spans_->open("trial", trial_, passSpan_) : -1;
        ++result_.trials;
    }

    void
    endTrial()
    {
        result_.trialS.push_back(secondsBetween(trialStart_, Clock::now()));
        result_.trialSetupS.push_back(result_.setupS - trialSetupStart_);
        if (spans_)
            spans_->close(parentSpan_);
        trial_ = -1;
        parentSpan_ = passSpan_;
    }

    /** Pass-level spans (the pass, its spec parse) carry trial -1. */
    void
    openPass()
    {
        passSpan_ = spans_ ? spans_->open("pass", -1, -1) : -1;
        parentSpan_ = passSpan_;
    }

    void
    closePass()
    {
        if (spans_)
            spans_->close(passSpan_);
    }

    int nextTrial() const { return nextTrial_; }

    void
    fail(const std::string &why)
    {
        ++result_.failed;
        if (result_.errors.size() < 8)
            result_.errors.push_back(why);
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail("check failed: " + what);
    }

    void
    output(const std::string &name, double value)
    {
        result_.outputs.emplace_back(name, value);
    }

    void
    add(const std::string &counter, double value)
    {
        result_.counts[counter] += value;
    }

    void
    max(const std::string &counter, double value)
    {
        double &slot = result_.counts[counter];
        slot = std::max(slot, value);
    }

  private:
    PassResult &result_;
    SpanLog *spans_;
    /** One open call(): charges its layer on close. */
    struct Frame
    {
        Pass &pass;
        int li;
        int outerSpan; ///< parentSpan_ to restore on close
        int span;
        Frame *outer;
        double childS = 0.0;
        std::uint64_t childAllocs = 0;
        std::uint64_t a0;
        Clock::time_point t0;

        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

        Frame(Pass &p, int layerIndex)
            : pass(p), li(layerIndex), outerSpan(p.parentSpan_),
              span(p.spans_ ? p.spans_->open(kLayerName[layerIndex],
                                             p.trial_, p.parentSpan_)
                            : -1),
              outer(p.frame_), a0(perf::allocStatsNow().count),
              t0(Clock::now())
        {
            p.frame_ = this;
            if (span >= 0)
                p.parentSpan_ = span;
        }

        ~Frame()
        {
            const double s = secondsBetween(t0, Clock::now());
            const std::uint64_t da = perf::allocStatsNow().count - a0;
            PassResult &r = pass.result_;
            r.layerS[li] += s - childS;
            r.layerAllocs[li] += da - childAllocs;
            if (outer != nullptr) {
                outer->childS += s;
                outer->childAllocs += da;
            } else {
                r.heapAllocs += da;
                if (li <= static_cast<int>(Layer::Start))
                    r.setupS += s;
            }
            if (pass.spans_)
                pass.spans_->close(span);
            pass.parentSpan_ = outerSpan;
            pass.frame_ = outer;
        }
    };

    int nextTrial_;
    Clock::time_point trialStart_;
    double trialSetupStart_ = 0.0;
    int trial_ = -1;
    int passSpan_ = -1;
    int parentSpan_ = -1;  ///< span new spans nest under
    Frame *frame_ = nullptr; ///< innermost open call(), if any
};

// --- seeded input generator ---------------------------------------------

enum class Workload { Fig3Ladder, ChurnPod32, FailoverReplay };

/** Generated input: spec text, plus a schedule for churn_pod32. */
struct Inputs
{
    std::string spec;
    std::string schedule;
};

/** Node counts of the fig3 ladder rungs (after the ideal base). */
constexpr int kLadder[] = {16, 32, 64};

/**
 * Training iterations each fig3 trial runs. A trial stops after this
 * many rather than at a fixed simulated time, so a draw whose ECMP
 * collisions slow it down does the same work, not less; the spec's
 * horizon is only a cap.
 */
constexpr std::uint64_t kRungIterations = 3;

scenario::ScenarioSpec
fig3Rung(int nodes, bool ideal, Duration horizon)
{
    scenario::ScenarioSpec s;
    s.variant = ideal ? "ideal_base_n2" : "n" + std::to_string(nodes);
    s.topology.kind = scenario::TopologySpec::Kind::Pod;
    s.topology.numNodes = std::max(4, nodes);
    s.features.c4p = ideal;
    scenario::JobSpec job;
    job.model = "gpt22b";
    job.parallel = {.tp = 8, .pp = 1, .dp = nodes};
    job.microBatch = 4;
    s.jobs.push_back(job);
    s.horizon = horizon;
    return s;
}

Inputs
generateFig3(std::uint64_t seed, bool shortRun)
{
    specio::SpecFile f;
    f.name = "fig3_ladder";
    f.title = "GPT-22B TP8xDP on ECMP pods, n16/n32/n64";
    f.seed = deriveSeed(seed, 0xF163);
    // Each trial runs kRungIterations training iterations: the ECMP
    // collision pattern is fixed per draw, so more iterations only
    // repeat it. The paper shape is a mean over draws, so each rung
    // runs ten draws (trials). Horizons are caps.
    f.fullTrials = shortRun ? 2 : 10;
    f.variants.push_back(fig3Rung(2, true, seconds(60)));
    for (int nodes : kLadder)
        f.variants.push_back(fig3Rung(nodes, false, seconds(60)));
    return {specio::writeSpecFile(f), ""};
}

/** fig12's leaf-spine trunk: 8 tasks over 2 segments of 8 nodes. */
scenario::ScenarioSpec
failoverVariant(bool dynamicLb, const scenario::LinkEventSpec &cut,
                int iterations, Duration horizon)
{
    scenario::ScenarioSpec s;
    s.variant = dynamicLb ? "dynamic_lb" : "static_te";
    s.topology.nodesPerSegment = 8;
    s.topology.nvlinkBusBandwidth = gbps(450);
    s.features.c4p = true;
    s.features.dynamicLoadBalance = dynamicLb;
    s.features.qpsPerConnection = 2;
    scenario::AllreduceGroupSpec g;
    g.tasks = 8;
    g.placement = scenario::AllreduceGroupSpec::Placement::CrossSegmentPairs;
    g.bytes = gib(16);
    g.iterations = iterations;
    s.allreduces.push_back(g);
    s.linkEvents.push_back(cut);
    s.metrics.splitAt = cut.at;
    s.horizon = horizon;
    return s;
}

Inputs
generateFailover(std::uint64_t seed, bool shortRun)
{
    Rng rng(deriveSeed(seed, 0xFA11));
    // The cut trunk: any of the 32 leaf-spine trunks is equivalent by
    // symmetry, so the seed picks one.
    scenario::LinkEventSpec cut;
    cut.at = seconds(8);
    cut.segment = static_cast<int>(rng.uniformInt(0, 1));
    cut.plane = rng.uniformInt(0, 1) == 0 ? net::Plane::Left
                                          : net::Plane::Right;
    cut.spine = static_cast<int>(rng.uniformInt(0, 7));
    cut.up = false;

    specio::SpecFile f;
    f.name = "failover_replay";
    f.title = "fig12 trunk cut at t=8s: static TE vs dynamic LB";
    f.seed = rng();
    // Five draws (trials) a variant: static TE's outcome depends on
    // where ECMP rehashes the cut trunk's flows.
    f.fullTrials = shortRun ? 2 : 5;
    // fig12 moves 256 MiB per allreduce; 16 GiB keeps the tasks busy
    // past the cut with a sixty-fourth of the flow events per simulated
    // second. The tasks run to the horizon; the iteration count is only
    // a cap.
    const int iterations = 10000;
    const Duration horizon = seconds(shortRun ? 10 : 12);
    f.variants.push_back(failoverVariant(false, cut, iterations, horizon));
    f.variants.push_back(failoverVariant(true, cut, iterations, horizon));
    return {specio::writeSpecFile(f), ""};
}

/** One job arrival of a churn schedule. */
struct Arrival
{
    Time at = 0;
    int nodes = 0;
    Duration residency = 0;
    std::uint64_t seed = 0;
};

/** churn_pod32's shape: job lanes over the horizon on a 32-node pod. */
struct ChurnShape
{
    Duration horizon;
    Duration residencyMin; ///< residency ~ U(min, max)
    Duration residencyMax;
    Duration gapMin;       ///< lane idle time between jobs ~ U(min, max)
    Duration gapMax;
    double campaignScale;  ///< June-2023 fault-rate multiplier
};

constexpr int kChurnNodes = 32;

/** Independent churn trials per pass: two halve the seed-to-seed
 * spread of the work a pass does. */
constexpr int kChurnTrials = 2;

/**
 * Job sizes of the lanes: each lane runs one job after another. They
 * hold 24 of the 28 nodes left after the 4 warm backups, so the pod
 * has room for every arrival until faults take nodes away.
 */
constexpr int kChurnLanes[] = {4, 4, 4, 2, 2, 2, 2, 1, 1, 1, 1};

ChurnShape
churnShape(bool shortRun)
{
    // Residencies vary by +-15% around 65 s so that a lane's training
    // time, and with it the work per trial, varies little by seed.
    return {shortRun ? seconds(90) : minutes(3), seconds(55), seconds(75),
            seconds(2), seconds(6), 10000.0};
}

/**
 * A compressed June-2023 fault campaign as a schedule: each fault
 * type's count is its expected count over the horizon (systematic
 * rounding of the running total), and the seed draws each fault's
 * time, victim, NIC, trunk and severity as FaultInjector::startCampaign
 * does. Fixing the counts keeps the trouble per trial alike across
 * seeds; Poisson counts would swing the work by tens of percent.
 */
void
writeFaultSchedule(std::ostream &os, Rng &rng, const ChurnShape &shape,
                   int trial)
{
    const net::Topology topo(core::productionPod(kChurnNodes));
    const double gpuK = topo.numGpus() / 1000.0;
    const double months = toSeconds(shape.horizon) / toSeconds(days(30));
    const fault::FaultRates rates =
        fault::FaultRates::paperJune2023().scaled(shape.campaignScale);
    double expected = 0.0;
    std::int64_t emitted = 0;
    for (int t = 0; t < fault::kNumFaultTypes; ++t) {
        const auto type = static_cast<fault::FaultType>(t);
        expected += rates.perK[t] * gpuK * months;
        const std::int64_t total = std::llround(expected);
        for (; emitted < total; ++emitted) {
            double severity = 1.0;
            if (type == fault::FaultType::SlowNode)
                severity = rng.uniform(0.60, 0.95);
            else if (type == fault::FaultType::SlowNicTx ||
                     type == fault::FaultType::SlowNicRx)
                severity = rng.uniform(0.25, 0.70);
            const Time at = static_cast<Time>(
                rng.uniform() * static_cast<double>(shape.horizon));
            const std::int64_t node =
                rng.uniformInt(0, topo.numNodes() - 1);
            const std::int64_t nic =
                rng.uniformInt(0, topo.nicsPerNode() - 1);
            const std::int64_t trunk = rng.uniformInt(
                0, topo.numLeaves() * topo.numSpines() - 1);
            const bool local =
                rng.chance(fault::faultLocalityPrior(type));
            os << "fault " << trial << ' ' << at << ' '
               << fault::faultTypeName(type)
               << ' ' << node << ' ' << nic << ' ' << trunk << ' '
               << (local ? 1 : 0) << ' ' << severity << '\n';
        }
    }
}

Inputs
generateChurn(std::uint64_t seed, bool shortRun)
{
    const ChurnShape shape = churnShape(shortRun);
    Rng rng(deriveSeed(seed, 0xC4C4));

    specio::SpecFile f;
    f.name = "churn_pod32";
    f.title = "job churn on a 32-node pod under compressed June-2023 "
              "faults";
    f.seed = rng();
    scenario::ScenarioSpec s;
    s.variant = "pod32";
    s.topology.kind = scenario::TopologySpec::Kind::Pod;
    s.topology.numNodes = kChurnNodes;
    s.features.c4p = true;
    s.features.c4d = true;
    s.features.evaluatePeriod = seconds(5);
    s.features.hangThreshold = seconds(30);
    s.features.isolationDelay = minutes(1);
    s.features.backupNodes = 4;
    s.horizon = shape.horizon;
    f.variants.push_back(s);

    // Each lane's jobs arrive one after another with a random
    // residency and a random gap between them, so every seed offers
    // the pod the same load with different timing; a job that finds
    // no room (faults took nodes away) is rejected. Each trial gets a
    // schedule of its own.
    f.fullTrials = kChurnTrials;
    std::ostringstream sched;
    sched.precision(17);
    sched << "# job trial at_ns nodes residency_ns job_seed\n"
          << "# fault trial at_ns type node nic trunk local severity\n";
    for (int trial = 0; trial < kChurnTrials; ++trial) {
        std::vector<Arrival> jobs;
        for (int size : kChurnLanes) {
            Time at = static_cast<Time>(rng.uniform() *
                                        static_cast<double>(shape.gapMax));
            while (at < shape.horizon) {
                Arrival a;
                a.at = at;
                a.nodes = size;
                a.residency = static_cast<Duration>(rng.uniform(
                    static_cast<double>(shape.residencyMin),
                    static_cast<double>(shape.residencyMax)));
                a.seed = rng();
                jobs.push_back(a);
                at += a.residency +
                      static_cast<Duration>(rng.uniform(
                          static_cast<double>(shape.gapMin),
                          static_cast<double>(shape.gapMax)));
            }
        }
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const Arrival &x, const Arrival &y) {
                             return x.at < y.at;
                         });
        for (const Arrival &a : jobs) {
            sched << "job " << trial << ' ' << a.at << ' ' << a.nodes << ' '
                  << a.residency << ' ' << a.seed << '\n';
        }
        writeFaultSchedule(sched, rng, shape, trial);
    }
    return {specio::writeSpecFile(f), sched.str()};
}

Inputs
generate(Workload w, std::uint64_t seed, bool shortRun)
{
    switch (w) {
      case Workload::Fig3Ladder:
        return generateFig3(seed, shortRun);
      case Workload::ChurnPod32:
        return generateChurn(seed, shortRun);
      case Workload::FailoverReplay:
        return generateFailover(seed, shortRun);
    }
    throw std::logic_error("unknown workload");
}

// --- trial machinery ------------------------------------------------------

/** What a traced pass attaches so layer counters become readable. */
struct Probes
{
    obs::MetricRegistry registry;
    std::unique_ptr<c4d::MetricsTelemetrySink> sink;
};

/** Counter value from the registry's latest snapshot, 0 if absent. */
double
registryCount(const obs::MetricRegistry &reg, const std::string &name)
{
    const std::vector<obs::Sample> &samples = reg.samples();
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
        if (it->name == name)
            return static_cast<double>(it->count);
    }
    return 0.0;
}

/** Public-accessor counters every trial contributes. */
void
addClusterCounts(Pass &pass, core::Cluster &cl)
{
    Simulator &sim = cl.sim();
    pass.add("sim.events", static_cast<double>(sim.executedCount()));
    pass.add("sim.promotes", static_cast<double>(sim.promoteCount()));
    pass.max("sim.pool_slots", static_cast<double>(sim.poolSlotCount()));
    net::Fabric &fab = cl.fabric();
    pass.add("fabric.recompute_ops",
             static_cast<double>(fab.recomputeOpsTotal()));
    pass.add("fabric.flows_started",
             static_cast<double>(fab.totalFlowsStarted()));
    pass.add("fabric.reallocs",
             static_cast<double>(fab.reallocationCount()));
    const accl::AcclMonitor &mon = cl.accl().monitor();
    pass.add("accl.coll_records",
             static_cast<double>(mon.totalCollRecords()));
    pass.add("accl.conn_records",
             static_cast<double>(mon.totalConnRecords()));
    pass.add("c4d.events",
             cl.c4dMaster()
                 ? static_cast<double>(cl.c4dMaster()->eventsEmitted())
                 : 0.0);
    pass.add("c4d.faults_observed",
             static_cast<double>(cl.faults().history().size()));
    pass.add("c4p.path_reallocs",
             cl.c4pMaster()
                 ? static_cast<double>(cl.c4pMaster()->repins())
                 : 0.0);
}

/** Counters only the obs registry carries (traced passes, or the
 * failover workload, which records metrics itself). */
void
addRegistryCounts(Pass &pass, const obs::MetricRegistry &reg)
{
    for (const char *name :
         {"fabric.recomputes", "fabric.flows_rerouted", "c4d.restarts",
          "c4d.restarts_via_c4d"}) {
        pass.add(name, registryCount(reg, name));
    }
}

std::unique_ptr<core::Cluster>
buildCluster(const scenario::ScenarioSpec &spec, std::uint64_t seed)
{
    const std::string invalid = scenario::validateSpec(spec);
    if (!invalid.empty())
        throw std::invalid_argument(invalid);
    return std::make_unique<core::Cluster>(
        scenario::toClusterConfig(spec, seed));
}

/** A spec's jobs, configured as the spec interpreter configures them. */
std::vector<train::TrainingJob *>
addSpecJobs(core::Cluster &cl, const scenario::ScenarioSpec &spec,
            std::uint64_t seed)
{
    std::vector<train::TrainingJob *> jobs;
    const net::Topology &topo = cl.topology();
    for (const scenario::JobSpec &js : spec.jobs) {
        train::JobConfig jc;
        jc.id = js.id;
        jc.name = js.name.empty() ? "job" + std::to_string(js.id)
                                  : js.name;
        jc.model = scenario::modelByName(js.model);
        jc.parallel = js.parallel;
        jc.microBatch = js.microBatch;
        jc.initTime = js.initTime;
        jc.dpGroupsSimulated = js.dpGroupsSimulated;
        jc.checkpointIntervalIters = js.checkpointIntervalIters;
        jc.checkpointCost = js.checkpointCost;
        jc.seed = deriveSeed(seed, static_cast<std::uint64_t>(js.id));
        jc.nodes = cl.allocateNodes(jc.parallel.worldSize() /
                                        topo.gpusPerNode(),
                                    js.placement);
        jobs.push_back(&cl.addJob(jc));
    }
    return jobs;
}

// --- fig3_ladder -----------------------------------------------------------

/**
 * Run until @p job has completed @p iterations, in 20 ms simulated
 * slices: Simulator::run(until) can resume, so the event sequence is
 * the one a single run would fire.
 * @throws std::runtime_error when @p cap passes first.
 */
void
runIterations(core::Cluster &cl, const train::TrainingJob &job,
              std::uint64_t iterations, Time cap)
{
    Time t = cl.sim().now();
    while (job.iterationsCompleted() < iterations) {
        if (t >= cap) {
            throw std::runtime_error(
                "no " + std::to_string(iterations) +
                " iterations by the horizon cap");
        }
        t = std::min(cap, t + milliseconds(20));
        cl.run(t);
    }
}

void
passFig3(Pass &pass, const Inputs &in)
{
    const specio::SpecFile file =
        pass.call(Layer::Parse, [&] { return specio::parseSpecFile(in.spec); });

    // Per variant: mean samples/s and recompute ops over its trials
    // (the scenario runner's trial seeds, one ECMP draw each).
    std::map<std::string, Summary> sps;
    std::map<std::string, double> meanOps;
    for (const scenario::ScenarioSpec &spec : file.variants) {
        for (int t = 0; t < file.fullTrials; ++t) {
            const std::uint64_t seed = scenario::trialSeed(file.seed, t);
            pass.beginTrial();
            try {
                std::unique_ptr<Probes> probes;
                auto cl = pass.call(Layer::Build, [&] {
                    auto c = buildCluster(spec, seed);
                    if (pass.traced()) {
                        probes = std::make_unique<Probes>();
                        c->sim().setMetrics(
                            obs::MetricsScope(&probes->registry));
                    }
                    return c;
                });
                const std::vector<train::TrainingJob *> jobs =
                    pass.call(Layer::Start, [&] {
                        auto js = addSpecJobs(*cl, spec, seed);
                        for (train::TrainingJob *j : js)
                            j->start();
                        return js;
                    });
                pass.call(Layer::Run, [&] {
                    runIterations(*cl, *jobs.front(), kRungIterations,
                                  spec.horizon);
                });

                const double s = jobs.front()->meanSamplesPerSec();
                const std::string key =
                    spec.variant + "." + std::to_string(t) + ".";
                pass.output(key + "samples_per_sec", s);
                pass.output(key + "end_ns",
                            static_cast<double>(cl->sim().now()));
                pass.check(s > 0.0, spec.variant + " trains");
                sps[spec.variant].add(s);
                meanOps[spec.variant] +=
                    static_cast<double>(cl->fabric().recomputeOpsTotal()) /
                    file.fullTrials;
                pass.add("train.iterations",
                         static_cast<double>(
                             jobs.front()->iterationsCompleted()));
                addClusterCounts(pass, *cl);
                if (probes) {
                    probes->registry.snapshot(cl->sim().now());
                    addRegistryCounts(pass, probes->registry);
                }
            } catch (const std::exception &e) {
                pass.fail(spec.variant + ": " + e.what());
            }
            pass.endTrial();
        }
    }
    if (pass.result().failed > 0)
        return;

    // Paper shape (Fig. 3), on the means over draws: throughput rises
    // with scale while actual/ideal falls. "Ideal" is linear scaling of
    // the collision-free (C4P) two-node job's per-node throughput.
    const double idealPerNode = sps["ideal_base_n2"].mean() / 2.0;
    std::vector<double> ratio, stderrs;
    for (int i = 0; i < 3; ++i) {
        const std::string v = "n" + std::to_string(kLadder[i]);
        const Summary &draws = sps[v];
        const double scale = 1.0 / (idealPerNode * kLadder[i]);
        ratio.push_back(draws.mean() * scale);
        stderrs.push_back(draws.stddev() * scale /
                          std::sqrt(static_cast<double>(draws.count())));
        pass.output(v + ".actual_over_ideal", ratio.back());
        pass.check(ratio.back() < 1.0, "actual/ideal below 1 at " + v);
        if (i > 0) {
            const std::string prev = "n" + std::to_string(kLadder[i - 1]);
            pass.check(draws.mean() > sps[prev].mean(),
                       "samples/s rises from " + prev + " to " + v);
        }
    }
    // Over n16..n64 the drop is ~0.05 of ideal, about one draw's
    // spread, so ten draws cannot show it on every seed: the check
    // fails when n64 sits above n16 by more than two standard errors
    // of the difference of the means.
    const double slack =
        2.0 * std::sqrt(stderrs[0] * stderrs[0] + stderrs[2] * stderrs[2]);
    pass.check(ratio[2] < ratio[0] + slack,
               "actual/ideal falls from n16 to n64 (within two standard "
               "errors)");

    // Least-squares slope of log(recompute ops) over log(nodes).
    double mx = 0.0, my = 0.0;
    for (int i = 0; i < 3; ++i) {
        mx += std::log(kLadder[i]) / 3.0;
        my += std::log(std::max(
                  1.0, meanOps["n" + std::to_string(kLadder[i])])) /
              3.0;
    }
    double sxy = 0.0, sxx = 0.0;
    for (int i = 0; i < 3; ++i) {
        const double dx = std::log(kLadder[i]) - mx;
        sxy += dx * (std::log(std::max(
                         1.0, meanOps["n" + std::to_string(kLadder[i])])) -
                     my);
        sxx += dx * dx;
    }
    pass.max("fabric.ops_exponent", sxy / sxx);
}

// --- churn_pod32 -----------------------------------------------------------

/** A churn trial's schedule: job arrivals and fault injections. */
struct Schedule
{
    std::vector<Arrival> arrivals;
    std::vector<fault::FaultEvent> faults;
};

/** One schedule per trial, indexed by the trial column. */
std::vector<Schedule>
parseSchedule(const std::string &text, int trials)
{
    std::vector<Schedule> out(static_cast<std::size_t>(trials));
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kind;
        int trial = -1;
        ls >> kind >> trial;
        if (trial < 0 || trial >= trials)
            throw std::invalid_argument("bad schedule trial: " + line);
        Schedule &sched = out[static_cast<std::size_t>(trial)];
        bool ok = false;
        if (kind == "job") {
            Arrival a;
            ok = static_cast<bool>(ls >> a.at >> a.nodes >> a.residency >>
                                   a.seed) &&
                 a.at >= 0 && a.nodes >= 1 && a.residency > 0;
            sched.arrivals.push_back(a);
        } else if (kind == "fault") {
            fault::FaultEvent ev;
            std::string type;
            int local = 0;
            ok = static_cast<bool>(ls >> ev.when >> type >> ev.node >>
                                   ev.nic >> ev.link >> local >>
                                   ev.severity) &&
                 fault::faultTypeFromName(type, ev.type) && ev.when >= 0 &&
                 ev.node >= 0 && ev.node < kChurnNodes && ev.nic >= 0 &&
                 ev.link >= 0 && ev.severity > 0.0;
            ev.isLocal = local != 0;
            sched.faults.push_back(ev);
        }
        if (!ok)
            throw std::invalid_argument("bad schedule line: " + line);
    }
    return out;
}

/** Drives a churn schedule through the public core::Cluster API. */
struct ChurnPlayer
{
    core::Cluster &cl;
    Pass &pass;
    int arrivals = 0;
    int started = 0;
    int rejected = 0;
    int departed = 0;
    int departedMissing = 0; ///< departure found no job (must stay 0)
    double iterations = 0.0;
    JobId nextId = 1;

    /** An arrival starts its job from inside the simulation; the
     * start is timed as a nested train.start call. */
    void
    arrive(const Arrival &a)
    {
        pass.call(Layer::Start, [&] { admit(a); });
    }

    void
    admit(const Arrival &a)
    {
        ++arrivals;
        // Admission goes through allocateNodes: freeNodes() also
        // counts broken nodes, which the allocator masks, so on a full
        // pod a freeNodes() check can admit a job addJob then rejects.
        std::vector<NodeId> nodes;
        try {
            nodes = cl.allocateNodes(a.nodes);
        } catch (const std::runtime_error &) {
            ++rejected;
            return;
        }
        train::JobConfig jc;
        jc.nodes = std::move(nodes);
        const JobId id = nextId++;
        jc.id = id;
        jc.name = "churn" + std::to_string(id);
        jc.model = train::llama7b();
        jc.model.microbatchCompute = milliseconds(400);
        jc.parallel = {.tp = 8, .pp = 1, .dp = a.nodes};
        jc.microBatch = 4;
        jc.initTime = seconds(20);
        jc.dpGroupsSimulated = 1;
        jc.seed = a.seed;
        cl.addJob(jc).start();
        ++started;
        cl.sim().scheduleAfter(a.residency, [this, id] { depart(id); });
    }

    void
    depart(JobId id)
    {
        train::TrainingJob *job = cl.job(id);
        if (job == nullptr) {
            ++departedMissing;
            return;
        }
        iterations += static_cast<double>(job->iterationsCompleted());
        cl.removeJob(id);
        ++departed;
    }
};

/** One churn trial: build the pod, play @p schedule, check it. */
void
churnTrial(Pass &pass, const scenario::ScenarioSpec &spec,
           std::uint64_t seed, const Schedule &schedule,
           const std::string &key)
{
    pass.beginTrial();
    try {
        std::unique_ptr<Probes> probes;
        auto cl = pass.call(Layer::Build, [&] {
            auto c = buildCluster(spec, seed);
            c->provisionBackupNodes(spec.features.backupNodes);
            c->startRuntime();
            if (pass.traced()) {
                probes = std::make_unique<Probes>();
                probes->sink = std::make_unique<c4d::MetricsTelemetrySink>(
                    probes->registry);
                c->sim().setMetrics(obs::MetricsScope(&probes->registry));
                c->steering()->setTelemetrySink(probes->sink.get());
            }
            return c;
        });
        ChurnPlayer churn{*cl, pass};
        pass.call(Layer::Start, [&] {
            const net::Topology &topo = cl->topology();
            for (const fault::FaultEvent &ev : schedule.faults) {
                if (ev.nic >= topo.nicsPerNode() ||
                    ev.link >= topo.numLeaves() * topo.numSpines()) {
                    throw std::invalid_argument(
                        "schedule fault names a NIC or trunk the pod "
                        "lacks");
                }
                if (ev.when < spec.horizon)
                    cl->faults().injectAt(ev.when, ev);
            }
            for (const Arrival &a : schedule.arrivals) {
                if (a.at < spec.horizon)
                    cl->sim().scheduleAt(a.at,
                                         [&churn, a] { churn.arrive(a); });
            }
        });
        pass.call(Layer::Run, [&] { return cl->run(spec.horizon); });

        const int resident = static_cast<int>(cl->jobCount());
        double residentIters = 0.0;
        for (JobId id = 1; id < churn.nextId; ++id) {
            if (train::TrainingJob *job = cl->job(id))
                residentIters +=
                    static_cast<double>(job->iterationsCompleted());
        }
        const double iterations = churn.iterations + residentIters;
        const double restarts =
            static_cast<double>(cl->steering()->restartsIssued());
        pass.output(key + "jobs_started", churn.started);
        pass.output(key + "jobs_departed", churn.departed);
        pass.output(key + "jobs_rejected", churn.rejected);
        pass.output(key + "jobs_resident", resident);
        pass.output(key + "iterations_total", iterations);
        pass.output(key + "restarts", restarts);
        pass.output(key + "isolated_nodes",
                    static_cast<double>(
                        cl->steering()->isolatedNodes().size()));
        pass.output(key + "broken_nodes",
                    static_cast<double>(cl->brokenNodeCount()));
        pass.add("train.iterations", iterations);
        addClusterCounts(pass, *cl);
        if (probes) {
            probes->registry.snapshot(cl->sim().now());
            addRegistryCounts(pass, probes->registry);
        }

        // Job conservation: every arrival either started or was
        // rejected, and every started job either departed or is still
        // resident; no departure lost its job.
        pass.check(churn.arrivals == churn.started + churn.rejected,
                   "arrivals == started + rejected");
        pass.check(churn.started == churn.departed + resident,
                   "started == departed + resident");
        pass.check(churn.departedMissing == 0,
                   "every departure finds its job");
        pass.check(churn.started > 0 && iterations > 0.0,
                   "jobs start and train");
    } catch (const std::exception &e) {
        pass.fail(std::string("churn: ") + e.what());
    }
    pass.endTrial();
}


void
passChurn(Pass &pass, const Inputs &in)
{
    struct Parsed
    {
        specio::SpecFile file;
        std::vector<Schedule> schedules;
    };
    const Parsed parsed = pass.call(Layer::Parse, [&] {
        specio::SpecFile file = specio::parseSpecFile(in.spec);
        std::vector<Schedule> schedules =
            parseSchedule(in.schedule, file.fullTrials);
        return Parsed{std::move(file), std::move(schedules)};
    });
    const scenario::ScenarioSpec &spec = parsed.file.variants.front();
    for (int t = 0; t < parsed.file.fullTrials; ++t) {
        churnTrial(pass, spec, scenario::trialSeed(parsed.file.seed, t),
                   parsed.schedules[static_cast<std::size_t>(t)],
                   spec.variant + "." + std::to_string(t) + ".");
    }
}

// --- failover_replay -------------------------------------------------------

void
passFailover(Pass &pass, const Inputs &in)
{
    const specio::SpecFile file =
        pass.call(Layer::Parse, [&] { return specio::parseSpecFile(in.spec); });
    // busbw_after of every draw (trial), by variant.
    std::map<std::string, Summary> after;
    for (const scenario::ScenarioSpec &spec : file.variants) {
        for (int t = 0; t < file.fullTrials; ++t) {
            const std::uint64_t seed = scenario::trialSeed(file.seed, t);
            const std::string key =
                spec.variant + "." + std::to_string(t) + ".";
            // The workload records its own trace and metrics, as
            // `c4bench --trace --metrics` does.
            trace::TraceRecorder recorder;
            obs::MetricRegistry registry;
            const scenario::LinkEventSpec cut = spec.linkEvents.front();
            LinkId cutUp = -1, cutDown = -1;
            std::string jsonl;

            pass.beginTrial();
            try {
                auto cl = pass.call(Layer::Build, [&] {
                    auto c = buildCluster(spec, seed);
                    c->sim().setTracer(trace::TraceScope(&recorder));
                    c->sim().setMetrics(obs::MetricsScope(&registry));
                    return c;
                });
                struct Task
                {
                    std::unique_ptr<core::AllreduceTask> task;
                    Summary before, after;
                };
                std::vector<Task> tasks;
                pass.call(Layer::Start, [&] {
                    const net::Topology &topo = cl->topology();
                    const scenario::AllreduceGroupSpec &g =
                        spec.allreduces.front();
                    JobId id = 1;
                    for (const std::vector<NodeId> &nodes :
                         core::crossSegmentPairs(topo, g.tasks)) {
                        core::AllreduceTaskConfig tc;
                        tc.job = id++;
                        tc.nodes = nodes;
                        tc.bytes = g.bytes;
                        tc.iterations = g.iterations;
                        tasks.push_back(
                            {std::make_unique<core::AllreduceTask>(*cl, tc),
                             {}, {}});
                    }
                    Simulator *sim = &cl->sim();
                    for (Task &t : tasks) {
                        Task *tp = &t;
                        t.task->onIteration([tp, sim, cut](int, double bw) {
                            (sim->now() < cut.at ? tp->before : tp->after)
                                .add(bw);
                        });
                    }
                    const int leaf = topo.leafIndex(cut.segment, cut.plane);
                    cutUp = topo.trunkUplink(leaf, cut.spine);
                    cutDown = topo.trunkDownlink(cut.spine, leaf);
                    core::Cluster *c = cl.get();
                    cl->sim().scheduleAt(cut.at, [c, cutUp, cutDown] {
                        c->fabric().setLinkUp(cutUp, false);
                        c->fabric().setLinkUp(cutDown, false);
                    });
                    for (Task &t : tasks)
                        t.task->start();
                });
                pass.call(Layer::Run, [&] {
                    return cl->run(spec.horizon > 0 ? spec.horizon
                                                    : kTimeNever);
                });

                Summary before, afterBw;
                for (const Task &t : tasks) {
                    before.merge(t.before);
                    afterBw.merge(t.after);
                }
                const double bwAfter = afterBw.empty() ? 0.0 : afterBw.mean();
                after[spec.variant].add(bwAfter);
                pass.output(key + "busbw_before",
                            before.empty() ? 0.0 : before.mean());
                pass.output(key + "busbw_after", bwAfter);
                addClusterCounts(pass, *cl);
                registry.snapshot(cl->sim().now());
                // Teardown records events too; the trace is written after
                // it, as the scenario runner writes it after the trial.
                // Tasks hold the cluster, so they go first.
                tasks.clear();
                cl.reset();

                jsonl = pass.call(Layer::TraceWrite, [&] {
                    return trace::writeJsonl(recorder.events());
                });
                const std::string snapshot = pass.call(Layer::ObsWrite, [&] {
                    obs::SnapshotMeta meta;
                    meta.scenario = file.name;
                    meta.variant = spec.variant;
                    return obs::writeSnapshot(meta, registry.samples());
                });
                pass.check(!snapshot.empty(),
                           spec.variant + " writes a metrics snapshot");
                addRegistryCounts(pass, registry);
                pass.add("trace.events",
                         static_cast<double>(recorder.size()));
                pass.add("trace.bytes", static_cast<double>(jsonl.size()));
                pass.add("obs.samples",
                         static_cast<double>(registry.samples().size()));
            } catch (const std::exception &e) {
                pass.fail(spec.variant + ": " + e.what());
                jsonl.clear();
            }
            pass.endTrial();
            if (jsonl.empty())
                continue;

            // The replayed incident is an operation of its own: parse the
            // JSONL back, replay it and score it against the injected cut.
            pass.beginTrial();
            try {
                const std::vector<trace::Event> events =
                    pass.call(Layer::TraceParse,
                              [&] { return trace::parseJsonl(jsonl); });
                pass.check(events == recorder.events(),
                           spec.variant + " trace round-trips");
                const std::vector<c4d::IncidentVerdict> verdicts = pass.call(
                    Layer::Replay, [&] { return replay::replayTrace(events); });

                replay::Incident incident;
                incident.name = spec.variant;
                incident.label.rootCause = "link_failure";
                incident.label.culpritLinks = {cutUp, cutDown};
                incident.label.tInject = cut.at;
                const replay::ScoreReport report = replay::aggregateScores(
                    {replay::scoreIncident(incident, verdicts)});
                pass.add("replay.tp", report.tp);
                pass.add("replay.fp", report.fp);
                pass.add("replay.fn", report.fn);

                int linkVerdicts = 0;
                bool named = false;
                for (const c4d::IncidentVerdict &v : verdicts) {
                    if (v.kind != c4d::IncidentKind::LinkFailure)
                        continue;
                    ++linkVerdicts;
                    named = (v.link == cutUp || v.link == cutDown) &&
                            v.detectedAt >= cut.at &&
                            v.detectedAt - cut.at <= seconds(1);
                }
                pass.output(key + "verdicts",
                            static_cast<double>(verdicts.size()));
                pass.check(linkVerdicts == 1 && named,
                           spec.variant +
                               ": one link_failure verdict naming the cut "
                               "trunk at t=8s");
            } catch (const std::exception &e) {
                pass.fail(spec.variant + " replay: " + e.what());
            }
            pass.endTrial();
        }
    }
    // Paper shape (Fig. 12), on the means over draws: after the cut,
    // dynamic LB re-pins onto healthy trunks and beats static TE's
    // ECMP rehash. One draw in eight rehashes with no collision and
    // edges dynamic LB, so a single draw cannot show it on every seed.
    pass.check(after.size() == 2 &&
                   after["dynamic_lb"].mean() > after["static_te"].mean(),
               "dynamic LB busbw_after above static TE's");
}
void
runPass(Workload w, Pass &pass, const Inputs &in)
{
    const Clock::time_point t0 = Clock::now();
    pass.openPass();
    switch (w) {
      case Workload::Fig3Ladder:
        passFig3(pass, in);
        break;
      case Workload::ChurnPod32:
        passChurn(pass, in);
        break;
      case Workload::FailoverReplay:
        passFailover(pass, in);
        break;
    }
    pass.closePass();
    pass.result().wallS = secondsBetween(t0, Clock::now());
}

// --- the spec interpreter as reference -------------------------------------

/**
 * Re-run every spec-driven trial through scenario::runSpecTrial and
 * compare its samples_per_sec / busbw_after with the pass's own
 * outputs: the benchmark's set-up split must not change what the
 * program computes. A fig3 trial stops after kRungIterations, so its
 * reference runs to the simulated time the trial stopped at. churn_pod32
 * is driven through core::Cluster directly and has no spec-interpreter
 * twin.
 */
std::vector<std::string>
crossCheck(Workload w, const Inputs &in, const PassResult &pass)
{
    if (w == Workload::ChurnPod32)
        return {};
    std::map<std::string, double> outputs(pass.outputs.begin(),
                                          pass.outputs.end());
    std::vector<std::string> errors;
    const specio::SpecFile file = specio::parseSpecFile(in.spec);
    const scenario::RunOptions opt;
    for (scenario::ScenarioSpec spec : file.variants) {
        for (int t = 0; t < file.fullTrials; ++t) {
            const std::string prefix =
                spec.variant + "." + std::to_string(t) + ".";
            if (w == Workload::Fig3Ladder) {
                spec.horizon = static_cast<Duration>(
                    outputs[prefix + "end_ns"]);
            }
            scenario::TrialContext ctx(
                opt, scenario::trialSeed(file.seed, t), t);
            scenario::runSpecTrial(spec, ctx);
            for (const scenario::Metric &m : ctx.metrics()) {
                if (m.name != "samples_per_sec" && m.name != "busbw_after")
                    continue;
                const std::string key = prefix + m.name;
                auto it = outputs.find(key);
                if (it == outputs.end())
                    errors.push_back("crosscheck: " + key + " missing");
                else if (it->second != m.value)
                    errors.push_back("crosscheck: " + key +
                                     " differs from runSpecTrial");
            }
        }
    }
    return errors;
}

// --- reporting -------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The median pass: each trial's median over the passes, summed, plus
 * the median of what the passes spent outside their trials. Every pass
 * runs the same trials in the same order, and a host hiccup lands in
 * one trial of one pass, so this filters it more finely than the median
 * of whole-pass times, which it equals when a pass is one trial. Falls
 * back to that median if the passes' trial lists differ.
 */
double
medianPass(const std::vector<PassResult> &passes, double PassResult::*total,
           std::vector<double> PassResult::*perTrial)
{
    std::vector<double> totals, rest;
    for (const PassResult &p : passes) {
        totals.push_back(p.*total);
        double inTrials = 0.0;
        for (double v : p.*perTrial)
            inTrials += v;
        rest.push_back(p.*total - inTrials);
        if ((p.*perTrial).size() != (passes.front().*perTrial).size())
            return median(totals);
    }
    double sum = median(rest);
    for (std::size_t i = 0; i < (passes.front().*perTrial).size(); ++i) {
        std::vector<double> column;
        for (const PassResult &p : passes)
            column.push_back((p.*perTrial)[i]);
        sum += median(column);
    }
    return sum;
}

/**
 * Two passes of one seed must agree exactly on everything counted. A
 * traced pass allocates for its attached registry and carries extra
 * registry counters, so it is held to the reference's outputs and
 * counters only.
 */
std::string
exactnessDiff(const PassResult &ref, const PassResult &p, bool traced)
{
    if (p.outputs != ref.outputs)
        return "simulated outputs differ between passes of one seed";
    for (const auto &[key, value] : ref.counts) {
        auto it = p.counts.find(key);
        if (it == p.counts.end() || it->second != value)
            return "layer counter " + key + " differs between passes";
    }
    if (traced)
        return "";
    if (p.counts.size() != ref.counts.size())
        return "layer counter sets differ between passes";
    if (p.heapAllocs != ref.heapAllocs) {
        return "heap_allocs differ between passes of one seed (" +
               std::to_string(ref.heapAllocs) + " vs " +
               std::to_string(p.heapAllocs) + ")";
    }
    return "";
}

/**
 * Start a fresh resident-memory high-water mark: hand freed heap back
 * to the kernel, then reset VmHWM (Linux clear_refs "5"). Without this
 * the peak would carry every earlier pass's fragmentation and grow
 * with the number of passes a run fits in.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

/** Resident-memory high-water mark since the last reset, in MiB. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
writeSpans(const std::string &path, const SpanLog &log,
           Clock::time_point origin)
{
    std::ofstream os(path);
    const std::vector<Span> &spans = log.spans();
    std::vector<double> childS(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childS[static_cast<std::size_t>(s.parent)] +=
                secondsBetween(s.start, s.end);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = secondsBetween(s.start, s.end);
        os << "{\"name\":" << jsonString(s.name) << ",\"trial\":"
           << s.trial << ",\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"start_s\":" << num(secondsBetween(origin, s.start))
           << ",\"dur_s\":" << num(dur)
           << ",\"self_s\":" << num(dur - childS[i]) << "}\n";
    }
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s fig3_ladder|churn_pod32|failover_replay "
                 "--seed N --seconds S --trace 0|1 [--short] "
                 "[--crosscheck] [--spans FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string name = argv[1];
    Workload w;
    if (name == "fig3_ladder")
        w = Workload::Fig3Ladder;
    else if (name == "churn_pod32")
        w = Workload::ChurnPod32;
    else if (name == "failover_replay")
        w = Workload::FailoverReplay;
    else
        return usage(argv[0]);

    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false, shortRun = false, crosscheck = false;
    std::string spansPath;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--seed" && hasValue)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else if (a == "--seconds" && hasValue)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && hasValue)
            traced = std::string(argv[++i]) == "1";
        else if (a == "--spans" && hasValue)
            spansPath = argv[++i];
        else if (a == "--short")
            shortRun = true;
        else if (a == "--crosscheck")
            crosscheck = true;
        else
            return usage(argv[0]);
    }

    // Pin glibc's mmap threshold at its default start value. Left
    // dynamic, it rises after the first large free, so where a pass's
    // big buffers (a trace's JSONL text) live, and with it the pass's
    // peak resident memory, would depend on the passes before it.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    const Inputs in = generate(w, seed, shortRun);

    // Span storage is reserved before any timing.
    constexpr std::size_t kMaxSpans = 1 << 14;
    SpanLog spanLog(traced ? kMaxSpans : 0);
    const Clock::time_point origin = Clock::now();

    int trials = 0;
    auto runOne = [&](bool withSpans) {
        PassResult r;
        Pass pass(r, withSpans ? &spanLog : nullptr, trials);
        resetPeakRss();
        runPass(w, pass, in);
        r.peakRssMb = peakRssMb();
        trials = pass.nextTrial();
        return r;
    };

    // Warm-up: fills caches and lazy statics; its outputs, counters
    // and allocation count are the reference every pass must match.
    const PassResult ref = runOne(false);
    int attempted = ref.trials, failed = ref.failed;
    std::vector<std::string> errors = ref.errors;
    auto absorb = [&](const PassResult &r, bool withSpans) {
        attempted += r.trials;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        if (r.failed == 0 && ref.failed == 0) {
            const std::string diff = exactnessDiff(ref, r, withSpans);
            if (!diff.empty()) {
                ++failed;
                errors.push_back(diff);
            }
        }
    };

    std::vector<PassResult> plain, tracedPasses;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        plain.push_back(runOne(false));
        absorb(plain.back(), false);
        if (traced) {
            tracedPasses.push_back(runOne(true));
            absorb(tracedPasses.back(), true);
        }
    } while (Clock::now() < deadline);
    if (traced && tracedPasses.size() > 1) {
        for (std::size_t i = 1; i < tracedPasses.size(); ++i) {
            if (tracedPasses[i].counts != tracedPasses[0].counts) {
                ++failed;
                errors.push_back("traced layer counters differ between "
                                 "passes of one seed");
                break;
            }
        }
    }

    if (crosscheck) {
        for (const std::string &e : crossCheck(w, in, ref)) {
            ++failed;
            errors.push_back(e);
        }
    }

    auto medianOf = [](const std::vector<PassResult> &ps, auto field) {
        std::vector<double> v;
        for (const PassResult &p : ps)
            v.push_back(field(p));
        return median(v);
    };

    std::ostringstream js;
    js << "{\"workload\":" << jsonString(name) << ",\"seed\":" << seed
       << ",\"trace\":" << (traced ? 1 : 0)
       << ",\"input_hash\":\"" << std::hex << fnv1a(in.spec + in.schedule)
       << std::dec << "\",\"passes\":" << plain.size()
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size() && i < 16; ++i)
        js << (i ? "," : "") << jsonString(errors[i]);
    js << "],\"outputs\":{";
    for (std::size_t i = 0; i < ref.outputs.size(); ++i) {
        js << (i ? "," : "") << jsonString(ref.outputs[i].first) << ":"
           << num(ref.outputs[i].second);
    }
    js << "},\"metrics\":{";
    auto metric = [&js, first = true](const std::string &key, double v,
                                      const char *unit) mutable {
        js << (first ? "" : ",") << jsonString(key) << ":{\"value\":"
           << num(v) << ",\"unit\":\"" << unit << "\"}";
        first = false;
    };
    const double wallS =
        medianPass(plain, &PassResult::wallS, &PassResult::trialS);
    metric("wall_s", wallS, "s");
    metric("setup_s",
           medianPass(plain, &PassResult::setupS, &PassResult::trialSetupS),
           "s");
    metric("peak_rss_mb",
           medianOf(plain,
                    [](const PassResult &p) { return p.peakRssMb; }),
           "MB");
    metric("heap_allocs", static_cast<double>(ref.heapAllocs), "count");
    if (traced) {
        const std::vector<PassResult> &tps = tracedPasses;
        // Every workload reports every counter; a layer the workload
        // leaves idle reads 0.
        std::map<std::string, double> counts = tps.front().counts;
        for (const char *key :
             {"sim.events", "sim.promotes", "sim.pool_slots",
              "fabric.recomputes", "fabric.recompute_ops",
              "fabric.flows_started", "fabric.flows_rerouted",
              "fabric.reallocs", "fabric.ops_exponent",
              "train.iterations", "accl.coll_records",
              "accl.conn_records", "c4d.events", "c4d.faults_observed",
              "c4d.restarts", "c4d.restarts_via_c4d",
              "c4p.path_reallocs", "trace.events", "trace.bytes",
              "obs.samples", "replay.tp", "replay.fp",
              "replay.fn"}) {
            counts.emplace(key, 0.0);
        }
        const double flows = counts["fabric.flows_started"];
        const double tp = counts["replay.tp"];
        const double fp = counts["replay.fp"];
        const double fn = counts["replay.fn"];
        for (const auto &[key, value] : counts) {
            const bool ratio = key == "fabric.ops_exponent";
            metric(key, value,
                   ratio                     ? "ratio"
                   : key.ends_with(".bytes") ? "bytes"
                                             : "count");
        }
        metric("fabric.ops_per_flow",
               flows > 0 ? counts["fabric.recompute_ops"] / flows : 0.0,
               "ratio");
        // Scores of the replayed incidents; 0 where none was replayed.
        metric("replay.precision", tp + fp > 0 ? tp / (tp + fp) : 0.0,
               "ratio");
        metric("replay.recall", tp + fn > 0 ? tp / (tp + fn) : 0.0,
               "ratio");
        for (int i = 0; i < kLayers; ++i) {
            metric(std::string(kLayerName[i]) + "_s",
                   medianOf(tps,
                            [i](const PassResult &p) {
                                return p.layerS[static_cast<std::size_t>(
                                    i)];
                            }),
                   "s");
        }
        metric("core.build_allocs",
               static_cast<double>(ref.layerAllocs[static_cast<int>(
                   Layer::Build)]),
               "count");
        metric("sim.run_allocs",
               static_cast<double>(
                   ref.layerAllocs[static_cast<int>(Layer::Run)]),
               "count");
        const double tracedWall =
            medianPass(tps, &PassResult::wallS, &PassResult::trialS);
        metric("traced.wall_s", tracedWall, "s");
        metric("traced.overhead_s", tracedWall - wallS, "s");
        if (!spansPath.empty())
            writeSpans(spansPath, spanLog, origin);
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return 0;
}
