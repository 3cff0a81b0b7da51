/**
 * @file
 * Scenario engine: spec validation, registry lookup, runner
 * resolution, sink output, and — the load-bearing property — that the
 * same spec + seed produces byte-identical CSV whether the trial sweep
 * runs on one worker thread or several.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "common/json.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/workload.h"

using namespace c4;
using namespace c4::scenario;

namespace {

/** A cheap allreduce-only spec (seconds-scale, fully declarative). */
ScenarioSpec
tinyAllreduce(const char *variant, bool c4p)
{
    ScenarioSpec spec;
    spec.variant = variant;
    spec.features.c4p = c4p;
    AllreduceGroupSpec g;
    g.tasks = 4;
    g.placement = AllreduceGroupSpec::Placement::CrossSegmentPairs;
    g.bytes = mib(32);
    g.iterations = 3;
    spec.allreduces.push_back(g);
    return spec;
}

Scenario
tinyScenario(const char *name)
{
    Scenario sc;
    sc.name = name;
    sc.title = "tiny";
    sc.variants = [](const RunOptions &) {
        return std::vector<ScenarioSpec>{tinyAllreduce("ecmp", false),
                                         tinyAllreduce("c4p", true)};
    };
    return sc;
}

// --- spec validation --------------------------------------------------

TEST(SpecValidation, GoodSpecPasses)
{
    EXPECT_EQ(validateSpec(tinyAllreduce("ok", false)), "");
}

TEST(SpecValidation, PodNeedsNodeCount)
{
    ScenarioSpec spec = tinyAllreduce("bad", false);
    spec.topology.kind = TopologySpec::Kind::Pod;
    EXPECT_NE(validateSpec(spec).find("numNodes"), std::string::npos);
}

TEST(SpecValidation, UnknownModelRejected)
{
    ScenarioSpec spec;
    spec.variant = "bad";
    JobSpec job;
    job.model = "gpt9000b";
    spec.jobs.push_back(job);
    spec.horizon = seconds(10);
    EXPECT_NE(validateSpec(spec).find("unknown model"),
              std::string::npos);
}

TEST(SpecValidation, JobsNeedHorizon)
{
    ScenarioSpec spec;
    spec.variant = "bad";
    spec.jobs.push_back(JobSpec{});
    EXPECT_NE(validateSpec(spec).find("horizon"), std::string::npos);
}

TEST(SpecValidation, DuplicateJobIdsRejected)
{
    ScenarioSpec spec;
    spec.variant = "bad";
    spec.jobs.push_back(JobSpec{});
    spec.jobs.push_back(JobSpec{});
    spec.horizon = seconds(10);
    EXPECT_NE(validateSpec(spec).find("duplicate job id"),
              std::string::npos);
}

TEST(SpecValidation, SpreadPlacementSingleTaskOnly)
{
    ScenarioSpec spec = tinyAllreduce("bad", false);
    spec.allreduces[0].placement =
        AllreduceGroupSpec::Placement::SpreadAcrossSegments;
    spec.allreduces[0].nodesPerTask = 4;
    EXPECT_NE(validateSpec(spec).find("exactly one task"),
              std::string::npos);
}

TEST(SpecValidation, ExplicitPlacementNeedsNodeListPerTask)
{
    ScenarioSpec spec = tinyAllreduce("bad", false);
    spec.allreduces[0].placement =
        AllreduceGroupSpec::Placement::Explicit;
    spec.allreduces[0].explicitNodes = {{0, 1}}; // 1 list, 4 tasks
    EXPECT_NE(validateSpec(spec).find("one node list per task"),
              std::string::npos);
}

// Each value below passed validation before and then aborted the
// interpreter on an assert (an index past the topology, a negative
// delay) or silently ran as a default.
TEST(SpecValidation, RejectsValuesTheInterpreterCannotRun)
{
    ScenarioSpec base = tinyAllreduce("bad", false);
    base.jobs.push_back(JobSpec{});
    base.horizon = seconds(10);
    base.linkEvents.push_back(LinkEventSpec{});
    FaultSpec fault;
    fault.type = fault::FaultType::SlowNicTx;
    fault.node = 1;
    base.faults.push_back(fault);
    ASSERT_EQ(validateSpec(base), "");

    struct Case
    {
        const char *expect;
        std::function<void(ScenarioSpec &)> mutate;
    };
    const std::vector<Case> cases = {
        {"bytes > 0", [](ScenarioSpec &s) { s.allreduces[0].bytes = -5; }},
        {"oversubscription must be >= 1",
         [](ScenarioSpec &s) { s.topology.oversubscription = 0.5; }},
        {"nvlinkBusBandwidth",
         [](ScenarioSpec &s) { s.topology.nvlinkBusBandwidth = -1; }},
        {"initTime",
         [](ScenarioSpec &s) { s.jobs[0].initTime = -seconds(3); }},
        {"checkpointCost",
         [](ScenarioSpec &s) {
             s.jobs[0].checkpointIntervalIters = 2;
             s.jobs[0].checkpointCost = -seconds(1);
         }},
        {"link event spine 99",
         [](ScenarioSpec &s) { s.linkEvents[0].spine = 99; }},
        {"link event segment 99",
         [](ScenarioSpec &s) { s.linkEvents[0].segment = 99; }},
        {"fault nic 99", [](ScenarioSpec &s) { s.faults[0].nic = 99; }},
        {"allreduce node 99",
         [](ScenarioSpec &s) {
             s.allreduces[0].tasks = 1;
             s.allreduces[0].placement =
                 AllreduceGroupSpec::Placement::Explicit;
             s.allreduces[0].explicitNodes = {{0, 99}};
         }},
        {"job node 99",
         [](ScenarioSpec &s) { s.jobs[0].nodes = {0, 99}; }},
        {"fault node 99", [](ScenarioSpec &s) { s.faults[0].node = 99; }},
        {"fault at_s",
         [](ScenarioSpec &s) { s.faults[0].at = -seconds(1); }},
        {"link event at_s",
         [](ScenarioSpec &s) { s.linkEvents[0].at = -seconds(1); }},
        {"cnp_nic 99", [](ScenarioSpec &s) { s.metrics.cnpNic = 99; }},
        {"uplink_segment 99",
         [](ScenarioSpec &s) { s.metrics.uplinkSegment = 99; }},
        {"evaluatePeriod",
         [](ScenarioSpec &s) { s.features.evaluatePeriod = -seconds(1); }},
        {"hangThreshold",
         [](ScenarioSpec &s) { s.features.hangThreshold = -seconds(1); }},
        {"minWaitForSlow",
         [](ScenarioSpec &s) { s.features.minWaitForSlow = -seconds(1); }},
        {"isolationDelay",
         [](ScenarioSpec &s) { s.features.isolationDelay = -seconds(1); }},
        {"microbatchCompute",
         [](ScenarioSpec &s) { s.jobs[0].microbatchCompute = -seconds(1); }},
        {"hangWatchdogTimeout",
         [](ScenarioSpec &s) {
             s.jobs[0].hangWatchdogTimeout = -seconds(1);
         }},
    };
    for (const Case &c : cases) {
        ScenarioSpec spec = base;
        c.mutate(spec);
        EXPECT_NE(validateSpec(spec).find(c.expect), std::string::npos)
            << c.expect << ": got '" << validateSpec(spec) << "'";
    }
}

TEST(SpecValidation, DetectionNeedsC4d)
{
    ScenarioSpec spec = tinyAllreduce("bad", false);
    spec.metrics.detection = true;
    FaultSpec f;
    f.node = 1;
    spec.faults.push_back(f);
    EXPECT_NE(validateSpec(spec).find("C4D"), std::string::npos);
}

TEST(SpecValidation, CustomExecutorSkipsWorkloadChecks)
{
    ScenarioSpec spec;
    spec.variant = "custom";
    spec.topology.kind = TopologySpec::Kind::Pod; // would be invalid
    spec.custom = [](TrialContext &) {};
    EXPECT_EQ(validateSpec(spec), "");
}

TEST(SpecValidation, RunSpecTrialThrowsOnInvalidSpec)
{
    ScenarioSpec spec;
    spec.variant = "bad";
    spec.topology.kind = TopologySpec::Kind::Pod;
    RunOptions opt;
    TrialContext ctx(opt, 1, 0);
    EXPECT_THROW(runSpecTrial(spec, ctx), std::invalid_argument);
}

TEST(SpecValidation, RunnerRejectsInvalidVariant)
{
    Scenario sc;
    sc.name = "test_invalid_variant";
    sc.variants = [](const RunOptions &) {
        ScenarioSpec spec;
        spec.variant = "bad";
        spec.topology.oversubscription = -1.0;
        return std::vector<ScenarioSpec>{spec};
    };
    ScenarioRunner runner;
    EXPECT_EQ(runner.run(sc), 1);
}

// --- registry ---------------------------------------------------------

TEST(Registry, LookupAndEnumeration)
{
    Registry &registry = Registry::instance();
    const std::size_t before = registry.size();
    registry.add(tinyScenario("test_registry_entry"));
    EXPECT_EQ(registry.size(), before + 1);

    const Scenario *found = registry.find("test_registry_entry");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, "tiny");
    EXPECT_EQ(registry.find("no_such_scenario"), nullptr);

    // all() is sorted by name.
    const auto all = registry.all();
    ASSERT_EQ(all.size(), before + 1);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(Registry, DuplicateAndAnonymousNamesRejected)
{
    Registry &registry = Registry::instance();
    registry.add(tinyScenario("test_registry_dup"));
    EXPECT_THROW(registry.add(tinyScenario("test_registry_dup")),
                 std::invalid_argument);
    EXPECT_THROW(registry.add(tinyScenario("")),
                 std::invalid_argument);
    Scenario noVariants;
    noVariants.name = "test_registry_novariants";
    EXPECT_THROW(registry.add(noVariants), std::invalid_argument);
}

TEST(Registry, AddOrReplaceShadowsExistingRegistration)
{
    Registry &registry = Registry::instance();
    EXPECT_FALSE(
        registry.addOrReplace(tinyScenario("test_registry_shadow")));
    const std::size_t count = registry.size();

    Scenario replacement = tinyScenario("test_registry_shadow");
    replacement.title = "replaced";
    EXPECT_TRUE(registry.addOrReplace(replacement));
    EXPECT_EQ(registry.size(), count); // replaced, not appended

    const Scenario *found = registry.find("test_registry_shadow");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, "replaced");

    Scenario noVariants;
    noVariants.name = "test_registry_shadow";
    EXPECT_THROW(registry.addOrReplace(noVariants),
                 std::invalid_argument);
}

// --- runner resolution ------------------------------------------------

TEST(Runner, ResolvesTrialsAndSeedFromScenario)
{
    Scenario sc = tinyScenario("test_resolution");
    sc.fullTrials = 7;
    sc.smokeTrials = 2;
    sc.seed = 0xABCD;

    ScenarioRunner full;
    EXPECT_EQ(full.resolved(sc).trials, 7);
    EXPECT_EQ(full.resolved(sc).seed, 0xABCDull);

    RunOptions opt;
    opt.smoke = true;
    ScenarioRunner smoke(opt);
    EXPECT_EQ(smoke.resolved(sc).trials, 2);

    opt.trials = 3;
    opt.seed = 42;
    opt.seedSet = true;
    ScenarioRunner overridden(opt);
    EXPECT_EQ(overridden.resolved(sc).trials, 3);
    EXPECT_EQ(overridden.resolved(sc).seed, 42ull);
}

TEST(Runner, TrialSeedsAreDistinctAndStable)
{
    EXPECT_EQ(trialSeed(1, 0), trialSeed(1, 0));
    EXPECT_NE(trialSeed(1, 0), trialSeed(1, 1));
    EXPECT_NE(trialSeed(1, 0), trialSeed(2, 0));
}

// --- determinism across thread counts ---------------------------------

std::string
runCsv(const Scenario &sc, int threads)
{
    RunOptions opt;
    opt.trials = 4;
    opt.threads = threads;
    std::ostringstream csv;
    CsvSink sink(csv);
    ScenarioRunner runner(opt);
    runner.addSink(sink);
    EXPECT_EQ(runner.run(sc), 0);
    return csv.str();
}

TEST(Determinism, CsvIdenticalAcrossThreadCounts)
{
    const Scenario sc = tinyScenario("test_determinism");
    const std::string single = runCsv(sc, 1);
    const std::string fourWay = runCsv(sc, 4);
    EXPECT_FALSE(single.empty());
    EXPECT_EQ(single, fourWay);

    // Sanity on the content: both variants, all four trials.
    EXPECT_NE(single.find("test_determinism,ecmp,0,"),
              std::string::npos);
    EXPECT_NE(single.find("test_determinism,c4p,3,"),
              std::string::npos);
    EXPECT_NE(single.find("busbw_mean"), std::string::npos);
}

TEST(Determinism, CustomExecutorSweepIsOrderIndependent)
{
    // A custom scenario whose metric depends only on (seed, trial):
    // the emitted order must be variant-major regardless of which
    // worker finishes first.
    Scenario sc;
    sc.name = "test_custom_det";
    sc.variants = [](const RunOptions &) {
        ScenarioSpec a;
        a.variant = "a";
        a.custom = [](TrialContext &ctx) {
            ctx.metric("seed_lo",
                       static_cast<double>(ctx.seed % 1000));
        };
        ScenarioSpec b = a;
        b.variant = "b";
        return std::vector<ScenarioSpec>{a, b};
    };
    EXPECT_EQ(runCsv(sc, 1), runCsv(sc, 3));
}

// --- sinks ------------------------------------------------------------

TEST(Sinks, TableAggregatesMeansPerVariant)
{
    Scenario sc;
    sc.name = "test_table";
    sc.title = "table test";
    sc.notes = "note line";
    sc.variants = [](const RunOptions &) {
        ScenarioSpec spec;
        spec.variant = "only";
        spec.custom = [](TrialContext &ctx) {
            ctx.metric("value", ctx.trial == 0 ? 1.0 : 3.0);
        };
        return std::vector<ScenarioSpec>{spec};
    };

    RunOptions opt;
    opt.trials = 2;
    opt.threads = 1;
    std::ostringstream out;
    TableSink sink(out);
    ScenarioRunner runner(opt);
    runner.addSink(sink);
    ASSERT_EQ(runner.run(sc), 0);

    // mean of {1, 3} = 2.
    EXPECT_NE(out.str().find("2.00"), std::string::npos);
    EXPECT_NE(out.str().find("table test"), std::string::npos);
    EXPECT_NE(out.str().find("note line"), std::string::npos);
}

TEST(Sinks, JsonIsWellFormedEnough)
{
    Scenario sc = tinyScenario("test_json");
    RunOptions opt;
    opt.trials = 1;
    opt.threads = 1;
    std::string text;
    {
        std::ostringstream out;
        JsonSink sink(out);
        ScenarioRunner runner(opt);
        runner.addSink(sink);
        ASSERT_EQ(runner.run(sc), 0);
        text = out.str();
    }
    EXPECT_NE(text.find("\"scenario\": \"test_json\""),
              std::string::npos);
    EXPECT_NE(text.find("\"variant\": \"ecmp\""), std::string::npos);
    EXPECT_NE(text.find("busbw_mean"), std::string::npos);

    // A label needing every kind of escape survives a real parser.
    const std::string label = "say \"hi\" \\ tab\there\x01";
    Scenario odd = tinyScenario("test_json_escapes");
    odd.variants = [label](const RunOptions &) {
        return std::vector<ScenarioSpec>{
            tinyAllreduce(label.c_str(), false)};
    };
    {
        std::ostringstream out;
        {
            JsonSink sink(out);
            ScenarioRunner runner(opt);
            runner.addSink(sink);
            ASSERT_EQ(runner.run(odd), 0);
        }
        text = out.str();
    }
    const Json doc = parseJson(text);
    ASSERT_EQ(doc.kind, Json::Kind::Array);
    ASSERT_EQ(doc.array.size(), 1u);
    const Json::Member *results = doc.array[0].find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->value.array.size(), 1u);
    const Json::Member *variant = results->value.array[0].find("variant");
    ASSERT_NE(variant, nullptr);
    EXPECT_EQ(variant->value.string, label);
}

// --- workload interpreter --------------------------------------------

TEST(Workload, ClusterConfigReflectsSpec)
{
    ScenarioSpec spec;
    spec.variant = "cfg";
    spec.topology.kind = TopologySpec::Kind::Pod;
    spec.topology.numNodes = 32;
    spec.topology.oversubscription = 2.0;
    spec.topology.nodesPerSegment = 8;
    spec.features.c4p = true;
    spec.features.dynamicLoadBalance = true;
    spec.features.qpsPerConnection = 2;
    spec.features.c4d = true;
    spec.features.evaluatePeriod = seconds(3);

    const core::ClusterConfig cc = toClusterConfig(spec, 99);
    EXPECT_EQ(cc.topology.numNodes, 32);
    EXPECT_EQ(cc.topology.nodesPerSegment, 8);
    EXPECT_DOUBLE_EQ(cc.topology.oversubscription, 2.0);
    EXPECT_TRUE(cc.enableC4p);
    EXPECT_TRUE(cc.c4p.dynamicLoadBalance);
    EXPECT_EQ(cc.accl.qpsPerConnection, 2);
    EXPECT_TRUE(cc.enableC4d);
    EXPECT_EQ(cc.c4d.evaluatePeriod, seconds(3));
    EXPECT_EQ(cc.seed, 99ull);
}

TEST(Workload, JobWorkloadProducesThroughputMetric)
{
    ScenarioSpec spec;
    spec.variant = "job";
    JobSpec job;
    job.model = "llama7b";
    job.parallel = {.tp = 8, .pp = 1, .dp = 2};
    spec.jobs.push_back(job);
    spec.horizon = seconds(30);

    RunOptions opt;
    TrialContext ctx(opt, 7, 0);
    runSpecTrial(spec, ctx);
    ASSERT_EQ(ctx.metrics().size(), 1u);
    EXPECT_EQ(ctx.metrics()[0].name, "samples_per_sec");
    EXPECT_GT(ctx.metrics()[0].value, 0.0);
}

} // namespace
