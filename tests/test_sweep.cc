/**
 * @file
 * Distributed-sweep subsystem: shard trial ranges through the runner
 * (absolute trial indices, byte-identical rows), manifest journaling
 * round-trips, the planner's balanced partitions, the process
 * executor's retry/resume state machine (driven through a fake bench
 * script), the merger's determinism and refusal paths, the c4bundle/1
 * failure-bundle manifest (round-trip, strictness, prefix fuzz), the
 * `c4sweep status` dashboard's exit codes, and multi-host journal
 * reconciliation (`c4sweep collect`). The
 * end-to-end gates over the real c4bench binary live in
 * cmake/sweep_check.cmake (ctest -L sweep) and
 * cmake/collect_check.cmake (ctest -L collect).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/jsonl_files.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "specio/specio.h"
#include "sweep/collect.h"
#include "sweep/exec.h"
#include "sweep/forensics.h"
#include "sweep/manifest.h"
#include "sweep/merge.h"
#include "sweep/plan.h"
#include "sweep/watch.h"

namespace c4::sweep {
namespace {

namespace fs = std::filesystem;

using scenario::RunOptions;
using scenario::Scenario;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

/** Fresh per-test scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("c4_sweep_test_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A cheap two-variant allreduce scenario (same shape as the one in
 * test_scenario.cc). */
Scenario
tinyScenario(const char *name)
{
    auto variant = [](const char *label, bool c4p) {
        ScenarioSpec spec;
        spec.variant = label;
        spec.features.c4p = c4p;
        scenario::AllreduceGroupSpec g;
        g.tasks = 2;
        g.bytes = mib(16);
        g.iterations = 2;
        spec.allreduces.push_back(g);
        return spec;
    };
    Scenario sc;
    sc.name = name;
    sc.title = "tiny";
    sc.fullTrials = 8;
    sc.smokeTrials = 4;
    sc.variants = [variant](const RunOptions &) {
        return std::vector<ScenarioSpec>{variant("ecmp", false),
                                         variant("c4p", true)};
    };
    return sc;
}

std::string
runCsv(const Scenario &s, const RunOptions &opt)
{
    std::ostringstream out;
    scenario::CsvSink sink(out);
    ScenarioRunner runner(opt);
    runner.addSink(sink);
    EXPECT_EQ(runner.run(s), 0);
    return out.str();
}

// --- trial ranges through the runner ----------------------------------

TEST(TrialRange, Validation)
{
    using scenario::validateTrialRange;
    EXPECT_EQ(validateTrialRange(0, 0, 4), "");
    EXPECT_EQ(validateTrialRange(3, 1, 4), "");
    EXPECT_EQ(validateTrialRange(1, 0, 4), ""); // to the end
    EXPECT_NE(validateTrialRange(-1, 0, 4).find("trial_begin"),
              std::string::npos);
    EXPECT_NE(validateTrialRange(0, -1, 4).find("trial_count"),
              std::string::npos);
    EXPECT_NE(validateTrialRange(4, 0, 4).find("out of range"),
              std::string::npos);
    EXPECT_NE(validateTrialRange(2, 3, 4).find("overflows"),
              std::string::npos);
}

TEST(TrialRange, ShardRowsAreByteIdenticalToTheFullRunsRows)
{
    const Scenario full = tinyScenario("shard_t");
    RunOptions opt;
    opt.trials = 4;
    opt.threads = 1;
    const std::string fullCsv = runCsv(full, opt);

    Scenario shard = full;
    shard.trialBegin = 1;
    shard.trialCount = 2;
    const std::string shardCsv = runCsv(shard, opt);

    // The shard emits exactly the full run's rows for trials 1..2 —
    // absolute trial indices, same derived seeds, same order.
    std::string expected;
    std::istringstream lines(fullCsv);
    std::string line;
    std::getline(lines, line); // header
    expected = line + "\n";
    while (std::getline(lines, line)) {
        const auto fields = parseCsv(line);
        ASSERT_EQ(fields.size(), 1u);
        const int trial = std::atoi(fields[0][2].c_str());
        if (trial >= 1 && trial < 3)
            expected += line + "\n";
    }
    EXPECT_EQ(shardCsv, expected);
}

TEST(TrialRange, RunnerRejectsARangeOutsideTheSweep)
{
    Scenario shard = tinyScenario("shard_bad");
    shard.trialBegin = 4;
    RunOptions opt;
    opt.trials = 4;
    ScenarioRunner runner(opt);
    EXPECT_EQ(runner.run(shard), 1);

    shard.trialBegin = 2;
    shard.trialCount = 3;
    EXPECT_EQ(ScenarioRunner(opt).run(shard), 1);
}

// --- manifest ---------------------------------------------------------

Manifest
sampleManifest()
{
    Manifest m;
    m.smoke = true;
    m.scenarios.push_back({"t", 4});
    for (int k = 0; k < 2; ++k) {
        Shard s;
        s.id = "t.s" + std::to_string(k);
        s.scenario = "t";
        s.spec = "shards/" + s.id + ".json";
        s.csv = "csv/" + s.id + ".csv";
        s.log = "logs/" + s.id + ".log";
        s.trialBegin = k * 2;
        s.trialCount = 2;
        m.shards.push_back(s);
    }
    return m;
}

TEST(Manifest, RoundTripsByteStably)
{
    Manifest m = sampleManifest();
    m.shards[0].status = ShardStatus::Done;
    m.shards[0].attempts = 2;
    m.shards[0].exitCode = 0;
    const std::string once = writeManifest(m);
    const Manifest reloaded = parseManifest(once);
    EXPECT_EQ(writeManifest(reloaded), once);
    EXPECT_EQ(reloaded.shards[0].status, ShardStatus::Done);
    EXPECT_EQ(reloaded.shards[0].attempts, 2);
    EXPECT_EQ(reloaded.shards[1].status, ShardStatus::Pending);
    EXPECT_TRUE(reloaded.smoke);
    ASSERT_EQ(reloaded.scenarios.size(), 1u);
    EXPECT_EQ(reloaded.scenarios[0].trials, 4);
}

TEST(Manifest, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseManifest("[]"), std::runtime_error);
    EXPECT_THROW(parseManifest("{\"version\": 2, \"smoke\": false, "
                               "\"scenarios\": [], \"shards\": []}"),
                 std::runtime_error);
    std::string bad = writeManifest(sampleManifest());
    bad.replace(bad.find("pending"), 7, "paused!");
    EXPECT_THROW(parseManifest(bad), std::runtime_error);

    // Unknown keys are rejected at every level, not ignored.
    const std::string good = writeManifest(sampleManifest());
    for (const char *anchor :
         {"\"version\"", "\"name\"", "\"id\": \"t.s1\""}) {
        std::string extra = good;
        extra.insert(extra.find(anchor), "\"surprise\": 1, ");
        try {
            parseManifest(extra);
            ADD_FAILURE() << "unknown key before " << anchor
                          << " accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("manifest: ", 0), 0u)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("unknown key "
                                                 "\"surprise\""),
                      std::string::npos)
                << e.what();
        }
    }

    // Integers outside int32 are errors, not silent narrowings (2^32
    // used to load as 0).
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"trial_begin\": 2", "\"trial_begin\": 4294967298"},
             {"\"trial_count\": 2", "\"trial_count\": -4294967294"},
             {"\"trials\": 4", "\"trials\": 4294967300"},
             {"\"attempts\": 0", "\"attempts\": 9223372036854775807"},
             {"\"version\": 1", "\"version\": 4294967297"}}) {
        std::string wide = good;
        wide.replace(wide.find(from), from.size(), to);
        try {
            parseManifest(wide);
            ADD_FAILURE() << to << " accepted";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("manifest: line ", 0), 0u) << what;
            EXPECT_NE(what.find("out of integer range"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Manifest, SaveIsAtomicAndLoadable)
{
    const fs::path dir = scratchDir("manifest");
    saveManifest(dir.string(), sampleManifest());
    EXPECT_FALSE(fs::exists(dir / "manifest.json.tmp"));
    const Manifest loaded = loadManifest(dir.string());
    EXPECT_EQ(loaded.shards.size(), 2u);
    EXPECT_THROW(loadManifest((dir / "nope").string()),
                 std::runtime_error);
}

// --- the status view --------------------------------------------------

TEST(Status, OneTickRendersTheDashboardWithTheCampaignsExitCode)
{
    const fs::path dir = scratchDir("status");
    WatchOptions once;
    once.intervalSeconds = 0;
    once.maxTicks = 1;
    std::string frame, error;
    auto status = [&]() {
        std::ostringstream out, err;
        const int rc = watchCampaign(dir.string(), once, out, err);
        frame = out.str();
        error = err.str();
        return rc;
    };
    auto rowOf = [&](const std::string &id) {
        const std::size_t at = frame.find(id + " ");
        if (at == std::string::npos)
            return std::string();
        return frame.substr(at, frame.find('\n', at) - at);
    };

    Manifest m = sampleManifest();
    saveManifest(dir.string(), m);
    EXPECT_EQ(status(), 1);
    EXPECT_NE(frame.find("0 done, 0 running, 0 failed, 2 pending"),
              std::string::npos)
        << frame;
    EXPECT_NE(frame.find("`c4sweep run` to execute"), std::string::npos)
        << frame;

    m.shards[0].status = ShardStatus::Done;
    m.shards[0].attempts = 1;
    m.shards[1].status = ShardStatus::Failed;
    m.shards[1].attempts = 2;
    m.shards[1].exitCode = 3;
    saveManifest(dir.string(), m);
    EXPECT_EQ(status(), 1);
    const std::string failedRow = rowOf("t.s1");
    EXPECT_NE(failedRow.find("failed"), std::string::npos) << frame;
    EXPECT_NE(failedRow.find(" 3 "), std::string::npos) << failedRow;
    EXPECT_NE(frame.find("retry budget burned: 1"), std::string::npos)
        << frame;
    EXPECT_NE(frame.find("--retries"), std::string::npos) << frame;

    m.shards[1].status = ShardStatus::Done;
    m.shards[1].attempts = 3;
    m.shards[1].exitCode = 0;
    saveManifest(dir.string(), m);
    EXPECT_EQ(status(), 0);
    EXPECT_NE(frame.find("campaign complete"), std::string::npos)
        << frame;
    EXPECT_EQ(error, "");

    fs::remove(manifestPath(dir.string()));
    EXPECT_EQ(status(), 2);
    EXPECT_EQ(frame, "");
    EXPECT_NE(error.find(manifestPath(dir.string())), std::string::npos)
        << error;
}

// --- planner ----------------------------------------------------------

TEST(Plan, BalancedPartitionAndPinnedTrialCounts)
{
    scenario::Registry::instance().addOrReplace(
        tinyScenario("sweep_plan_t"));
    const fs::path dir = scratchDir("plan");
    fs::remove_all(dir); // planner creates it

    PlanRequest request;
    request.targets = {"sweep_plan_t"};
    request.dir = dir.string();
    request.shards = 3;
    request.opt.trials = 8;
    std::ostringstream diag;
    ASSERT_EQ(planCampaign(request, diag), "");

    const Manifest m = loadManifest(dir.string());
    ASSERT_EQ(m.scenarios.size(), 1u);
    EXPECT_EQ(m.scenarios[0].trials, 8);
    ASSERT_EQ(m.shards.size(), 3u);
    // 8 trials over 3 shards: 3, 3, 2 — balanced, contiguous.
    EXPECT_EQ(m.shards[0].trialCount, 3);
    EXPECT_EQ(m.shards[1].trialCount, 3);
    EXPECT_EQ(m.shards[2].trialCount, 2);
    int cursor = 0;
    for (const Shard &s : m.shards) {
        EXPECT_EQ(s.trialBegin, cursor);
        cursor += s.trialCount;
        // Each shard spec reloads cleanly with the range bound and
        // both trial counts pinned to the sweep width.
        const specio::SpecFile file = specio::loadSpecFile(
            campaignPath(dir.string(), s.spec));
        EXPECT_EQ(file.trialBegin, s.trialBegin);
        EXPECT_EQ(file.trialCount, s.trialCount);
        EXPECT_EQ(file.fullTrials, 8);
        EXPECT_EQ(file.smokeTrials, 8);
    }
    EXPECT_EQ(cursor, 8);

    // Re-planning over a journaled campaign is refused.
    EXPECT_NE(planCampaign(request, diag).find("refusing"),
              std::string::npos);
}

TEST(Plan, RejectsCustomExecutorScenarios)
{
    Scenario custom = tinyScenario("sweep_plan_custom");
    custom.variants = [](const RunOptions &) {
        ScenarioSpec spec;
        spec.variant = "code";
        spec.custom = [](scenario::TrialContext &) {};
        return std::vector<ScenarioSpec>{spec};
    };
    scenario::Registry::instance().addOrReplace(custom);

    PlanRequest request;
    request.targets = {"sweep_plan_custom"};
    request.dir = scratchDir("plan_custom").string();
    fs::remove_all(request.dir);
    std::ostringstream diag;
    EXPECT_NE(planCampaign(request, diag).find("custom"),
              std::string::npos);
}

TEST(Plan, RejectsUnknownScenario)
{
    PlanRequest request;
    request.targets = {"no_such_scenario"};
    request.dir = scratchDir("plan_unknown").string();
    fs::remove_all(request.dir);
    std::ostringstream diag;
    EXPECT_NE(planCampaign(request, diag).find("unknown scenario"),
              std::string::npos);
}

// --- executor (through a fake bench script) ---------------------------

/**
 * A stand-in c4bench: fails its first execution per shard (exit 3),
 * then emits a one-row CSV. Exercises retry accounting without
 * simulating anything.
 */
fs::path
writeFakeBench(const fs::path &dir, bool failFirst)
{
    const fs::path script = dir / "fake_bench.sh";
    std::string body = "#!/bin/sh\nspec=$2\n";
    if (failFirst) {
        body += "if [ ! -f \"$spec.mark\" ]; then\n"
                "  touch \"$spec.mark\"\n"
                "  echo 'injected failure' >&2\n"
                "  exit 3\nfi\n";
    }
    body += "echo 'scenario,variant,trial,seed,metric,value'\n"
            "echo \"t,v,0,1,m,1\"\n";
    writeFile(script, body);
    fs::permissions(script, fs::perms::owner_all |
                                fs::perms::group_read |
                                fs::perms::others_read);
    return script;
}

fs::path
executorCampaign(const std::string &name)
{
    const fs::path dir = scratchDir(name);
    fs::create_directories(dir / "shards");
    fs::create_directories(dir / "csv");
    fs::create_directories(dir / "logs");
    Manifest m = sampleManifest();
    for (const Shard &s : m.shards)
        writeFile(dir / s.spec, "{}"); // fake bench never reads it
    saveManifest(dir.string(), m);
    return dir;
}

TEST(Exec, RetriesFailuresJournalsAndResumes)
{
    const fs::path dir = executorCampaign("exec");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/true);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.workers = 2;
    request.maxAttempts = 2;
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.executed, 2);
    EXPECT_EQ(stats.failed, 0);

    Manifest m = loadManifest(dir.string());
    for (const Shard &s : m.shards) {
        EXPECT_EQ(s.status, ShardStatus::Done);
        EXPECT_EQ(s.attempts, 2); // one failure + one success each
        EXPECT_EQ(s.exitCode, 0);
        // The child's streams landed in the journaled locations.
        EXPECT_NE(readFile(dir / s.csv).find("t,v,0,1,m,1"),
                  std::string::npos);
    }

    // Resume: nothing pending, nothing re-executed.
    ExecStats again;
    std::ostringstream diag2;
    ASSERT_EQ(runCampaign(request, again, diag2), "");
    EXPECT_EQ(again.executed, 0);
    EXPECT_EQ(again.skipped, 2);
}

TEST(Exec, AttemptBudgetParksShardsAsFailed)
{
    const fs::path dir = executorCampaign("exec_fail");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/true);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.maxAttempts = 1; // no retries
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.executed, 0);
    EXPECT_EQ(stats.failed, 2);
    Manifest m = loadManifest(dir.string());
    EXPECT_EQ(m.shards[0].status, ShardStatus::Failed);
    EXPECT_EQ(m.shards[0].exitCode, 3);
    EXPECT_NE(readFile(dir / m.shards[0].log).find("injected"),
              std::string::npos);

    // A raised attempt budget re-opens the parked shards.
    request.maxAttempts = 2;
    ExecStats retry;
    std::ostringstream diag2;
    ASSERT_EQ(runCampaign(request, retry, diag2), "");
    EXPECT_EQ(retry.executed, 2);
    EXPECT_TRUE(campaignComplete(loadManifest(dir.string())));
}

TEST(Exec, MaxShardsLimitsThisInvocation)
{
    const fs::path dir = executorCampaign("exec_partial");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/false);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.maxShards = 1;
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.remaining, 1);

    // An interrupted campaign journals `running`; a fresh executor
    // re-queues it without burning an attempt.
    Manifest m = loadManifest(dir.string());
    m.shards[1].status = ShardStatus::Running;
    saveManifest(dir.string(), m);
    request.maxShards = 0;
    ExecStats resume;
    std::ostringstream diag2;
    ASSERT_EQ(runCampaign(request, resume, diag2), "");
    EXPECT_EQ(resume.executed, 1);
    EXPECT_EQ(resume.skipped, 1);
    EXPECT_TRUE(campaignComplete(loadManifest(dir.string())));
    EXPECT_EQ(loadManifest(dir.string()).shards[1].attempts, 1);
}

TEST(Exec, OnlyFilterRunsExactlyTheNamedShards)
{
    const fs::path dir = executorCampaign("exec_only");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/false);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.only = {"t.s1"};
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.remaining, 1); // the non-selected shard

    Manifest m = loadManifest(dir.string());
    EXPECT_EQ(m.shards[0].status, ShardStatus::Pending);
    EXPECT_EQ(m.shards[0].attempts, 0);
    EXPECT_EQ(m.shards[1].status, ShardStatus::Done);

    // The other host's slice: a second run with the complementary
    // --only set finishes the campaign.
    request.only = {"t.s0"};
    ExecStats rest;
    std::ostringstream diag2;
    ASSERT_EQ(runCampaign(request, rest, diag2), "");
    EXPECT_EQ(rest.executed, 1);
    EXPECT_EQ(rest.skipped, 1);
    EXPECT_TRUE(campaignComplete(loadManifest(dir.string())));
}

TEST(Exec, OnlyFilterLeavesNonSelectedJournalStateAlone)
{
    const fs::path dir = executorCampaign("exec_only_state");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/false);

    // A peer host owns shard 0 and is mid-flight (`running`); this
    // host must not "recover" it.
    Manifest m = loadManifest(dir.string());
    m.shards[0].status = ShardStatus::Running;
    saveManifest(dir.string(), m);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.only = {"t.s1"};
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(loadManifest(dir.string()).shards[0].status,
              ShardStatus::Running);
}

TEST(Exec, OnlyFilterRejectsUnknownShardIds)
{
    const fs::path dir = executorCampaign("exec_only_bad");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/false);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.only = {"t.s1", "t.s9"};
    ExecStats stats;
    std::ostringstream diag;
    const std::string error = runCampaign(request, stats, diag);
    EXPECT_NE(error.find("unknown shard id 't.s9'"),
              std::string::npos);
    // Hard error: nothing ran, nothing was journaled.
    EXPECT_EQ(stats.executed, 0);
    EXPECT_EQ(loadManifest(dir.string()).shards[1].status,
              ShardStatus::Pending);
}

TEST(Exec, MissingBenchIsAnInfrastructureError)
{
    const fs::path dir = executorCampaign("exec_nobench");
    ExecRequest request;
    request.dir = dir.string();
    request.bench = (dir / "no_such_bench").string();
    ExecStats stats;
    std::ostringstream diag;
    EXPECT_NE(runCampaign(request, stats, diag)
                  .find("cannot execute bench"),
              std::string::npos);
}

TEST(Exec, DistinguishesChildSetupFailuresFromBenchFailures)
{
    // Setup failure: the shard CSV points into a directory that does
    // not exist, so the child's open() fails before exec (exit 126).
    const fs::path dir = executorCampaign("exec_setup");
    const fs::path bench = writeFakeBench(dir, /*failFirst=*/false);
    Manifest m = loadManifest(dir.string());
    m.shards[0].csv = "csv/no_such_dir/t.s0.csv";
    saveManifest(dir.string(), m);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.maxAttempts = 1;
    request.forensics = false;
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(loadManifest(dir.string()).shards[0].exitCode, 126);
    EXPECT_NE(diag.str().find("child setup failed"),
              std::string::npos);

    // Exec failure: an executable file that is not actually runnable
    // (no shebang, not an ELF) makes execv fail (exit 127) — distinct
    // from the bench itself exiting non-zero.
    const fs::path dir2 = executorCampaign("exec_noexec");
    const fs::path junk = dir2 / "junk_bench";
    writeFile(junk, "this is not a program\n");
    fs::permissions(junk, fs::perms::owner_all);
    request.dir = dir2.string();
    request.bench = junk.string();
    ExecStats stats2;
    std::ostringstream diag2;
    ASSERT_EQ(runCampaign(request, stats2, diag2), "");
    EXPECT_EQ(stats2.failed, 2);
    EXPECT_EQ(loadManifest(dir2.string()).shards[0].exitCode, 127);
    EXPECT_NE(diag2.str().find("cannot exec the bench binary"),
              std::string::npos);
}

// --- failure bundles (c4bundle/1) -------------------------------------

BundleManifest
sampleBundle()
{
    BundleManifest b;
    b.shard = "t.s1";
    b.scenario = "t";
    b.trialBegin = 2;
    b.trialCount = 2;
    b.attempts = 2;
    b.exitCode = 1;
    b.forensicExit = 1;
    b.traces = {"trace/t/v0_a.t2.jsonl", "trace/t/v0_a.t3.jsonl"};
    b.metrics = {"metrics/t/v0_a.t2.jsonl"};
    return b;
}

TEST(Bundle, RoundTripsByteStably)
{
    const std::string once = writeBundleManifest(sampleBundle());
    EXPECT_NE(once.find("\"schema\": \"c4bundle/1\""),
              std::string::npos);
    const BundleManifest reloaded = parseBundleManifest(once);
    EXPECT_EQ(writeBundleManifest(reloaded), once);
    EXPECT_EQ(reloaded.shard, "t.s1");
    EXPECT_EQ(reloaded.trialBegin, 2);
    EXPECT_EQ(reloaded.forensicExit, 1);
    ASSERT_EQ(reloaded.traces.size(), 2u);
    EXPECT_EQ(reloaded.traces[1], "trace/t/v0_a.t3.jsonl");
}

TEST(Bundle, ParserIsStrict)
{
    const std::string good = writeBundleManifest(sampleBundle());

    // Unknown keys are rejected, not ignored.
    std::string extra = good;
    extra.insert(extra.find("\"shard\""), "\"surprise\": 1,\n  ");
    EXPECT_THROW(parseBundleManifest(extra), std::runtime_error);

    // Wrong schema tag.
    std::string wrong = good;
    wrong.replace(wrong.find("c4bundle/1"), 10, "c4bundle/9");
    EXPECT_THROW(parseBundleManifest(wrong), std::runtime_error);

    // Missing keys and type confusion.
    EXPECT_THROW(parseBundleManifest("{}"), std::runtime_error);
    EXPECT_THROW(parseBundleManifest("[]"), std::runtime_error);
    std::string mistyped = good;
    mistyped.replace(mistyped.find("\"attempts\": 2"), 13,
                     "\"attempts\": \"2\"");
    EXPECT_THROW(parseBundleManifest(mistyped), std::runtime_error);

    // Integers outside int32 are errors, not silent narrowings.
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"trial_begin\": 2", "\"trial_begin\": 4294967298"},
             {"\"exit_code\": 1", "\"exit_code\": 4294967297"},
             {"\"forensic_exit\": 1",
              "\"forensic_exit\": -2147483649"}}) {
        std::string wide = good;
        wide.replace(wide.find(from), from.size(), to);
        try {
            parseBundleManifest(wide);
            ADD_FAILURE() << to << " accepted";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("bundle: line ", 0), 0u) << what;
            EXPECT_NE(what.find("out of integer range"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Bundle, EveryBytePrefixParsesOrThrowsWithALineNumber)
{
    // A truncated bundle.json or manifest.json (torn copy, dying
    // disk) must always be a diagnosable error: for every proper byte
    // prefix the parser either reports the malformed JSON with its
    // line number, or — if the prefix happens to be complete JSON
    // (the document minus trailing whitespace) — yields the same
    // document back.
    const auto check = [](const std::string &full, auto parse,
                          auto write) {
        for (std::size_t n = 0; n < full.size(); ++n) {
            const std::string prefix = full.substr(0, n);
            try {
                EXPECT_EQ(write(parse(prefix)), full)
                    << "prefix of " << n << " bytes parsed differently";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("line"),
                          std::string::npos)
                    << "prefix of " << n
                    << " bytes threw without a line number: "
                    << e.what();
            }
        }
    };
    check(writeBundleManifest(sampleBundle()), parseBundleManifest,
          writeBundleManifest);
    check(writeManifest(sampleManifest()), parseManifest, writeManifest);
}

TEST(Bundle, ExecutorCutsABundleWhenTheBudgetIsExhausted)
{
    const fs::path dir = executorCampaign("bundle_cut");
    // A bench that fails every time, so the forensic re-run records
    // the same failure (exit 3) the campaign parked the shard for.
    const fs::path bench = dir / "fail_bench.sh";
    writeFile(bench, "#!/bin/sh\necho boom >&2\nexit 3\n");
    fs::permissions(bench, fs::perms::owner_all |
                               fs::perms::group_read |
                               fs::perms::others_read);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.maxAttempts = 1;
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.failed, 2);
    EXPECT_EQ(stats.bundles, 2);

    ASSERT_TRUE(bundleExists(dir.string(), "t.s0"));
    const BundleManifest b = loadBundleManifest(
        campaignPath(dir.string(), bundleDir("t.s0") + "/bundle.json"));
    EXPECT_EQ(b.shard, "t.s0");
    EXPECT_EQ(b.scenario, "t");
    EXPECT_EQ(b.attempts, 1);
    EXPECT_EQ(b.exitCode, 3);
    EXPECT_EQ(b.forensicExit, 3);
    EXPECT_TRUE(b.traces.empty()); // the fake bench writes no traces
    EXPECT_NE(readFile(dir / bundleDir("t.s0") / "stderr.log")
                  .find("boom"),
              std::string::npos);
    // The spec traveled into the bundle.
    EXPECT_TRUE(fs::exists(dir / bundleDir("t.s0") / "shard.json"));

    // The report renders the bundle (no traces -> no verdict lines).
    std::ostringstream report;
    ASSERT_EQ(forensicsReport(dir.string(),
                              loadManifest(dir.string()), report),
              "");
    EXPECT_NE(report.str().find("== t.s0"), std::string::npos);
    EXPECT_NE(report.str().find("no traces captured"),
              std::string::npos);
}

TEST(Bundle, NoForensicsOptsOut)
{
    const fs::path dir = executorCampaign("bundle_off");
    const fs::path bench = dir / "fail_bench.sh";
    writeFile(bench, "#!/bin/sh\nexit 3\n");
    fs::permissions(bench, fs::perms::owner_all);

    ExecRequest request;
    request.dir = dir.string();
    request.bench = bench.string();
    request.maxAttempts = 1;
    request.forensics = false;
    ExecStats stats;
    std::ostringstream diag;
    ASSERT_EQ(runCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.failed, 2);
    EXPECT_EQ(stats.bundles, 0);
    EXPECT_FALSE(fs::exists(dir / "forensics"));

    std::ostringstream report;
    ASSERT_EQ(forensicsReport(dir.string(),
                              loadManifest(dir.string()), report),
              "");
    EXPECT_NE(report.str().find("no failure bundles"),
              std::string::npos);
}

// --- multi-host collection --------------------------------------------

/** Copy a whole campaign directory, as `cp -r` to a host would. */
fs::path
copyCampaign(const fs::path &from, const std::string &name)
{
    const fs::path to = scratchDir(name);
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
    return to;
}

/** Mark one shard done in @p dir's journal and write its CSV. */
void
finishShard(const fs::path &dir, std::size_t index,
            const std::string &csv, int attempts = 1)
{
    Manifest m = loadManifest(dir.string());
    m.shards[index].status = ShardStatus::Done;
    m.shards[index].attempts = attempts;
    m.shards[index].exitCode = 0;
    saveManifest(dir.string(), m);
    writeFile(dir / m.shards[index].csv, csv);
    writeFile(dir / m.shards[index].log, "finished\n");
}

TEST(Collect, DisjointOnlySetsUnionCleanly)
{
    const fs::path primary = executorCampaign("collect_union");
    const fs::path hostA = copyCampaign(primary, "collect_union_a");
    const fs::path hostB = copyCampaign(primary, "collect_union_b");
    finishShard(hostA, 0, "h,h\na,0\n");
    finishShard(hostB, 1, "h,h\nb,1\n");

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string(), hostB.string()};
    CollectStats stats;
    std::ostringstream diag;
    ASSERT_EQ(collectCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.adopted, 2);
    EXPECT_EQ(stats.deduped, 0);
    EXPECT_EQ(stats.failures, 0);

    const Manifest m = loadManifest(primary.string());
    EXPECT_EQ(m.shards[0].status, ShardStatus::Done);
    EXPECT_EQ(m.shards[1].status, ShardStatus::Done);
    EXPECT_EQ(readFile(primary / m.shards[0].csv), "h,h\na,0\n");
    EXPECT_EQ(readFile(primary / m.shards[1].csv), "h,h\nb,1\n");
    EXPECT_TRUE(campaignComplete(m));
}

TEST(Collect, IdenticalDoneOnBothHostsDedupes)
{
    const fs::path primary = executorCampaign("collect_dedup");
    const fs::path hostA = copyCampaign(primary, "collect_dedup_a");
    const fs::path hostB = copyCampaign(primary, "collect_dedup_b");
    finishShard(hostA, 0, "h,h\nsame,0\n");
    finishShard(hostB, 0, "h,h\nsame,0\n"); // identical bytes
    finishShard(hostB, 1, "h,h\nb,1\n");

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string(), hostB.string()};
    CollectStats stats;
    std::ostringstream diag;
    ASSERT_EQ(collectCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.adopted, 2); // s0 from A, s1 from B
    EXPECT_EQ(stats.deduped, 1); // s0 on B matched byte-for-byte
    EXPECT_TRUE(campaignComplete(loadManifest(primary.string())));
}

TEST(Collect, DivergentDoneBytesAreAHardError)
{
    const fs::path primary = executorCampaign("collect_diverge");
    const fs::path hostA = copyCampaign(primary, "collect_diverge_a");
    const fs::path hostB = copyCampaign(primary, "collect_diverge_b");
    finishShard(hostA, 0, "h,h\nversion,1\n");
    finishShard(hostB, 0, "h,h\nversion,2\n");

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string(), hostB.string()};
    CollectStats stats;
    std::ostringstream diag;
    const std::string error = collectCampaign(request, stats, diag);
    EXPECT_NE(error.find("t.s0"), std::string::npos);
    EXPECT_NE(error.find("divergent"), std::string::npos);
    // Hard error: the primary journal and files are untouched.
    const Manifest m = loadManifest(primary.string());
    EXPECT_EQ(m.shards[0].status, ShardStatus::Pending);
    EXPECT_FALSE(fs::exists(primary / m.shards[0].csv));
}

TEST(Collect, RunningHostIsRefusedWithAResumeHint)
{
    const fs::path primary = executorCampaign("collect_running");
    const fs::path hostA = copyCampaign(primary, "collect_running_a");
    finishShard(hostA, 0, "h,h\na,0\n");
    Manifest m = loadManifest(hostA.string());
    m.shards[1].status = ShardStatus::Running;
    saveManifest(hostA.string(), m);

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string()};
    CollectStats stats;
    std::ostringstream diag;
    const std::string error = collectCampaign(request, stats, diag);
    EXPECT_NE(error.find("t.s1"), std::string::npos);
    EXPECT_NE(error.find("running"), std::string::npos);
    EXPECT_NE(error.find(hostA.string()), std::string::npos);
    EXPECT_NE(error.find("resume"), std::string::npos);
    // Nothing was adopted, s0 included.
    EXPECT_EQ(loadManifest(primary.string()).shards[0].status,
              ShardStatus::Pending);

    // The primary being mid-run is refused the same way.
    Manifest p = loadManifest(primary.string());
    p.shards[0].status = ShardStatus::Running;
    saveManifest(primary.string(), p);
    m.shards[1].status = ShardStatus::Pending;
    saveManifest(hostA.string(), m);
    CollectStats stats2;
    const std::string error2 = collectCampaign(request, stats2, diag);
    EXPECT_NE(error2.find("primary"), std::string::npos);
    EXPECT_NE(error2.find("resume"), std::string::npos);
}

TEST(Collect, FailedBeatsPendingAndCarriesTheBundle)
{
    const fs::path primary = executorCampaign("collect_failed");
    const fs::path hostA = copyCampaign(primary, "collect_failed_a");
    Manifest m = loadManifest(hostA.string());
    m.shards[0].status = ShardStatus::Failed;
    m.shards[0].attempts = 2;
    m.shards[0].exitCode = 3;
    saveManifest(hostA.string(), m);
    writeFile(hostA / m.shards[0].log, "boom\n");
    // The host's executor cut a bundle when it parked the shard.
    fs::create_directories(hostA / bundleDir("t.s0"));
    BundleManifest b;
    b.shard = "t.s0";
    b.scenario = "t";
    b.trialBegin = 0;
    b.trialCount = 2;
    b.attempts = 2;
    b.exitCode = 3;
    b.forensicExit = 3;
    writeFile(hostA / bundleDir("t.s0") / "bundle.json",
              writeBundleManifest(b));

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string()};
    CollectStats stats;
    std::ostringstream diag;
    ASSERT_EQ(collectCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.adopted, 1);
    EXPECT_EQ(stats.failures, 1);
    EXPECT_EQ(stats.bundles, 1);
    const Manifest merged = loadManifest(primary.string());
    EXPECT_EQ(merged.shards[0].status, ShardStatus::Failed);
    EXPECT_EQ(merged.shards[0].attempts, 2);
    EXPECT_EQ(merged.shards[0].exitCode, 3);
    EXPECT_TRUE(bundleExists(primary.string(), "t.s0"));
    EXPECT_NE(readFile(primary / merged.shards[0].log).find("boom"),
              std::string::npos);
}

TEST(Collect, OnlyRestrictsAndValidatesShardIds)
{
    const fs::path primary = executorCampaign("collect_only");
    const fs::path hostA = copyCampaign(primary, "collect_only_a");
    finishShard(hostA, 0, "h,h\na,0\n");
    finishShard(hostA, 1, "h,h\nb,1\n");

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string()};
    request.only = {"t.s0"};
    CollectStats stats;
    std::ostringstream diag;
    ASSERT_EQ(collectCampaign(request, stats, diag), "");
    EXPECT_EQ(stats.adopted, 1);
    EXPECT_EQ(stats.untouched, 1);
    const Manifest m = loadManifest(primary.string());
    EXPECT_EQ(m.shards[0].status, ShardStatus::Done);
    EXPECT_EQ(m.shards[1].status, ShardStatus::Pending);

    request.only = {"t.s9"};
    CollectStats stats2;
    EXPECT_NE(collectCampaign(request, stats2, diag)
                  .find("unknown shard id 't.s9'"),
              std::string::npos);
}

TEST(Collect, RejectsAStructurallyDifferentCampaign)
{
    const fs::path primary = executorCampaign("collect_mismatch");
    const fs::path hostA =
        copyCampaign(primary, "collect_mismatch_a");
    Manifest m = loadManifest(hostA.string());
    m.shards[1].trialBegin = 3; // not the same planned campaign
    saveManifest(hostA.string(), m);

    CollectRequest request;
    request.dir = primary.string();
    request.hosts = {hostA.string()};
    CollectStats stats;
    std::ostringstream diag;
    const std::string error = collectCampaign(request, stats, diag);
    EXPECT_NE(error.find("not a copy"), std::string::npos);
    EXPECT_NE(error.find("t.s1"), std::string::npos);
}

// --- merger -----------------------------------------------------------

/** A hand-built two-shard campaign whose merge result is known. */
fs::path
mergeCampaignDir(const std::string &name)
{
    const fs::path dir = scratchDir(name);
    fs::create_directories(dir / "shards");
    fs::create_directories(dir / "csv");
    fs::create_directories(dir / "logs");

    Manifest m = sampleManifest();
    for (Shard &s : m.shards) {
        s.status = ShardStatus::Done;
        s.attempts = 1;
    }
    saveManifest(dir.string(), m);

    // Shard specs carry the variant order ("a" then "b").
    specio::SpecFile file;
    file.name = "t";
    file.fullTrials = 4;
    file.smokeTrials = 4;
    ScenarioSpec a, b;
    a.variant = "a";
    b.variant = "b";
    file.variants = {a, b};
    file.trialBegin = 0;
    file.trialCount = 2;
    writeFile(dir / "shards/t.s0.json", specio::writeSpecFile(file));
    file.trialBegin = 2;
    writeFile(dir / "shards/t.s1.json", specio::writeSpecFile(file));

    const std::string header =
        "scenario,variant,trial,seed,metric,value\n";
    writeFile(dir / "csv/t.s0.csv", header +
                                        "t,a,0,9,m,1\n"
                                        "t,a,1,9,m,2\n"
                                        "t,b,0,9,m,3\n"
                                        "t,b,1,9,m,4\n");
    writeFile(dir / "csv/t.s1.csv", header +
                                        "t,a,2,9,m,5\n"
                                        "t,a,3,9,m,6\n"
                                        "t,b,2,9,m,7\n"
                                        "t,b,3,9,m,8\n");
    return dir;
}

TEST(Merge, InterleavesVariantMajorAcrossShards)
{
    const fs::path dir = mergeCampaignDir("merge");
    const fs::path out = dir / "merged.csv";
    std::ostringstream diag;
    ASSERT_EQ(mergeCampaign(dir.string(), out.string(), diag), "");
    EXPECT_EQ(readFile(out),
              "scenario,variant,trial,seed,metric,value\n"
              "t,a,0,9,m,1\n"
              "t,a,1,9,m,2\n"
              "t,a,2,9,m,5\n"
              "t,a,3,9,m,6\n"
              "t,b,0,9,m,3\n"
              "t,b,1,9,m,4\n"
              "t,b,2,9,m,7\n"
              "t,b,3,9,m,8\n");
}

TEST(Merge, RefusesIncompleteOverlappingOrMismatchedShards)
{
    std::ostringstream diag;

    // A shard still pending.
    fs::path dir = mergeCampaignDir("merge_pending");
    Manifest m = loadManifest(dir.string());
    m.shards[1].status = ShardStatus::Pending;
    saveManifest(dir.string(), m);
    EXPECT_NE(mergeCampaign(dir.string(), "-", diag)
                  .find("is pending"),
              std::string::npos);

    // Overlapping trial ranges.
    dir = mergeCampaignDir("merge_overlap");
    m = loadManifest(dir.string());
    m.shards[1].trialBegin = 1;
    saveManifest(dir.string(), m);
    EXPECT_NE(mergeCampaign(dir.string(), "-", diag).find("overlap"),
              std::string::npos);

    // A gap in coverage.
    dir = mergeCampaignDir("merge_gap");
    m = loadManifest(dir.string());
    m.shards[1].trialBegin = 3;
    m.shards[1].trialCount = 1;
    saveManifest(dir.string(), m);
    EXPECT_NE(mergeCampaign(dir.string(), "-", diag).find("covers"),
              std::string::npos);

    // Header drift between shards.
    dir = mergeCampaignDir("merge_header");
    writeFile(dir / "csv/t.s1.csv",
              "scenario,variant,trial,metric,value\nt,a,2,m,5\n");
    EXPECT_NE(
        mergeCampaign(dir.string(), "-", diag).find("header"),
        std::string::npos);

    // A row naming a variant the spec does not know.
    dir = mergeCampaignDir("merge_variant");
    writeFile(dir / "csv/t.s1.csv",
              "scenario,variant,trial,seed,metric,value\n"
              "t,zzz,2,9,m,5\n");
    EXPECT_NE(mergeCampaign(dir.string(), "-", diag)
                  .find("unknown variant"),
              std::string::npos);
}

} // namespace
} // namespace c4::sweep
