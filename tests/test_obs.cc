/**
 * @file
 * Live-metrics subsystem: the zero-overhead detached scope, registry
 * kind discipline and registration-order determinism, byte-stable
 * c4metrics/1 snapshot round-trips, the DOM-free codec against its
 * DOM reference (tests/jsonl_reference.h), prefix-fuzz hardening of the
 * parser over the committed golden, snapshot byte-equality across
 * runner thread counts, CSV invariance with metrics enabled, and
 * divergence detection in the diff analyzer. The end-to-end gate over
 * the real c4bench/c4trace binaries lives in cmake/obs_check.cmake
 * (ctest -L obs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "common/jsonl_files.h"
#include "jsonl_reference.h"
#include "obs/analyze.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/workload.h"
#include "trace/trace.h"

namespace c4::obs {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("c4_obs_test_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// --- registry / scope -------------------------------------------------

TEST(Scope, DetachedScopeIsANoOp)
{
    MetricsScope scope; // the zero-overhead default everywhere
    EXPECT_FALSE(scope.attached());
    scope.count("a");
    scope.set("b", 7);
    scope.gauge("c", 1.5);
    scope.observe("d", 2.5);
    EXPECT_EQ(scope.registry(), nullptr);
}

TEST(Registry, SamplesCarryEachKindsStateInRegistrationOrder)
{
    MetricRegistry reg;
    MetricsScope scope(&reg);
    ASSERT_TRUE(scope.attached());

    scope.count("events", 3);
    scope.gauge("pending", 12.0);
    for (int i = 1; i <= 4; ++i)
        scope.observe("depth", static_cast<double>(i));
    scope.count("events"); // default delta 1
    reg.snapshot(1000);

    ASSERT_EQ(reg.metricCount(), 3u);
    const std::vector<Sample> &s = reg.samples();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].name, "events");
    EXPECT_EQ(s[0].kind, MetricKind::Counter);
    EXPECT_EQ(s[0].count, 4);
    EXPECT_EQ(s[1].name, "pending");
    EXPECT_EQ(s[1].kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(s[1].value, 12.0);
    EXPECT_EQ(s[2].name, "depth");
    EXPECT_EQ(s[2].kind, MetricKind::Window);
    EXPECT_EQ(s[2].count, 4);
    EXPECT_DOUBLE_EQ(s[2].min, 1.0);
    EXPECT_DOUBLE_EQ(s[2].max, 4.0);
    for (const Sample &sample : s)
        EXPECT_EQ(sample.when, 1000);

    // setCounter overrides the accumulated total.
    scope.set("events", 100);
    reg.snapshot(2000);
    ASSERT_EQ(reg.samples().size(), 6u);
    EXPECT_EQ(reg.samples()[3].count, 100);
}

TEST(Registry, ReusingANameWithADifferentKindThrows)
{
    MetricRegistry reg;
    reg.addCounter("x");
    EXPECT_THROW(reg.setGauge("x", 1.0), std::logic_error);
    EXPECT_THROW(reg.observe("x", 1.0), std::logic_error);
    reg.addCounter("x"); // same kind stays fine
}

TEST(Registry, NamesAreViewsCopiedOnlyAtFirstTouch)
{
    // Views that are not NUL-terminated: prefixes of one longer buffer.
    const std::string buffer = "fabric.recompute_ops_and_more";
    const std::string_view ops(buffer.data(), 20);  // fabric.recompute_ops
    const std::string_view fab(buffer.data(), 6);   // fabric
    MetricRegistry reg;
    MetricsScope scope(&reg);
    scope.count(ops, 2);
    scope.gauge(fab, 0.5);
    reg.addCounter(std::string("fabric.recompute_ops"), 3); // same metric
    scope.observe("fabric.recompute", 1.0);
    reg.snapshot(7);

    ASSERT_EQ(reg.metricCount(), 3u);
    const std::vector<Sample> &s = reg.samples();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].name, "fabric.recompute_ops"); // first-touch order
    EXPECT_EQ(s[0].count, 5);
    EXPECT_EQ(s[1].name, "fabric");
    EXPECT_DOUBLE_EQ(s[1].value, 0.5);
    EXPECT_EQ(s[2].name, "fabric.recompute");
    EXPECT_EQ(s[2].kind, MetricKind::Window);

    // A kind mismatch through a view still names exactly the metric.
    try {
        scope.observe(ops, 1.0);
        FAIL() << "kind mismatch did not throw";
    } catch (const std::logic_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "metric 'fabric.recompute_ops' registered as counter, "
                  "touched as window");
    }
}

TEST(KindNames, RoundTrip)
{
    for (MetricKind kind : {MetricKind::Counter, MetricKind::Gauge,
                            MetricKind::Window}) {
        MetricKind back;
        ASSERT_TRUE(kindFromName(kindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    MetricKind out;
    EXPECT_FALSE(kindFromName("bogus", out));
}

// --- JSONL round-trip -------------------------------------------------

std::vector<Sample>
mixedSamples()
{
    std::vector<Sample> samples;
    Sample counter;
    counter.when = 1000000000;
    counter.name = "fabric.recomputes";
    counter.kind = MetricKind::Counter;
    counter.count = 42;
    samples.push_back(counter);
    Sample gauge;
    gauge.when = 1000000000;
    gauge.name = "sim.pending";
    gauge.kind = MetricKind::Gauge;
    gauge.value = 17.25;
    samples.push_back(gauge);
    Sample window;
    window.when = 2000000000;
    window.name = "sim.depth";
    window.kind = MetricKind::Window;
    window.count = 9;
    window.min = 0.5;
    window.p50 = 2.0;
    window.p90 = 4.5;
    window.p99 = 4.9;
    window.max = 5.0;
    samples.push_back(window);
    return samples;
}

TEST(Jsonl, RoundTripsEveryFieldByteStably)
{
    SnapshotMeta meta;
    meta.scenario = "fig9_dualport";
    meta.variant = "2:1 oversub";
    meta.trial = 3;
    meta.periodNs = 1000000000;

    const std::string text = writeSnapshot(meta, mixedSamples());
    SnapshotMeta meta2;
    std::vector<Sample> samples2;
    parseSnapshot(text, meta2, samples2);
    EXPECT_EQ(meta2, meta);
    ASSERT_EQ(samples2.size(), 3u);
    EXPECT_EQ(samples2, mixedSamples());
    // Byte-stable: write -> parse -> write is the identity.
    EXPECT_EQ(writeSnapshot(meta2, samples2), text);
}

TEST(Jsonl, EverySnapshotStartsWithItsSchemaKey)
{
    // c4trace routes files by this test; a default-valued header and
    // the committed golden both pass, a trace record and a header
    // with its keys in another order do not.
    EXPECT_TRUE(isSnapshotText(writeSnapshot(SnapshotMeta{}, {})));
    EXPECT_TRUE(isSnapshotText(readFile(C4_METRICS_GOLDEN)));
    EXPECT_FALSE(isSnapshotText("{\"t\":1,\"k\":\"fault_injected\"}\n"));
    EXPECT_FALSE(isSnapshotText("{\"scenario\":\"s\",\"schema\":"));
    EXPECT_FALSE(isSnapshotText(""));
}

TEST(Jsonl, ZeroFieldsAreOmittedFromTheRecord)
{
    Sample s;
    s.when = 5;
    s.name = "a";
    s.kind = MetricKind::Counter;
    EXPECT_EQ(sampleToJsonLine(s),
              "{\"t\":5,\"n\":\"a\",\"k\":\"counter\"}");
}

TEST(Jsonl, RejectsMalformedAndUnknownRecords)
{
    SnapshotMeta meta;
    std::vector<Sample> samples;
    const std::string header =
        metaToJsonLine(SnapshotMeta{}) + "\n";

    // Empty text is an empty snapshot; non-empty needs the header.
    parseSnapshot("", meta, samples);
    EXPECT_TRUE(samples.empty());
    EXPECT_THROW(
        parseSnapshot("{\"t\":1,\"n\":\"a\",\"k\":\"counter\"}\n",
                      meta, samples),
        SpecError);

    // Unknown schema tag.
    EXPECT_THROW(parseSnapshot("{\"schema\":\"c4metrics/9\"}\n", meta,
                               samples),
                 SpecError);
    // Missing required keys, unknown kind, unknown key, non-JSON.
    EXPECT_THROW(parseSnapshot(header + "{\"t\":1}\n", meta, samples),
                 SpecError);
    EXPECT_THROW(
        parseSnapshot(header +
                          "{\"t\":1,\"n\":\"a\",\"k\":\"nope\"}\n",
                      meta, samples),
        SpecError);
    EXPECT_THROW(
        parseSnapshot(
            header +
                "{\"t\":1,\"n\":\"a\",\"k\":\"counter\",\"x\":2}\n",
            meta, samples),
        SpecError);
    EXPECT_THROW(parseSnapshot(header + "not json\n", meta, samples),
                 SpecError);
    // Truncated final line (no terminating newline).
    EXPECT_THROW(
        parseSnapshot(header +
                          "{\"t\":1,\"n\":\"a\",\"k\":\"counter\"}",
                      meta, samples),
        SpecError);
    // Errors carry the 1-based line number.
    try {
        parseSnapshot(header + "broken\n", meta, samples);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(Jsonl, RejectsTrialOutsideInt32)
{
    // Narrowing 4294967299 to 3 would break
    // writeSnapshot(parseSnapshot(text)) == text.
    SnapshotMeta meta;
    std::vector<Sample> samples;
    try {
        parseSnapshot("{\"schema\":\"c4metrics/1\",\"scenario\":\"s\","
                      "\"variant\":\"v\",\"trial\":4294967299,"
                      "\"period_ns\":0}\n",
                      meta, samples);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "record on line 1: line 1, column 62: \"trial\" is "
                     "outside the 32-bit integer range");
    }
}

// --- the codec against its DOM reference -----------------------------

/** What one parser made of one document. */
struct Outcome
{
    bool ok = false;
    SnapshotMeta meta;
    std::vector<Sample> samples;
    std::string error;
};

template <typename Parse>
Outcome
outcomeOf(Parse parse, const std::string &text)
{
    Outcome o;
    try {
        parse(text, o.meta, o.samples);
        o.ok = true;
    } catch (const SpecError &e) {
        o.error = e.what();
    }
    return o;
}

Outcome
scanned(const std::string &text)
{
    return outcomeOf(
        [](const std::string &t, SnapshotMeta &m,
           std::vector<Sample> &s) { parseSnapshot(t, m, s); },
        text);
}

Outcome
referenceParsed(const std::string &text)
{
    return outcomeOf(
        [](const std::string &t, SnapshotMeta &m,
           std::vector<Sample> &s) {
            reference::parseSnapshot(t, m, s);
        },
        text);
}

/** Parse @p text with the scanner and with the DOM reference; both
 * must accept the same snapshot or fail with the same message.
 * @return whether the document was accepted. */
bool
expectSameOutcome(const std::string &text)
{
    const Outcome scan = scanned(text);
    const Outcome dom = referenceParsed(text);
    EXPECT_EQ(scan.ok, dom.ok) << text;
    EXPECT_EQ(scan.error, dom.error) << text;
    if (scan.ok && dom.ok) {
        EXPECT_EQ(scan.meta, dom.meta) << text;
        EXPECT_EQ(scan.samples, dom.samples) << text;
    }
    return scan.ok;
}

Sample
randomSample(std::mt19937_64 &rng)
{
    Sample s;
    s.when = static_cast<Time>(rng() >> 1);
    s.name = reference::randomLabel(rng);
    s.kind = static_cast<MetricKind>(rng() % 3);
    s.count = reference::randomInt(rng);
    s.value = reference::randomDouble(rng);
    s.min = reference::randomDouble(rng);
    s.p50 = reference::randomDouble(rng);
    s.p90 = reference::randomDouble(rng);
    s.p99 = reference::randomDouble(rng);
    s.max = reference::randomDouble(rng);
    return s;
}

TEST(Jsonl, CodecMatchesTheDomReferenceOnGoldenAndRandomSnapshots)
{
    const std::string golden = readFile(C4_METRICS_GOLDEN);
    std::mt19937_64 rng(0x5A4D);
    SnapshotMeta meta;
    meta.scenario = reference::randomLabel(rng);
    meta.variant = reference::randomLabel(rng);
    meta.trial = -7;
    meta.periodNs = static_cast<Duration>(rng() >> 1);
    std::vector<Sample> samples;
    for (int i = 0; i < 5000; ++i)
        samples.push_back(randomSample(rng));

    SnapshotMeta goldenMeta;
    std::vector<Sample> goldenSamples;
    parseSnapshot(golden, goldenMeta, goldenSamples);
    EXPECT_EQ(writeSnapshot(goldenMeta, goldenSamples), golden);

    for (const auto &[m, s] :
         {std::pair(goldenMeta, goldenSamples), std::pair(meta, samples)}) {
        const std::string text = writeSnapshot(m, s);
        EXPECT_EQ(text, reference::writeSnapshot(m, s));
        const Outcome back = scanned(text);
        ASSERT_TRUE(back.ok) << back.error;
        EXPECT_EQ(back.meta, m);
        EXPECT_EQ(back.samples, s);
        EXPECT_TRUE(expectSameOutcome(text));
    }
}

TEST(Jsonl, ScannerMatchesTheDomReferenceOnMutatedRecords)
{
    std::mt19937_64 rng(0xBADC0DE);
    std::vector<std::string> samples;
    std::istringstream golden(readFile(C4_METRICS_GOLDEN));
    std::string header;
    std::getline(golden, header);
    for (std::string line; std::getline(golden, line);)
        samples.push_back(line);
    for (int i = 0; i < 300; ++i)
        samples.push_back(sampleToJsonLine(randomSample(rng)));

    std::vector<std::string> headers = {header};
    for (int i = 0; i < 20; ++i) {
        SnapshotMeta meta;
        meta.scenario = reference::randomLabel(rng);
        meta.variant = reference::randomLabel(rng);
        meta.trial = static_cast<int>(rng() % 100);
        meta.periodNs = static_cast<Duration>(rng() % 1000000000);
        headers.push_back(metaToJsonLine(meta));
    }

    std::size_t accepted = 0, rejected = 0;
    auto check = [&](const std::string &text) {
        (expectSameOutcome(text) ? accepted : rejected) += 1;
    };
    for (const std::string &sample : samples) {
        for (const std::string &mutant : reference::mutations(sample, rng))
            check(header + "\n" + mutant + "\n");
    }
    for (const std::string &h : headers) {
        for (const std::string &mutant : reference::mutations(h, rng))
            check(mutant + "\n" + samples.front() + "\n");
    }
    // The mutations reach both outcomes in bulk.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(Jsonl, ScannerReportsTheDomReferenceMessages)
{
    const std::string header = metaToJsonLine(SnapshotMeta{}) + "\n";
    const std::string sample =
        "{\"t\":1,\"n\":\"a\",\"k\":\"counter\"}\n";
    // {document, expected message}
    const std::vector<std::pair<std::string, std::string>> table = {
        {"{\"scenario\":\"s\"}\n",
         "record on line 1: line 1, column 1: snapshot header needs "
         "\"schema\""},
        {"{\"schema\":\"c4metrics/9\"}\n",
         "record on line 1: line 1, column 11: unknown snapshot schema "
         "\"c4metrics/9\" (expected \"c4metrics/1\")"},
        {"{\"schema\":1}\n",
         "record on line 1: line 1, column 11: \"schema\" must be a "
         "string"},
        {"{\"schema\":\"c4metrics/1\",\"bogus\":1}\n",
         "record on line 1: line 1, column 25: unknown snapshot header "
         "key \"bogus\""},
        {"{\"schema\":\"c4metrics/1\",\"trial\":\"3\"}\n",
         "record on line 1: line 1, column 33: \"trial\" must be an "
         "integer"},
        {"{\"schema\":\"c4metrics/1\",\"trial\":-2147483649}\n",
         "record on line 1: line 1, column 33: \"trial\" is outside the "
         "32-bit integer range"},
        {"{\"schema\":\"c4metrics/1\",\"period_ns\":1e3}\n",
         "record on line 1: line 1, column 37: \"period_ns\" must be an "
         "integer"},
        {"\"x\"\n",
         "record on line 1: line 1, column 1: snapshot header must be a "
         "JSON object"},
        // A syntax error anywhere beats an earlier binding error.
        {"{\"schema\":1,\"bogus\"}\n",
         "record on line 1: line 1, column 20: expected ':' after "
         "object key, found '}'"},
        {header + "{\"t\":1}\n",
         "record on line 2: line 1, column 1: metric record needs "
         "\"t\", \"n\", and \"k\""},
        {header + "{\"t\":1,\"n\":\"a\",\"k\":\"nope\"}\n",
         "record on line 2: line 1, column 20: \"k\" must name a known "
         "metric kind"},
        {header + "{\"t\":1,\"n\":\"a\",\"k\":\"counter\",\"x\":2}\n",
         "record on line 2: line 1, column 30: unknown metric record "
         "key \"x\""},
        {header + "{\"t\":1,\"n\":2,\"k\":\"counter\"}\n",
         "record on line 2: line 1, column 12: \"n\" must be a string"},
        {header + "{\"t\":1,\"n\":\"a\",\"k\":\"counter\",\"c\":1.5}\n",
         "record on line 2: line 1, column 34: \"c\" must be an integer"},
        {header + "{\"t\":1,\"n\":\"a\",\"k\":\"counter\",\"p99\":null}\n",
         "record on line 2: line 1, column 36: \"p99\" must be a number"},
        {header + "{\"t\":1,\"n\":\"a\",\"n\":\"b\",\"k\":\"counter\"}\n",
         "record on line 2: line 1, column 16: duplicate key \"n\""},
        {header + "[]\n",
         "record on line 2: line 1, column 1: metric record must be a "
         "JSON object"},
        {header + sample + "{\"t\":1,\"n\":\"a\",\"k\":\"gauge\"}",
         "record on line 3: truncated record (missing final newline; "
         "incomplete write?)"},
        {"\n\n", "snapshot has no c4metrics/1 header line"},
        {"\n \n", "record on line 2: line 1, column 2: unexpected end of "
                  "document; expected a value"},
    };
    for (const auto &[text, what] : table) {
        EXPECT_EQ(scanned(text).error, what) << text;
        EXPECT_EQ(referenceParsed(text).error, what) << text;
    }
}

TEST(Jsonl, EveryPrefixOfTheCommittedGoldenParsesOrThrows)
{
    // Harden the reader against truncated writes: for the committed
    // fig9 golden snapshot, every byte-prefix must either parse
    // cleanly (prefix ends on a record boundary) or throw a
    // line-numbered SpecError — never crash, never silently return a
    // short-read record.
    const std::string text = readFile(C4_METRICS_GOLDEN);
    ASSERT_GT(text.size(), 500u);

    SnapshotMeta meta;
    std::vector<Sample> samples;
    parseSnapshot(text, meta, samples);
    const std::size_t fullCount = samples.size();
    ASSERT_GT(fullCount, 0u);

    std::size_t parsed = 0;
    for (std::size_t len = 0; len <= text.size(); ++len) {
        const std::string prefix = text.substr(0, len);
        const bool atBoundary = len == 0 || text[len - 1] == '\n';
        try {
            SnapshotMeta m;
            std::vector<Sample> s;
            parseSnapshot(prefix, m, s);
            ++parsed;
            EXPECT_TRUE(atBoundary)
                << "mid-line prefix of length " << len
                << " parsed as " << s.size() << " records";
        } catch (const SpecError &e) {
            EXPECT_FALSE(atBoundary)
                << "boundary prefix of length " << len
                << " rejected: " << e.what();
            EXPECT_NE(std::string(e.what()).find("line"),
                      std::string::npos)
                << "error at length " << len
                << " carries no line number: " << e.what();
        }
    }
    // Exactly the record boundaries parse: one per sample line, plus
    // the header line and the empty prefix.
    EXPECT_EQ(parsed, fullCount + 2);
}

// --- runner integration ----------------------------------------------

/** A tiny metered workload: seed-paired ECMP/C4P allreduces plus one
 * scheduled NIC degradation, so kernel, fabric, job, and c4d metrics
 * all appear. */
scenario::Scenario
meteredScenario(const char *name)
{
    auto variant = [](const char *label, bool c4p) {
        scenario::ScenarioSpec spec;
        spec.variant = label;
        spec.features.c4p = c4p;
        scenario::AllreduceGroupSpec g;
        g.tasks = 2;
        g.bytes = mib(16);
        g.iterations = 3;
        spec.allreduces.push_back(g);
        scenario::FaultSpec f;
        f.at = milliseconds(50);
        f.type = fault::FaultType::SlowNicTx;
        f.node = 0;
        f.nic = 0;
        f.severity = 0.5;
        spec.faults.push_back(f);
        return spec;
    };
    scenario::Scenario sc;
    sc.name = name;
    sc.title = "metered tiny";
    sc.fullTrials = 4;
    sc.smokeTrials = 4;
    sc.variants = [variant](const scenario::RunOptions &) {
        return std::vector<scenario::ScenarioSpec>{
            variant("ecmp", false), variant("c4p", true)};
    };
    return sc;
}

/** relative path -> file bytes for every file under @p root. */
std::map<std::string, std::string>
snapshotTree(const fs::path &root)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file()) {
            out[fs::relative(entry.path(), root).string()] =
                readFile(entry.path());
        }
    }
    return out;
}

scenario::RunOptions
meteredOptions(const fs::path &dir, int threads)
{
    scenario::RunOptions opt;
    opt.trials = 4;
    opt.threads = threads;
    opt.seed = 0xC4;
    opt.seedSet = true;
    opt.metricsDir = dir.string();
    // Well under the workload's simulated duration so several pump
    // ticks land before the final end-of-run sample.
    opt.metricsPeriod = milliseconds(10);
    return opt;
}

TEST(Runner, SnapshotsAreByteIdenticalAcrossThreadCounts)
{
    const scenario::Scenario sc = meteredScenario("obs_tiny");
    const fs::path d1 = scratchDir("threads1");
    const fs::path d4 = scratchDir("threads4");

    scenario::ScenarioRunner one(meteredOptions(d1, 1));
    ASSERT_EQ(one.run(sc), 0);
    scenario::ScenarioRunner four(meteredOptions(d4, 4));
    ASSERT_EQ(four.run(sc), 0);

    const auto t1 = snapshotTree(d1);
    const auto t4 = snapshotTree(d4);
    ASSERT_EQ(t1.size(), t4.size());
    // 2 variants x 4 trials of JSONL.
    EXPECT_EQ(t1.size(), 8u);
    std::size_t bytes = 0;
    for (const auto &[rel, text] : t1) {
        auto it = t4.find(rel);
        ASSERT_NE(it, t4.end()) << rel;
        EXPECT_EQ(text, it->second) << rel;
        bytes += text.size();
    }
    EXPECT_GT(bytes, 0u);

    // The snapshots really carry the expected instrumentation.
    const SnapshotFile sf = loadSnapshotFile(
        (d1 / "obs_tiny" / "v1_c4p.t0.jsonl").string());
    EXPECT_EQ(sf.meta.scenario, "obs_tiny");
    EXPECT_EQ(sf.meta.variant, "c4p");
    EXPECT_EQ(sf.meta.periodNs, milliseconds(10));
    bool sawKernel = false, sawFabric = false, sawJobs = false,
         sawWindow = false;
    for (const Sample &s : sf.samples) {
        sawKernel |= s.name == "sim.executed";
        sawFabric |= s.name == "fabric.recomputes";
        sawJobs |= s.name == "jobs.samples_per_sec";
        sawWindow |= s.kind == MetricKind::Window;
    }
    EXPECT_TRUE(sawKernel);
    EXPECT_TRUE(sawFabric);
    EXPECT_TRUE(sawJobs);
    EXPECT_TRUE(sawWindow);
    // More than one sampling tick fired over the run.
    EXPECT_GT(sf.samples.size(), 0u);
    EXPECT_NE(sf.samples.front().when, sf.samples.back().when);
}

TEST(Runner, CsvOutputIsUnchangedByMetrics)
{
    const scenario::Scenario sc = meteredScenario("obs_tiny_csv");

    auto runCsv = [&](scenario::RunOptions opt) {
        std::ostringstream out;
        scenario::CsvSink sink(out);
        scenario::ScenarioRunner runner(opt);
        runner.addSink(sink);
        EXPECT_EQ(runner.run(sc), 0);
        return out.str();
    };

    scenario::RunOptions plain;
    plain.trials = 2;
    plain.threads = 1;
    plain.seed = 0xC4;
    plain.seedSet = true;
    scenario::RunOptions metered = plain;
    metered.metricsDir = scratchDir("csv_invariance").string();

    const std::string without = runCsv(plain);
    EXPECT_EQ(runCsv(metered), without);
    EXPECT_FALSE(without.empty());
}

/**
 * The C4D metrics sink and the trace are handed the same events: a
 * crash that C4D restarts, a CNP sampler over an oversubscribed,
 * loaded fabric, and both a trace recorder and a registry attached.
 */
TEST(MetricsSink, CountsTheEventsTheTraceRecords)
{
    scenario::ScenarioSpec spec;
    spec.variant = "crash";
    scenario::JobSpec job;
    job.microbatchCompute = milliseconds(800);
    job.parallel = {.tp = 8, .pp = 1, .dp = 4};
    job.initTime = seconds(5);
    job.dpGroupsSimulated = 1;
    spec.jobs.push_back(job);
    spec.horizon = seconds(20);
    spec.features.c4d = true;
    spec.features.evaluatePeriod = seconds(2);
    spec.features.backupNodes = 2;
    spec.features.hangThreshold = seconds(5);
    spec.features.isolationDelay = seconds(2);
    spec.metrics.cnpSamplePeriod = milliseconds(500);
    spec.topology.oversubscription = 2.0;
    scenario::AllreduceGroupSpec load;
    load.tasks = 4;
    load.iterations = 100000;
    spec.allreduces.push_back(load);
    scenario::FaultSpec crash;
    crash.at = seconds(8);
    crash.type = fault::FaultType::EccError;
    crash.job = 1;
    crash.jobNodeIndex = 1;
    spec.faults.push_back(crash);

    scenario::RunOptions opt;
    scenario::TrialContext ctx(opt, 806, 0);
    trace::TraceRecorder recorder;
    MetricRegistry reg;
    ctx.tracer = &recorder;
    ctx.meter = &reg;
    scenario::runSpecTrial(spec, ctx);
    reg.snapshot(spec.horizon);

    std::int64_t restarts = 0, viaC4d = 0, cnpSamples = 0;
    double lastCnp = -1.0;
    for (const trace::Event &ev : recorder.events()) {
        if (ev.kind == trace::EventKind::SteeringDecision) {
            ++restarts;
            viaC4d += ev.b == 1 ? 1 : 0;
        } else if (ev.kind == trace::EventKind::CnpSample) {
            ++cnpSamples;
            lastCnp = ev.value;
        }
    }
    ASSERT_GT(restarts, 0);
    ASSERT_GT(cnpSamples, 0);
    ASSERT_GT(lastCnp, 0.0); // the load keeps the fabric marking

    auto last = [&](const char *name) {
        const std::vector<Sample> &s = reg.samples();
        auto it = std::find_if(s.rbegin(), s.rend(), [&](const Sample &x) {
            return x.name == name;
        });
        EXPECT_NE(it, s.rend()) << name;
        return it == s.rend() ? Sample{} : *it;
    };
    EXPECT_EQ(last("c4d.restarts").count, restarts);
    EXPECT_EQ(last("c4d.restarts_via_c4d").count, viaC4d);
    EXPECT_EQ(last("c4d.cnp_kps").count, cnpSamples);
    EXPECT_EQ(last("c4d.cnp_mean_kps").value, lastCnp);
}

// --- analyzers --------------------------------------------------------

TEST(Analyze, SummaryAndTailRenderTheRollup)
{
    const fs::path dir = scratchDir("analyze");
    SnapshotMeta meta;
    meta.scenario = "s";
    meta.variant = "v";
    {
        std::ofstream out(dir / "a.jsonl", std::ios::binary);
        out << writeSnapshot(meta, mixedSamples());
    }
    const std::vector<std::string> files =
        collectJsonlFiles(dir.string());
    ASSERT_EQ(files.size(), 1u);
    std::vector<SnapshotFile> loaded;
    loaded.push_back(loadSnapshotFile(files[0]));

    std::ostringstream summary;
    printSummary(loaded, summary);
    EXPECT_NE(summary.str().find("fabric.recomputes"),
              std::string::npos);
    EXPECT_NE(summary.str().find("window"), std::string::npos);

    std::ostringstream tail;
    printTail(loaded, 1, tail);
    // Only the newest tick (t=2s) appears.
    EXPECT_NE(tail.str().find("sim.depth"), std::string::npos);
    EXPECT_EQ(tail.str().find("sim.pending"), std::string::npos);

    EXPECT_THROW(collectJsonlFiles((dir / "missing").string()),
                 std::runtime_error);
}

TEST(Diff, ReportsIdenticalSnapshotsAndInjectedDivergences)
{
    const fs::path dir = scratchDir("diff");
    SnapshotMeta meta;
    meta.scenario = "s";
    meta.variant = "v";
    std::vector<Sample> a = mixedSamples();
    std::vector<Sample> b = a;
    b[1].value = 99.0; // the injected divergence

    auto write = [&](const char *name,
                     const std::vector<Sample> &samples) {
        std::ofstream out(dir / name, std::ios::binary);
        out << writeSnapshot(meta, samples);
        return (dir / name).string();
    };
    const std::string pa = write("a.jsonl", a);
    const std::string pb = write("b.jsonl", b);
    const std::string pa2 = write("a_again.jsonl", a);

    std::ostringstream same;
    EXPECT_EQ(diffJsonlFiles(pa, pa2, same), 0);
    EXPECT_NE(same.str().find("identical"), std::string::npos);

    std::ostringstream diverged;
    EXPECT_EQ(diffJsonlFiles(pa, pb, diverged), 1);
    EXPECT_NE(diverged.str().find("diverge at line 3"),
              std::string::npos);
}

} // namespace
} // namespace c4::obs
