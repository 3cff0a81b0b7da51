/**
 * @file
 * Event-trace subsystem: the zero-overhead detached path, recording
 * filters, byte-stable JSONL round-trips, fabric recompute
 * instrumentation and its deterministic ops counters, trace-file
 * byte-equality across runner thread counts, CSV invariance under
 * tracing, and divergence detection in the diff analyzer. The
 * end-to-end gate over the real c4bench/c4trace binaries lives in
 * cmake/trace_check.cmake (ctest -L trace).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "testutil/testutil.h"
#include "trace/analyze.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace c4::trace {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("c4_trace_test_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Event
makeEvent(EventKind kind, Time when)
{
    Event ev;
    ev.kind = kind;
    ev.when = when;
    return ev;
}

// --- recorder / scope -------------------------------------------------

TEST(Scope, DetachedScopeRecordsNothingAndWantsNothing)
{
    TraceScope scope; // the zero-overhead default everywhere
    EXPECT_FALSE(scope.attached());
    for (int k = 0; k < kNumEventKinds; ++k)
        EXPECT_FALSE(scope.wants(static_cast<EventKind>(k)));
    scope.record(makeEvent(EventKind::FaultInjected, 1)); // no-op
}

TEST(Scope, FilterRestrictsWhatTheRecorderKeeps)
{
    TraceRecorder recorder(kindBit(EventKind::FaultInjected) |
                           kindBit(EventKind::JobArrival));
    TraceScope scope(&recorder);
    EXPECT_TRUE(scope.attached());
    EXPECT_TRUE(scope.wants(EventKind::FaultInjected));
    EXPECT_FALSE(scope.wants(EventKind::RecomputeEnd));

    scope.record(makeEvent(EventKind::FaultInjected, 1));
    scope.record(makeEvent(EventKind::RecomputeEnd, 2)); // filtered
    scope.record(makeEvent(EventKind::JobArrival, 3));
    ASSERT_EQ(recorder.size(), 2u);
    EXPECT_EQ(recorder.events()[0].kind, EventKind::FaultInjected);
    EXPECT_EQ(recorder.events()[1].kind, EventKind::JobArrival);
}

TEST(KindNames, RoundTripAndFilterParsing)
{
    for (int k = 0; k < kNumEventKinds; ++k) {
        const auto kind = static_cast<EventKind>(k);
        EventKind back;
        ASSERT_TRUE(eventKindFromName(eventKindName(kind), back));
        EXPECT_EQ(back, kind);
    }

    KindMask mask = 0;
    EXPECT_EQ(parseKindFilter("fault_injected,recompute_end", mask),
              "");
    EXPECT_EQ(mask, kindBit(EventKind::FaultInjected) |
                        kindBit(EventKind::RecomputeEnd));
    EXPECT_NE(parseKindFilter("fault_injected,bogus", mask).find(
                  "unknown trace event kind 'bogus'"),
              std::string::npos);
    EXPECT_NE(parseKindFilter(",,", mask).find("empty trace filter"),
              std::string::npos);
}

// --- JSONL round-trip -------------------------------------------------

TEST(Jsonl, RoundTripsEveryFieldByteStably)
{
    std::vector<Event> events;
    Event full;
    full.when = 1234567890123;
    full.kind = EventKind::SteeringDecision;
    full.job = 7;
    full.node = 42;
    full.a = -3;
    full.b = 1;
    full.value = 0.125;
    full.detail = "restart \"quoted\"\nnewline";
    events.push_back(full);
    events.push_back(makeEvent(EventKind::RecomputeBegin, 0));

    const std::string text = writeJsonl(events);
    const std::vector<Event> reloaded = parseJsonl(text);
    ASSERT_EQ(reloaded.size(), events.size());
    EXPECT_EQ(reloaded[0], events[0]);
    EXPECT_EQ(reloaded[1], events[1]);
    // Byte-stable: write -> parse -> write is the identity.
    EXPECT_EQ(writeJsonl(reloaded), text);
}

TEST(Jsonl, DefaultFieldsAreOmittedFromTheRecord)
{
    const std::string line =
        eventToJsonLine(makeEvent(EventKind::RecomputeBegin, 5));
    EXPECT_EQ(line, "{\"t\":5,\"k\":\"recompute_begin\"}");
}

TEST(Jsonl, RejectsMalformedAndUnknownRecords)
{
    EXPECT_THROW(parseJsonl("{\"t\":1}\n"), SpecError); // missing k
    EXPECT_THROW(parseJsonl("{\"t\":1,\"k\":\"nope\"}\n"), SpecError);
    EXPECT_THROW(
        parseJsonl("{\"t\":1,\"k\":\"job_arrival\",\"x\":2}\n"),
        SpecError);
    EXPECT_THROW(parseJsonl("not json\n"), SpecError);
    try {
        parseJsonl("{\"t\":1,\"k\":\"job_arrival\"}\nbroken\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(Export, SanitizedComponentsCannotTraverseDirectories)
{
    EXPECT_EQ(sanitizeFileComponent("fig9_dualport"),
              "fig9_dualport");
    EXPECT_EQ(sanitizeFileComponent("2:1 oversub"), "2_1_oversub");
    EXPECT_EQ(sanitizeFileComponent(""), "_");
    EXPECT_EQ(sanitizeFileComponent("."), "_");
    EXPECT_EQ(sanitizeFileComponent(".."), "__");
    EXPECT_EQ(sanitizeFileComponent("../evil"), ".._evil");
}

TEST(Export, ChromeTraceDowngradesUnpairedRecomputeSlices)
{
    // A filter that keeps only recompute_end must not emit unbalanced
    // "E" duration events (Chrome/Perfetto discard them).
    std::vector<Event> onlyEnds = {
        makeEvent(EventKind::RecomputeEnd, 10),
        makeEvent(EventKind::RecomputeEnd, 20)};
    ChromeTrack track;
    track.processName = "v";
    track.threadName = "trial 0";
    track.events = &onlyEnds;
    const std::string lone = writeChromeTrace({track});
    EXPECT_EQ(lone.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_EQ(lone.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(lone.find("\"ph\":\"i\""), std::string::npos);

    std::vector<Event> both = {
        makeEvent(EventKind::RecomputeBegin, 10),
        makeEvent(EventKind::RecomputeEnd, 20)};
    track.events = &both;
    const std::string paired = writeChromeTrace({track});
    EXPECT_NE(paired.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(paired.find("\"ph\":\"E\""), std::string::npos);
}

// --- fabric instrumentation ------------------------------------------

TEST(Fabric, RecomputeEventsCarryTheDeterministicOpsCounter)
{
    TraceRecorder recorder;
    testutil::FabricHarness h;
    h.sim.setTracer(TraceScope(&recorder));

    h.fabric.startFlow(h.request(0, 4, 1), mib(64), nullptr);
    h.fabric.startFlow(h.request(1, 5, 2), mib(64), nullptr);
    h.sim.run();

    EXPECT_GT(h.fabric.reallocationCount(), 0u);
    EXPECT_GT(h.fabric.recomputeOpsTotal(), 0u);

    std::uint64_t begins = 0, ends = 0;
    double lastOps = -1.0;
    for (const Event &ev : recorder.events()) {
        if (ev.kind == EventKind::RecomputeBegin)
            ++begins;
        if (ev.kind == EventKind::RecomputeEnd) {
            ++ends;
            lastOps = ev.value;
        }
    }
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(begins, h.fabric.reallocationCount());
    // The last end event's cost matches the introspection counter.
    EXPECT_EQ(lastOps,
              static_cast<double>(h.fabric.recomputeOpsLast()));
}

TEST(Fabric, LinkStateChangesEmitPathReallocEvents)
{
    TraceRecorder recorder;
    testutil::FabricHarness h;
    h.sim.setTracer(TraceScope(&recorder));

    h.fabric.startFlow(h.request(0, 4, 1), gib(4), nullptr);
    (void)h.fabric.flowRate(1);
    const LinkId trunk = h.topo.trunkUplink(0, 0);
    h.fabric.setLinkUp(trunk, false);
    h.fabric.setLinkUp(trunk, true);

    std::vector<std::string> details;
    for (const Event &ev : recorder.events()) {
        if (ev.kind == EventKind::PathRealloc) {
            EXPECT_EQ(ev.a, trunk);
            details.push_back(ev.detail);
        }
    }
    ASSERT_EQ(details.size(), 2u);
    EXPECT_EQ(details[0], "link_down");
    EXPECT_EQ(details[1], "link_up");
}

TEST(Fabric, CapacityScalingEmitsLinkScalePathRealloc)
{
    TraceRecorder recorder;
    testutil::FabricHarness h;
    h.sim.setTracer(TraceScope(&recorder));

    h.fabric.startFlow(h.request(0, 4, 1), gib(4), nullptr);
    (void)h.fabric.flowRate(1);
    const LinkId uplink =
        h.topo.hostUplink(0, 0, net::Plane::Left);
    const bool used =
        h.fabric.flowRoute(1) != nullptr &&
        !h.fabric.flowRoute(1)->links.empty() &&
        h.fabric.flowRoute(1)->links.front() == uplink;
    h.fabric.setLinkCapacityScale(uplink, 0.5);
    (void)h.fabric.flowRate(1);

    const Event *scale = nullptr;
    for (const Event &ev : recorder.events())
        if (ev.kind == EventKind::PathRealloc &&
            ev.detail == "link_scale")
            scale = &ev;
    ASSERT_NE(scale, nullptr);
    EXPECT_EQ(scale->a, uplink);
    EXPECT_DOUBLE_EQ(scale->value, 0.5);
    if (used)
        EXPECT_EQ(scale->b, 1); // one flow routed over the link
}

TEST(Fabric, RecomputeBeginReportsDirtyLinkSeeds)
{
    TraceRecorder recorder;
    testutil::FabricHarness h;
    h.sim.setTracer(TraceScope(&recorder));

    h.fabric.startFlow(h.request(0, 4, 1), gib(4), nullptr);
    (void)h.fabric.flowRate(1);
    const std::size_t priorBegins = [&] {
        std::size_t n = 0;
        for (const Event &ev : recorder.events())
            n += ev.kind == EventKind::RecomputeBegin;
        return n;
    }();

    // A pure link event dirties exactly one link.
    h.fabric.setLinkCapacityScale(h.topo.trunkUplink(7, 7), 0.9);
    (void)h.fabric.flowRate(1);

    std::vector<const Event *> begins;
    for (const Event &ev : recorder.events())
        if (ev.kind == EventKind::RecomputeBegin)
            begins.push_back(&ev);
    ASSERT_EQ(begins.size(), priorBegins + 1);
    EXPECT_EQ(begins.back()->b, 1); // one dirty seed link
}

// --- runner integration ----------------------------------------------

/** A tiny traced workload: seed-paired ECMP/C4P allreduces plus one
 * scheduled NIC degradation, so fault, path, and recompute events all
 * appear. */
scenario::Scenario
tracedScenario(const char *name)
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
    sc.title = "traced tiny";
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
tracedOptions(const fs::path &dir, int threads)
{
    scenario::RunOptions opt;
    opt.trials = 4;
    opt.threads = threads;
    opt.seed = 0xC4;
    opt.seedSet = true;
    opt.traceDir = dir.string();
    return opt;
}

TEST(Runner, TracesAreByteIdenticalAcrossThreadCounts)
{
    const scenario::Scenario sc = tracedScenario("trace_tiny");
    const fs::path d1 = scratchDir("threads1");
    const fs::path d4 = scratchDir("threads4");

    scenario::ScenarioRunner one(tracedOptions(d1, 1));
    ASSERT_EQ(one.run(sc), 0);
    scenario::ScenarioRunner four(tracedOptions(d4, 4));
    ASSERT_EQ(four.run(sc), 0);

    const auto t1 = snapshotTree(d1);
    const auto t4 = snapshotTree(d4);
    ASSERT_EQ(t1.size(), t4.size());
    // 2 variants x 4 trials of JSONL plus the Chrome trace.
    EXPECT_EQ(t1.size(), 9u);
    std::size_t bytes = 0;
    for (const auto &[rel, text] : t1) {
        auto it = t4.find(rel);
        ASSERT_NE(it, t4.end()) << rel;
        EXPECT_EQ(text, it->second) << rel;
        bytes += text.size();
    }
    EXPECT_GT(bytes, 0u);

    // The traces really carry the expected kinds.
    const TraceFile tf = loadTraceFile(
        (d1 / "trace_tiny" / "v1_c4p.t0.jsonl").string());
    bool sawFault = false, sawRecompute = false, sawAlloc = false;
    for (const Event &ev : tf.events) {
        sawFault |= ev.kind == EventKind::FaultInjected;
        sawRecompute |= ev.kind == EventKind::RecomputeEnd;
        sawAlloc |= ev.kind == EventKind::PathRealloc;
    }
    EXPECT_TRUE(sawFault);
    EXPECT_TRUE(sawRecompute);
    EXPECT_TRUE(sawAlloc);
}

TEST(Runner, CsvOutputIsUnchangedByTracing)
{
    const scenario::Scenario sc = tracedScenario("trace_tiny_csv");

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
    scenario::RunOptions traced = plain;
    traced.traceDir = scratchDir("csv_invariance").string();

    const std::string without = runCsv(plain);
    EXPECT_EQ(runCsv(traced), without);
    EXPECT_FALSE(without.empty());
}

TEST(Runner, TraceFilterPrunesRecordedKinds)
{
    const scenario::Scenario sc = tracedScenario("trace_tiny_filter");
    const fs::path dir = scratchDir("filtered");
    scenario::RunOptions opt = tracedOptions(dir, 1);
    opt.trials = 1;
    opt.traceFilter = kindBit(EventKind::FaultInjected);
    scenario::ScenarioRunner runner(opt);
    ASSERT_EQ(runner.run(sc), 0);

    const TraceFile tf = loadTraceFile(
        (dir / "trace_tiny_filter" / "v0_ecmp.t0.jsonl").string());
    ASSERT_FALSE(tf.events.empty());
    for (const Event &ev : tf.events)
        EXPECT_EQ(ev.kind, EventKind::FaultInjected);
}

// --- diff analyzer ----------------------------------------------------

TEST(Diff, ReportsIdenticalTracesAndInjectedDivergences)
{
    const fs::path dir = scratchDir("diff");
    std::vector<Event> a;
    for (int i = 0; i < 10; ++i) {
        Event ev = makeEvent(EventKind::RecomputeEnd, i * 100);
        ev.value = static_cast<double>(i);
        a.push_back(ev);
    }
    std::vector<Event> b = a;
    b[6].value = 99.0; // the injected divergence

    auto write = [&](const char *name,
                     const std::vector<Event> &events) {
        std::ofstream out(dir / name, std::ios::binary);
        out << writeJsonl(events);
        return (dir / name).string();
    };
    const std::string pa = write("a.jsonl", a);
    const std::string pb = write("b.jsonl", b);
    const std::string pa2 = write("a_again.jsonl", a);

    std::ostringstream same;
    EXPECT_EQ(diffTraces(pa, pa2, same), 0);
    EXPECT_NE(same.str().find("identical"), std::string::npos);

    std::ostringstream diverged;
    EXPECT_EQ(diffTraces(pa, pb, diverged), 1);
    EXPECT_NE(diverged.str().find("diverge at line 7"),
              std::string::npos);
    // Both sides of the divergence are shown.
    EXPECT_NE(diverged.str().find("\"v\":6.0"), std::string::npos);
    EXPECT_NE(diverged.str().find("\"v\":99.0"), std::string::npos);

    // A truncated trace diverges at its end.
    std::vector<Event> shorter(a.begin(), a.begin() + 4);
    const std::string ps = write("short.jsonl", shorter);
    std::ostringstream truncated;
    EXPECT_EQ(diffTraces(pa, ps, truncated), 1);
    EXPECT_NE(truncated.str().find("diverge at line 5"),
              std::string::npos);
}

TEST(Diff, RejectsDirectories)
{
    // Two directories holding different traces: reading a directory
    // as one empty file would report them identical.
    const fs::path a = scratchDir("diff_dir_a");
    const fs::path b = scratchDir("diff_dir_b");
    std::ofstream(a / "t.jsonl", std::ios::binary)
        << writeJsonl({makeEvent(EventKind::FaultInjected, 1)});
    std::ofstream(b / "t.jsonl", std::ios::binary)
        << writeJsonl({makeEvent(EventKind::FaultInjected, 2)});

    std::ostringstream out;
    try {
        diffTraces(a.string(), b.string(), out);
        FAIL() << "diff of two directories returned: " << out.str();
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "'" + a.string() + "' is not a trace file");
    }
    EXPECT_EQ(out.str(), "");
}

TEST(Jsonl, EveryPrefixOfARealIncidentTraceParsesOrThrows)
{
    // Harden the reader against truncated writes: for a real corpus
    // file (the replay subsystem's input), every byte-prefix must
    // either parse cleanly (prefix ends on a record boundary) or throw
    // a line-numbered SpecError — never crash, never silently return a
    // short-read record.
    std::ifstream in(std::string(C4_INCIDENT_CORPUS_DIR) +
                     "/port_degradation_tx.trace.jsonl");
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    ASSERT_GT(text.size(), 1000u);

    const std::size_t fullCount = parseJsonl(text).size();
    std::size_t parsed = 0;
    for (std::size_t len = 0; len <= text.size(); ++len) {
        const std::string prefix = text.substr(0, len);
        const bool atBoundary =
            len == 0 || text[len - 1] == '\n';
        try {
            const std::vector<Event> events = parseJsonl(prefix);
            ++parsed;
            EXPECT_TRUE(atBoundary)
                << "mid-line prefix of length " << len
                << " parsed as " << events.size() << " records";
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
    // Exactly the record boundaries parse: one per line, plus the
    // empty prefix; everything mid-line throws.
    EXPECT_EQ(parsed, fullCount + 1);
}

} // namespace
} // namespace c4::trace
