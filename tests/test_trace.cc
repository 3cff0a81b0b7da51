/**
 * @file
 * Event-trace subsystem: the zero-overhead detached path, recording
 * filters, byte-stable JSONL round-trips, the DOM-free codec against
 * its DOM reference (tests/jsonl_reference.h), fabric recompute
 * instrumentation and its deterministic ops counters, trace-file
 * byte-equality across runner thread counts, CSV invariance under
 * tracing, and divergence detection in the diff analyzer. The
 * end-to-end gate over the real c4bench/c4trace binaries lives in
 * cmake/trace_check.cmake (ctest -L trace).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>

#include "common/jsonl_files.h"
#include "jsonl_reference.h"
#include "perf/perf.h"
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

TEST(Jsonl, RejectsUnknownPathReallocLabel)
{
    // Each sub-kind's label maps back to it and parses; any other
    // label fails at its record's line. The message is pinned for
    // both parsers in ScannerReportsTheDomReferenceMessages.
    for (int k = 0; k < kNumPathReallocKinds; ++k) {
        const auto sub = static_cast<PathReallocKind>(k);
        PathReallocKind back;
        ASSERT_TRUE(pathReallocFromName(pathReallocName(sub), back));
        EXPECT_EQ(back, sub);
        Event ev = makeEvent(EventKind::PathRealloc, k);
        ev.detail = pathReallocName(sub);
        EXPECT_EQ(parseJsonl(writeJsonl({ev})), std::vector<Event>{ev});
    }
    try {
        parseJsonl("{\"t\":1,\"k\":\"path_realloc\",\"d\":\"teleport\"}\n");
        FAIL() << "unknown path_realloc label accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(std::string(e.what()).rfind("record on line 1: ", 0), 0u)
            << e.what();
    }
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

TEST(Jsonl, RejectsIdsOutsideInt32)
{
    // Job and node ids are int32: narrowing 4294967297 to 1 would
    // break writeJsonl(parseJsonl(text)) == text.
    try {
        parseJsonl("{\"t\":1,\"k\":\"job_arrival\",\"job\":4294967297,"
                   "\"a\":2}\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "record on line 1: line 1, column 32: \"job\" is "
                     "outside the 32-bit integer range");
    }
    EXPECT_THROW(parseJsonl("{\"t\":1,\"k\":\"job_arrival\","
                            "\"node\":-2147483649}\n"),
                 SpecError);

    // The int32 extremes themselves round-trip.
    const std::string edges =
        "{\"t\":1,\"k\":\"job_arrival\",\"job\":2147483647,"
        "\"node\":-2147483648}\n";
    const std::vector<Event> events = parseJsonl(edges);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].job, std::numeric_limits<JobId>::max());
    EXPECT_EQ(events[0].node, std::numeric_limits<NodeId>::min());
    EXPECT_EQ(writeJsonl(events), edges);
}

// --- the codec against its DOM reference -----------------------------

/** What one parser made of one document. */
struct Outcome
{
    bool ok = false;
    std::vector<Event> events;
    std::string error;
};

template <typename Parse>
Outcome
outcomeOf(Parse parse, const std::string &text)
{
    Outcome o;
    try {
        o.events = parse(text);
        o.ok = true;
    } catch (const SpecError &e) {
        o.error = e.what();
    }
    return o;
}

/** Parse @p text with the scanner and with the DOM reference; both
 * must accept the same records or fail with the same message.
 * @return whether the document was accepted. */
bool
expectSameOutcome(const std::string &text)
{
    const Outcome scan = outcomeOf(
        [](const std::string &t) { return parseJsonl(t); }, text);
    const Outcome dom = outcomeOf(
        [](const std::string &t) { return reference::parseJsonl(t); },
        text);
    EXPECT_EQ(scan.ok, dom.ok) << text;
    EXPECT_EQ(scan.error, dom.error) << text;
    EXPECT_EQ(scan.events, dom.events) << text;
    return scan.ok;
}

/** The writer, the scanner and the DOM reference agree on @p events
 * and on the bytes they make. */
void
expectCodecsAgree(const std::vector<Event> &events)
{
    const std::string text = writeJsonl(events);
    EXPECT_EQ(text, reference::writeJsonl(events));
    EXPECT_EQ(parseJsonl(text), events);
    EXPECT_TRUE(expectSameOutcome(text));
}

std::vector<std::string>
corpusTraces()
{
    std::vector<std::string> texts;
    for (const std::string &path :
         collectJsonlFiles(C4_INCIDENT_CORPUS_DIR)) {
        if (path.size() >= 12 &&
            path.compare(path.size() - 12, 12, ".trace.jsonl") == 0)
            texts.push_back(readFile(path));
    }
    return texts;
}

std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

Event
randomEvent(std::mt19937_64 &rng)
{
    Event ev;
    ev.when = static_cast<Time>(rng() >> 1);
    ev.kind = static_cast<EventKind>(rng() % kNumEventKinds);
    auto id = [&]() -> std::int32_t {
        switch (rng() % 4) {
          case 0: return kInvalidId;
          case 1: return static_cast<std::int32_t>(rng() % 512);
          case 2: return std::numeric_limits<std::int32_t>::min();
          default: return static_cast<std::int32_t>(rng());
        }
    };
    ev.job = id();
    ev.node = id();
    ev.a = reference::randomInt(rng);
    ev.b = reference::randomInt(rng);
    ev.value = reference::randomDouble(rng);
    ev.detail = rng() % 3 == 0 ? "" : reference::randomLabel(rng);
    // The parsers accept path_realloc only with a sub-kind label.
    if (ev.kind == EventKind::PathRealloc)
        ev.detail = pathReallocName(
            static_cast<PathReallocKind>(rng() % kNumPathReallocKinds));
    return ev;
}

/** A fig12-style trial in miniature: 8 cross-segment allreduces on
 * fully loaded leaves, one trunk cut mid-run, static TE vs dynamic LB. */
scenario::Scenario
fig12StyleScenario()
{
    auto variant = [](bool dynamicLb) {
        scenario::ScenarioSpec spec;
        spec.variant = dynamicLb ? "dynamic_lb" : "static_te";
        spec.topology.nodesPerSegment = 8;
        spec.topology.nvlinkBusBandwidth = gbps(450);
        spec.features.c4p = true;
        spec.features.dynamicLoadBalance = dynamicLb;
        spec.features.qpsPerConnection = 2;
        scenario::AllreduceGroupSpec g;
        g.tasks = 8;
        g.bytes = mib(64);
        g.iterations = 12;
        spec.allreduces.push_back(g);
        scenario::LinkEventSpec fail;
        fail.at = milliseconds(20);
        fail.segment = 0;
        fail.plane = net::Plane::Left;
        fail.spine = 0;
        fail.up = false;
        spec.linkEvents.push_back(fail);
        return spec;
    };
    scenario::Scenario sc;
    sc.name = "fig12_style";
    sc.title = "fig12 in miniature";
    sc.fullTrials = 1;
    sc.smokeTrials = 1;
    sc.variants = [variant](const scenario::RunOptions &) {
        return std::vector<scenario::ScenarioSpec>{variant(false),
                                                   variant(true)};
    };
    return sc;
}

TEST(Jsonl, CodecMatchesTheDomReferenceOnTheCorpus)
{
    const std::vector<std::string> texts = corpusTraces();
    ASSERT_GE(texts.size(), 10u);
    for (const std::string &text : texts) {
        const std::vector<Event> events = parseJsonl(text);
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(writeJsonl(events), text);
        expectCodecsAgree(events);
    }
}

TEST(Jsonl, CodecMatchesTheDomReferenceOnARealFig12StyleTrial)
{
    const fs::path dir = scratchDir("fig12_style");
    scenario::RunOptions opt;
    opt.trials = 1;
    opt.threads = 1;
    opt.seed = 0xF16B01;
    opt.seedSet = true;
    opt.traceDir = dir.string();
    scenario::ScenarioRunner runner(opt);
    ASSERT_EQ(runner.run(fig12StyleScenario()), 0);

    for (const char *file : {"v0_static_te.t0.jsonl",
                             "v1_dynamic_lb.t0.jsonl"}) {
        const std::string text =
            readFile(dir / "fig12_style" / file);
        const std::vector<Event> events = parseJsonl(text);
        ASSERT_GT(events.size(), 100u) << file;
        bool sawCut = false;
        for (const Event &ev : events)
            sawCut |= ev.detail == "link_down";
        EXPECT_TRUE(sawCut) << file;
        EXPECT_EQ(writeJsonl(events), text);
        expectCodecsAgree(events);
    }
}

TEST(Jsonl, CodecMatchesTheDomReferenceOnRandomEvents)
{
    std::mt19937_64 rng(0xC0DEC);
    std::vector<Event> events;
    for (int i = 0; i < 10000; ++i)
        events.push_back(randomEvent(rng));
    expectCodecsAgree(events);
}

TEST(Jsonl, ScannerMatchesTheDomReferenceOnMutatedRecords)
{
    std::mt19937_64 rng(0xBADC0DE);
    std::vector<std::string> lines;
    for (const std::string &text : corpusTraces()) {
        const std::vector<std::string> corpusLines = linesOf(text);
        for (std::size_t i = 0; i < corpusLines.size(); i += 7)
            lines.push_back(corpusLines[i]);
    }
    for (int i = 0; i < 300; ++i)
        lines.push_back(eventToJsonLine(randomEvent(rng)));

    const std::string valid = "{\"t\":0,\"k\":\"job_arrival\"}\n";
    std::size_t accepted = 0, rejected = 0;
    for (const std::string &line : lines) {
        for (const std::string &mutant : reference::mutations(line, rng)) {
            // Alone, and as the second record so the line number
            // must carry over too.
            const bool ok = expectSameOutcome(mutant + "\n");
            (ok ? accepted : rejected) += 1;
            expectSameOutcome(valid + mutant + "\n");
        }
    }
    // The mutations reach both outcomes in bulk.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(Jsonl, ScannerReportsTheDomReferenceMessages)
{
    const std::string deep =
        "{\"t\":1,\"k\":\"job_arrival\",\"x\":" + std::string(70, '[') +
        std::string(70, ']') + "}\n";
    const std::vector<std::pair<std::string, std::string>> table = {
        {"{\"t\":1}\n",
         "line 1, column 1: trace record needs \"t\" and \"k\""},
        {"  {}\n", "line 1, column 3: trace record needs \"t\" and \"k\""},
        {"{\"t\":1,\"k\":\"nope\"}\n",
         "line 1, column 12: \"k\" must name a known event kind"},
        {"{\"t\":1,\"k\":7}\n",
         "line 1, column 12: \"k\" must name a known event kind"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"x\":2}\n",
         "line 1, column 26: unknown trace record key \"x\""},
        {"{\"t\":1,\"k\":\"path_realloc\",\"d\":\"teleport\"}\n",
         "line 1, column 1: \"d\" must name a path_realloc sub-kind"},
        {"{\"t\":1,\"k\":\"path_realloc\"}\n",
         "line 1, column 1: \"d\" must name a path_realloc sub-kind"},
        {"{\"t\":1,\"t\":2,\"k\":\"job_arrival\"}\n",
         "line 1, column 8: duplicate key \"t\""},
        {"{\"x\":1,\"x\":2}\n", "line 1, column 8: duplicate key \"x\""},
        {"{\"t\":\"1\",\"k\":\"job_arrival\"}\n",
         "line 1, column 6: \"t\" must be an integer"},
        {"{\"t\":1.5,\"k\":\"job_arrival\"}\n",
         "line 1, column 6: \"t\" must be an integer"},
        {"{\"t\":99999999999999999999,\"k\":\"job_arrival\"}\n",
         "line 1, column 6: \"t\" must be an integer"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"node\":-2147483649}\n",
         "line 1, column 33: \"node\" is outside the 32-bit integer "
         "range"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"a\":true}\n",
         "line 1, column 30: \"a\" must be an integer"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"v\":\"x\"}\n",
         "line 1, column 30: \"v\" must be a number"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"d\":[\"x\"]}\n",
         "line 1, column 30: \"d\" must be a string"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"d\":{\"y\":1,\"y\":2}}\n",
         "line 1, column 37: duplicate key \"y\""},
        {deep, "line 1, column 94: document nests deeper than 64 levels"},
        {"{\"t\":1,\"k\":\"job_arrival\"} x\n",
         "line 1, column 27: unexpected trailing content after the "
         "document"},
        {"[1]\n", "line 1, column 1: trace record must be a JSON object"},
        {"\"x\" y\n",
         "line 1, column 5: unexpected trailing content after the "
         "document"},
        {"not json\n", "line 1, column 1: unexpected character 'n'"},
        {"\r\n",
         "line 1, column 2: unexpected end of document; expected a "
         "value"},
        {"{\"t\":1,\"k\":\"job_arrival\",}\n",
         "line 1, column 26: expected a quoted object key"},
        {"{\"t\":1 \"k\":\"job_arrival\"}\n",
         "line 1, column 8: expected '}' to close the object, found "
         "'\"'"},
        {"{\"t\" 1}\n", "line 1, column 6: expected ':' after object key, "
                       "found '1'"},
        {"{\"t\":01,\"k\":\"job_arrival\"}\n",
         "line 1, column 7: malformed number: leading zero"},
        {"{\"t\":-,\"k\":\"job_arrival\"}\n",
         "line 1, column 7: malformed number"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"v\":1e400}\n",
         "line 1, column 35: number '1e400' is out of double range"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"d\":\"a\\qb\"}\n",
         "line 1, column 34: invalid escape '\\q'"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"d\":\"\\u00g0\"}\n",
         "line 1, column 36: invalid \\u escape digit"},
        {"{\"t\":1,\"k\":\"job_arrival\",\"d\":\"a\x01\"}\n",
         "line 1, column 33: raw control character inside a string"},
        // A syntax error anywhere beats an earlier binding error.
        {"{\"t\":\"x\",\"k\":\n",
         "line 1, column 14: unexpected end of document; expected a "
         "value"},
    };
    for (const auto &[line, what] : table) {
        for (const std::string &prefix :
             {std::string(),
              std::string("{\"t\":0,\"k\":\"job_arrival\"}\n")}) {
            const std::string expected =
                std::string("record on line ") +
                (prefix.empty() ? "1" : "2") + ": " + what;
            EXPECT_EQ(outcomeOf([](const std::string &t) {
                          return parseJsonl(t);
                      }, prefix + line).error,
                      expected);
            EXPECT_EQ(outcomeOf([](const std::string &t) {
                          return reference::parseJsonl(t);
                      }, prefix + line).error,
                      expected);
        }
    }

    // Escapes decode to the same record; CRLF endings are whitespace.
    const std::vector<Event> escaped = parseJsonl(
        "{\"\\u0074\":1,\"k\":\"job\\u005farrival\",\"d\":\"\\u00e9\"}\r\n");
    ASSERT_EQ(escaped.size(), 1u);
    EXPECT_EQ(escaped[0].kind, EventKind::JobArrival);
    EXPECT_EQ(escaped[0].detail, "\xc3\xa9");
}

TEST(Jsonl, CodecAllocatesPerDocumentNotPerEvent)
{
    std::vector<Event> events;
    events.reserve(100000);
    static const char *const kDetails[] = {"", "link_down", "restart",
                                           "slow-nic-tx"};
    for (int i = 0; i < 100000; ++i) {
        Event ev;
        ev.when = static_cast<Time>(i) * 1000;
        ev.kind = static_cast<EventKind>(i % kNumEventKinds);
        ev.job = i % 3 == 0 ? kInvalidId : i % 64;
        ev.a = i % 5;
        ev.value = i % 2 == 0 ? 0.0 : 12.478350929 * i;
        ev.detail = ev.kind == EventKind::PathRealloc ? "link_down"
                                                      : kDetails[i % 4];
        events.push_back(std::move(ev));
    }
    const std::uint64_t before = perf::allocStatsNow().count;
    const std::string text = writeJsonl(events);
    const std::vector<Event> back = parseJsonl(text);
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(back, events);
    EXPECT_LT(allocs, 100u);
}

TEST(Export, SanitizedComponentsCannotTraverseDirectories)
{
    // The runner names both its trace and its metric files with this.
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
    if (used) {
        EXPECT_EQ(scale->b, 1); // one flow routed over the link
    }
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
    EXPECT_EQ(diffJsonlFiles(pa, pa2, same), 0);
    EXPECT_NE(same.str().find("identical"), std::string::npos);

    std::ostringstream diverged;
    EXPECT_EQ(diffJsonlFiles(pa, pb, diverged), 1);
    EXPECT_NE(diverged.str().find("diverge at line 7"),
              std::string::npos);
    // Both sides of the divergence are shown.
    EXPECT_NE(diverged.str().find("\"v\":6.0"), std::string::npos);
    EXPECT_NE(diverged.str().find("\"v\":99.0"), std::string::npos);

    // A truncated trace diverges at its end.
    std::vector<Event> shorter(a.begin(), a.begin() + 4);
    const std::string ps = write("short.jsonl", shorter);
    std::ostringstream truncated;
    EXPECT_EQ(diffJsonlFiles(pa, ps, truncated), 1);
    EXPECT_NE(truncated.str().find("diverge at line 5"),
              std::string::npos);

    // The same records without the final newline: `summary` rejects
    // that as a truncated write, so diff must not call it identical.
    const std::string text = writeJsonl(a);
    const std::string pn = (dir / "no_newline.jsonl").string();
    std::ofstream(pn, std::ios::binary)
        << text.substr(0, text.size() - 1);
    std::ostringstream unterminated;
    EXPECT_EQ(diffJsonlFiles(pa, pn, unterminated), 1);
    EXPECT_NE(unterminated.str().find("diverge at line 10"),
              std::string::npos);
    EXPECT_NE(unterminated.str().find("<no newline at end of file>"),
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
        diffJsonlFiles(a.string(), b.string(), out);
        FAIL() << "diff of two directories returned: " << out.str();
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "'" + a.string() + "' is not a regular file");
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
    const std::string text =
        readFile(std::string(C4_INCIDENT_CORPUS_DIR) +
                 "/port_degradation_tx.trace.jsonl");
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
