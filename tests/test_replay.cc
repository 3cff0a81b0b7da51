/**
 * @file
 * Offline-replay unit tests: corpus I/O, the replay clock, scoring,
 * and the two byte-identity properties the subsystem is built around —
 * replaying one trace twice is byte-identical, and a fresh live
 * capture yields verdicts byte-identical to replaying the committed
 * trace file.
 *
 * C4_INCIDENT_CORPUS_DIR points at the committed tests/incidents/.
 */

#include <filesystem>
#include <stdexcept>

#include <gtest/gtest.h>

#include "c4d/incident.h"
#include "common/json.h"
#include "common/jsonl_files.h"
#include "replay/capture.h"
#include "replay/corpus.h"
#include "replay/replay.h"
#include "replay/score.h"
#include "trace/analyze.h"
#include "trace/export.h"

namespace c4::replay {
namespace {

const std::string kCorpusDir = C4_INCIDENT_CORPUS_DIR;

// --- corpus I/O ------------------------------------------------------

TEST(ReplayCorpus, CollectsCommittedIncidents)
{
    const std::vector<Incident> incidents = collectIncidents(kCorpusDir);
    ASSERT_GE(incidents.size(), 8u);
    // Sorted by name, labels attached, traces present.
    for (std::size_t i = 1; i < incidents.size(); ++i)
        EXPECT_LT(incidents[i - 1].name, incidents[i].name);
    for (const Incident &inc : incidents) {
        EXPECT_EQ(inc.label.name, inc.name);
        EXPECT_TRUE(std::filesystem::exists(inc.tracePath)) << inc.name;
    }
}

TEST(ReplayCorpus, CollectRejectsUnpairedFiles)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "c4_replay_unpaired_corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    writeFile((dir / "orphan.trace.jsonl").string(), "");
    EXPECT_THROW(collectIncidents(dir.string()), std::runtime_error);
    fs::remove_all(dir);
}

TEST(ReplayCorpus, ReadingADirectoryThrows)
{
    // A directory opens like a file but reads as zero bytes, which
    // would replay as an empty trace with no verdicts.
    EXPECT_THROW(readFile(kCorpusDir), std::runtime_error);
    EXPECT_THROW(trace::loadTraceFile(kCorpusDir), std::runtime_error);
}

TEST(ReplayCorpus, LabelJsonRoundTripsEveryCommittedLabel)
{
    for (const Incident &inc : collectIncidents(kCorpusDir)) {
        const std::string path =
            kCorpusDir + "/" + inc.name + ".label.json";
        const std::string text = readFile(path);
        EXPECT_EQ(writeLabelJson(labelFromJson(text)), text) << path;
    }
}

TEST(ReplayCorpus, LabelValidationRejectsSchemaDrift)
{
    const std::string good = readFile(
        kCorpusDir + "/link_failure_single.label.json");
    EXPECT_NO_THROW(labelFromJson(good));
    EXPECT_THROW(labelFromJson("{"), SpecError);
    // Unknown incident kind names must not pass as ground truth.
    std::string bad = good;
    bad.replace(bad.find("link_failure\""), 12, "cable_gremlin");
    EXPECT_THROW(labelFromJson(bad), SpecError);
    // Unknown keys are schema drift, not extension points.
    std::string extra = good;
    extra.insert(extra.rfind('}'), ",\n  \"bogus\": 1\n");
    EXPECT_THROW(labelFromJson(extra), SpecError);
    // A culprit node outside NodeId's range would name another node
    // if narrowed, so it is an error.
    for (const char *node : {"4294967296", "-2147483649"}) {
        std::string wide = good;
        const std::size_t at = wide.find("\"culprit_node\": ") + 16;
        wide.replace(at, wide.find(',', at) - at, node);
        try {
            labelFromJson(wide);
            ADD_FAILURE() << "culprit_node " << node << " accepted";
        } catch (const SpecError &e) {
            EXPECT_GT(e.line(), 0) << e.what();
            EXPECT_NE(std::string(e.what()).find("out of integer range"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ReplayCorpus, EveryLabelPrefixParsesOrThrowsWithALineNumber)
{
    // A truncated label must be a located error, or — when the prefix
    // is the whole document minus trailing whitespace — the same
    // label back.
    for (const Incident &inc : collectIncidents(kCorpusDir)) {
        const std::string path =
            kCorpusDir + "/" + inc.name + ".label.json";
        const std::string full = readFile(path);
        for (std::size_t n = 0; n < full.size(); ++n) {
            try {
                EXPECT_EQ(writeLabelJson(labelFromJson(full.substr(0, n))),
                          full)
                    << path << ": prefix of " << n
                    << " bytes parsed differently";
            } catch (const SpecError &e) {
                EXPECT_GT(e.line(), 0)
                    << path << ": prefix of " << n
                    << " bytes threw without a line number: " << e.what();
            }
        }
    }
}

TEST(ReplayCorpus, TraceJsonlRoundTripsEveryCommittedTrace)
{
    for (const Incident &inc : collectIncidents(kCorpusDir)) {
        const std::string text = readFile(inc.tracePath);
        EXPECT_EQ(trace::writeJsonl(trace::parseJsonl(text)), text)
            << inc.tracePath;
    }
}

// --- the replay clock ------------------------------------------------

TEST(ReplayAdapter, ClockRejectsTimeRegression)
{
    std::vector<trace::Event> events(2);
    events[0].when = seconds(10);
    events[0].kind = trace::EventKind::CnpSample;
    events[1].when = seconds(5);
    events[1].kind = trace::EventKind::CnpSample;
    c4d::TelemetrySink sink;
    try {
        feedTrace(events, sink);
        FAIL() << "regressing trace accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
            << "error does not name the offending record: "
            << e.what();
    }
}

// --- byte-identity properties ----------------------------------------

TEST(ReplayIdentity, ReplaySameIncidentTwiceIsByteIdentical)
{
    for (const Incident &inc : collectIncidents(kCorpusDir)) {
        const std::vector<trace::Event> events =
            trace::loadTraceFile(inc.tracePath).events;
        const std::string first =
            verdictsToJsonl(inc.name, replayTrace(events));
        const std::string second =
            verdictsToJsonl(inc.name, replayTrace(events));
        EXPECT_EQ(first, second) << inc.name;
    }
}

/**
 * Live-vs-replay: simulate the incident fresh (the live run, with the
 * analyzer's telemetry recorded as it happens), then replay the
 * committed trace file; trace bytes, label bytes, and verdict bytes
 * must all match. Two incidents from different detector families.
 */
TEST(ReplayIdentity, LiveCaptureMatchesCommittedReplay)
{
    for (const char *name :
         {"link_failure_single", "node_crash_ecc"}) {
        const CaptureResult live = captureIncident(name);
        const std::string tracePath =
            kCorpusDir + "/" + std::string(name) + ".trace.jsonl";
        const std::string labelPath =
            kCorpusDir + "/" + std::string(name) + ".label.json";
        EXPECT_EQ(trace::writeJsonl(live.events),
                  readFile(tracePath))
            << name;
        EXPECT_EQ(writeLabelJson(live.label),
                  readFile(labelPath))
            << name;
        const trace::TraceFile committed = trace::loadTraceFile(tracePath);
        EXPECT_EQ(verdictsToJsonl(name, replayTrace(live.events)),
                  verdictsToJsonl(name, replayTrace(committed.events)))
            << name;
    }
}

TEST(ReplayIdentity, CaptureRejectsUnknownIncident)
{
    EXPECT_THROW(captureIncident("no_such_incident"),
                 std::invalid_argument);
}

// --- the incident analyzer on synthetic telemetry --------------------

/** A fabric link_down event per trace.h's field table. */
trace::Event
linkDown(Time when, std::int64_t link, double flowsRerouted)
{
    trace::Event ev;
    ev.when = when;
    ev.kind = trace::EventKind::PathRealloc;
    ev.a = link;
    ev.value = flowsRerouted;
    ev.detail = trace::pathReallocName(trace::PathReallocKind::LinkDown);
    return ev;
}

TEST(ReplayAnalyzer, GroupsBothDirectionsOfOneCut)
{
    c4d::IncidentAnalyzer an;
    an.onEvent(linkDown(seconds(10), 518, 2));
    an.onEvent(linkDown(seconds(10), 519, 0));
    const std::vector<c4d::IncidentVerdict> vs = an.finish();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].kind, c4d::IncidentKind::LinkFailure);
    EXPECT_EQ(vs[0].link, 518);
    EXPECT_EQ(vs[0].detectedAt, seconds(10));
}

TEST(ReplayAnalyzer, StormCollapsesSpreadOutCuts)
{
    c4d::IncidentAnalyzer an;
    for (int i = 0; i < 4; ++i) // 2 s apart: beyond kLinkGroupWindow
        an.onEvent(linkDown(seconds(10 + 2 * i), 100 + i, 1));
    const std::vector<c4d::IncidentVerdict> vs = an.finish();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].kind, c4d::IncidentKind::FaultStorm);
    // Detected when the kStormMinLinks-th group arrived, not at finish.
    EXPECT_EQ(vs[0].detectedAt, seconds(14));
}

TEST(ReplayAnalyzer, OnlyHardwareVisibleFaultsReachTheLog)
{
    c4d::IncidentAnalyzer an;
    for (const char *type : {"ecc-error", "cuda-error", "teleport"}) {
        trace::Event ev;
        ev.when = seconds(30);
        ev.kind = trace::EventKind::FaultInjected;
        ev.node = 5;
        ev.b = 1;
        ev.value = 1.0;
        ev.detail = type;
        an.onEvent(ev);
    }
    // cuda-error leaves no hardware log; an unknown name is no class.
    EXPECT_EQ(an.rca().logSize(), 1u);
}

// --- scoring ---------------------------------------------------------

Incident
labeledIncident(const std::string &kind, NodeId node, Time tInject)
{
    Incident inc;
    inc.name = "synthetic";
    inc.label.name = "synthetic";
    inc.label.rootCause = kind;
    inc.label.culpritNode = node;
    inc.label.tInject = tInject;
    return inc;
}

c4d::IncidentVerdict
verdictOf(c4d::IncidentKind kind, NodeId node, Time at)
{
    c4d::IncidentVerdict v;
    v.kind = kind;
    v.node = node;
    v.detectedAt = at;
    return v;
}

TEST(ReplayScore, NodeScopedMatchYieldsTtd)
{
    const Incident inc =
        labeledIncident("node_crash", 5, seconds(10));
    const IncidentScore s = scoreIncident(
        inc,
        {verdictOf(c4d::IncidentKind::NodeCrash, 5, seconds(52))});
    EXPECT_TRUE(s.truePositive);
    EXPECT_FALSE(s.falseNegative);
    EXPECT_EQ(s.falsePositives, 0);
    EXPECT_DOUBLE_EQ(s.ttdSeconds, 42.0);
    EXPECT_EQ(s.outcome, "detected");
}

TEST(ReplayScore, WrongNodeIsMissPlusFalsePositive)
{
    const Incident inc =
        labeledIncident("node_crash", 5, seconds(10));
    const IncidentScore s = scoreIncident(
        inc,
        {verdictOf(c4d::IncidentKind::NodeCrash, 4, seconds(52))});
    EXPECT_FALSE(s.truePositive);
    EXPECT_TRUE(s.falseNegative);
    EXPECT_EQ(s.falsePositives, 1);
    EXPECT_EQ(s.outcome, "missed");
}

TEST(ReplayScore, DetectionBeforeInjectionDoesNotCount)
{
    const Incident inc =
        labeledIncident("node_crash", 5, seconds(10));
    const IncidentScore s = scoreIncident(
        inc,
        {verdictOf(c4d::IncidentKind::NodeCrash, 5, seconds(9))});
    EXPECT_FALSE(s.truePositive);
    EXPECT_EQ(s.falsePositives, 1);
}

TEST(ReplayScore, LinkScopedMatchUsesMembership)
{
    Incident inc = labeledIncident("link_failure", kInvalidId, 0);
    inc.label.culpritLinks = {518, 519};
    c4d::IncidentVerdict hit =
        verdictOf(c4d::IncidentKind::LinkFailure, kInvalidId, seconds(1));
    hit.link = 519;
    EXPECT_TRUE(scoreIncident(inc, {hit}).truePositive);
    hit.link = 7;
    EXPECT_FALSE(scoreIncident(inc, {hit}).truePositive);
}

TEST(ReplayScore, NoneLabelMakesEveryVerdictNoise)
{
    Incident inc = labeledIncident("none", kInvalidId, 0);
    EXPECT_EQ(scoreIncident(inc, {}).outcome, "clean");
    const IncidentScore noisy = scoreIncident(
        inc,
        {verdictOf(c4d::IncidentKind::LinkFailure, kInvalidId,
                   seconds(1))});
    EXPECT_EQ(noisy.outcome, "noisy");
    EXPECT_EQ(noisy.falsePositives, 1);
}

TEST(ReplayScore, AggregateRollsUpPrecisionRecallAndTtd)
{
    IncidentScore tp;
    tp.truePositive = true;
    tp.ttdSeconds = 10.0;
    IncidentScore tp2 = tp;
    tp2.ttdSeconds = 30.0;
    tp2.falsePositives = 1;
    IncidentScore fn;
    fn.falseNegative = true;
    const ScoreReport r = aggregateScores({tp, tp2, fn});
    EXPECT_EQ(r.tp, 2);
    EXPECT_EQ(r.fp, 1);
    EXPECT_EQ(r.fn, 1);
    EXPECT_DOUBLE_EQ(r.precision, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(r.recall, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(r.meanTtdSeconds, 20.0);
    EXPECT_DOUBLE_EQ(r.maxTtdSeconds, 30.0);
}

TEST(ReplayScore, EmptyCorpusScoresPerfect)
{
    const ScoreReport r = aggregateScores({});
    EXPECT_DOUBLE_EQ(r.precision, 1.0);
    EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST(ReplayScore, CommittedCorpusClearsTheGateFloors)
{
    std::vector<IncidentScore> scores;
    for (const Incident &inc : collectIncidents(kCorpusDir)) {
        const trace::TraceFile tf = trace::loadTraceFile(inc.tracePath);
        scores.push_back(scoreIncident(inc, replayTrace(tf.events)));
    }
    const ScoreReport r = aggregateScores(std::move(scores));
    EXPECT_GE(r.precision, 0.9);
    EXPECT_GE(r.recall, 0.9);
}

} // namespace
} // namespace c4::replay
