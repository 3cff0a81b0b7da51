/**
 * @file
 * c4replay — feed recorded event traces back through the C4D incident
 * analyzer, with no live simulator, and score the verdicts against
 * ground-truth labels.
 *
 *   c4replay run TRACE [--label F]    replay one trace; print its
 *                                     verdicts as canonical JSONL (and
 *                                     score them when a label is given)
 *   c4replay summary DIR              corpus table: per incident, the
 *                                     label, trace size, verdict count
 *   c4replay score DIR [options]      replay + score every incident:
 *       --min-precision P             fail (exit 1) below P
 *       --min-recall R                fail (exit 1) below R
 *       --golden F                    byte-compare the verdict JSONL
 *                                     against F; divergence fails
 *       --write-golden F              write the verdict JSONL to F
 *       --report F                    write the score table to F
 *   c4replay capture OUTDIR [--only a,b]
 *                                     re-simulate the built-in incident
 *                                     scenarios and (re)write OUTDIR's
 *                                     traces, labels, and golden
 *
 * The committed corpus lives in tests/incidents/; `ctest -L replay`
 * drives `score` with the precision/recall floors and the golden diff.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/jsonl_files.h"
#include "replay/capture.h"
#include "replay/replay.h"
#include "replay/score.h"
#include "scenario/cli.h"
#include "trace/analyze.h"
#include "trace/export.h"

namespace {

using namespace c4;

constexpr const char *kGoldenName = "golden_verdicts.jsonl";

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s run TRACE.jsonl [--label FILE.json]\n"
        "       %s summary DIR\n"
        "       %s score DIR [--min-precision P] [--min-recall R]\n"
        "                    [--golden FILE] [--write-golden FILE]\n"
        "                    [--report FILE]\n"
        "       %s capture OUTDIR [--only name,name...]\n"
        "\n"
        "DIR holds <name>.trace.jsonl + <name>.label.json pairs\n"
        "(tests/incidents/ is the committed corpus).\n",
        argv0, argv0, argv0, argv0);
}

std::string
incidentNameOf(const std::string &path)
{
    std::string stem = std::filesystem::path(path).filename().string();
    const std::string suffix = ".trace.jsonl";
    if (stem.size() > suffix.size() && stem.ends_with(suffix))
        return stem.substr(0, stem.size() - suffix.size());
    return std::filesystem::path(path).stem().string();
}

int
mainRun(int argc, char **argv, const char *argv0)
{
    std::string tracePath, labelPath;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
            labelPath = argv[++i];
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage(argv0);
            return 2;
        } else if (tracePath.empty()) {
            tracePath = argv[i];
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (tracePath.empty()) {
        usage(argv0);
        return 2;
    }

    const std::string name = incidentNameOf(tracePath);
    const std::vector<c4d::IncidentVerdict> verdicts =
        replay::replayTrace(trace::loadTraceFile(tracePath).events);
    std::fputs(replay::verdictsToJsonl(name, verdicts).c_str(), stdout);

    if (!labelPath.empty()) {
        replay::Incident inc;
        inc.name = name;
        inc.tracePath = tracePath;
        inc.label = replay::labelFromJson(readFile(labelPath));
        const replay::IncidentScore s =
            replay::scoreIncident(inc, verdicts);
        std::printf("# outcome=%s", s.outcome.c_str());
        if (s.truePositive)
            std::printf(" ttd_s=%.3f", s.ttdSeconds);
        std::printf("\n");
        if (s.outcome != "detected" && s.outcome != "clean")
            return 1;
    }
    return 0;
}

int
mainSummary(const std::string &dir)
{
    const std::vector<replay::Incident> incidents =
        replay::collectIncidents(dir);
    std::printf("%-32s %-18s %8s %8s\n", "incident", "label", "events",
                "verdicts");
    for (const replay::Incident &inc : incidents) {
        const std::vector<trace::Event> events =
            trace::loadTraceFile(inc.tracePath).events;
        const std::vector<c4d::IncidentVerdict> verdicts =
            replay::replayTrace(events);
        std::printf("%-32s %-18s %8zu %8zu\n", inc.name.c_str(),
                    inc.label.rootCause.c_str(), events.size(),
                    verdicts.size());
    }
    return 0;
}

/**
 * A precision/recall floor: the whole of @p text is a number in
 * [0, 1]; anything else is reported against @p flag.
 */
bool
parseFloor(const char *flag, const std::string &text, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
        std::fprintf(stderr, "%s needs a number in [0, 1], not '%s'\n",
                     flag, text.c_str());
        return false;
    }
    out = v;
    return true;
}

int
mainScore(int argc, char **argv, const char *argv0)
{
    std::string dir, goldenPath, writeGoldenPath, reportPath;
    double minPrecision = -1.0, minRecall = -1.0;
    for (int i = 0; i < argc; ++i) {
        const auto optValue = [&](const char *flag,
                                  std::string &out) {
            if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string num;
        if (optValue("--golden", goldenPath) ||
            optValue("--write-golden", writeGoldenPath) ||
            optValue("--report", reportPath)) {
            continue;
        }
        if (optValue("--min-precision", num)) {
            if (!parseFloor("--min-precision", num, minPrecision)) {
                usage(argv0);
                return 2;
            }
        } else if (optValue("--min-recall", num)) {
            if (!parseFloor("--min-recall", num, minRecall)) {
                usage(argv0);
                return 2;
            }
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage(argv0);
            return 2;
        } else if (dir.empty()) {
            dir = argv[i];
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (dir.empty()) {
        usage(argv0);
        return 2;
    }

    const std::vector<replay::Incident> incidents =
        replay::collectIncidents(dir);
    std::vector<replay::IncidentScore> scores;
    std::string goldenText;
    for (const replay::Incident &inc : incidents) {
        const std::vector<c4d::IncidentVerdict> verdicts =
            replay::replayTrace(trace::loadTraceFile(inc.tracePath).events);
        goldenText += replay::verdictsToJsonl(inc.name, verdicts);
        scores.push_back(replay::scoreIncident(inc, verdicts));
    }
    const replay::ScoreReport report =
        replay::aggregateScores(std::move(scores));
    const std::string table = replay::formatScoreReport(report);
    std::fputs(table.c_str(), stdout);
    if (!reportPath.empty())
        writeFile(reportPath, table);
    if (!writeGoldenPath.empty())
        writeFile(writeGoldenPath, goldenText);

    int rc = 0;
    if (!goldenPath.empty()) {
        const std::string want = readFile(goldenPath);
        if (want != goldenText) {
            std::fprintf(stderr,
                         "FAIL: verdicts diverge from golden %s "
                         "(%zu vs %zu bytes); rerun with "
                         "--write-golden after an intentional "
                         "detector change\n",
                         goldenPath.c_str(), goldenText.size(),
                         want.size());
            rc = 1;
        }
    }
    if (minPrecision >= 0.0 && report.precision < minPrecision) {
        std::fprintf(stderr, "FAIL: precision %.3f < %.3f\n",
                     report.precision, minPrecision);
        rc = 1;
    }
    if (minRecall >= 0.0 && report.recall < minRecall) {
        std::fprintf(stderr, "FAIL: recall %.3f < %.3f\n",
                     report.recall, minRecall);
        rc = 1;
    }
    return rc;
}

int
mainCapture(int argc, char **argv, const char *argv0)
{
    std::string outDir;
    std::vector<std::string> only; // empty: the whole corpus
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            const std::size_t given = only.size();
            scenario::splitCommaList(argv[++i], only);
            if (only.size() == given) {
                std::fprintf(stderr, "--only needs incident names\n");
                return 2;
            }
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage(argv0);
            return 2;
        } else if (outDir.empty()) {
            outDir = argv[i];
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (outDir.empty()) {
        usage(argv0);
        return 2;
    }

    const std::vector<std::string> names =
        only.empty() ? replay::captureIncidentNames() : only;

    std::filesystem::create_directories(outDir);
    std::string goldenText;
    for (const std::string &name : names) {
        const replay::CaptureResult cap =
            replay::captureIncident(name);
        const std::filesystem::path base(outDir);
        writeFile((base / (name + ".trace.jsonl")).string(),
                  trace::writeJsonl(cap.events));
        writeFile((base / (name + ".label.json")).string(),
                  replay::writeLabelJson(cap.label));
        const std::vector<c4d::IncidentVerdict> verdicts =
            replay::replayTrace(cap.events);
        goldenText += replay::verdictsToJsonl(name, verdicts);
        std::printf("%-32s %6zu events %3zu verdicts\n", name.c_str(),
                    cap.events.size(), verdicts.size());
    }
    // Goldens only make sense for the complete corpus: a partial
    // capture would byte-diff against a truncated file.
    if (only.empty()) {
        writeFile((std::filesystem::path(outDir) / kGoldenName).string(),
                  goldenText);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h") {
        usage(argv[0]);
        return 0;
    }
    try {
        if (command == "run")
            return mainRun(argc - 2, argv + 2, argv[0]);
        if (command == "summary" && argc == 3)
            return mainSummary(argv[2]);
        if (command == "score")
            return mainScore(argc - 2, argv + 2, argv[0]);
        if (command == "capture")
            return mainCapture(argc - 2, argv + 2, argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    usage(argv[0]);
    return 2;
}
