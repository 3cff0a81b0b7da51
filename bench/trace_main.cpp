/**
 * @file
 * c4trace — inspect the deterministic JSONL that `c4bench` writes:
 * event traces (`--trace DIR`) and metric snapshots (`--metrics DIR`).
 *
 *   c4trace summary PATH...        per-kind event counts, value stats
 *                                  and the costliest fabric recomputes
 *                                  over the traces, then a per-metric
 *                                  rollup (kind, ticks, last value,
 *                                  window percentiles) over the
 *                                  snapshots
 *   c4trace timeline PATH...       traces as a human-readable log;
 *                                  several trial traces interleave by
 *                                  simulated time
 *   c4trace tail PATH... [--ticks N]
 *                                  the last N sampling ticks of each
 *                                  snapshot, one line per sample
 *   c4trace diff A.jsonl B.jsonl [--context N]
 *                                  byte-compare two files of either
 *                                  format and report the first
 *                                  divergence with context — exit 0
 *                                  identical, 1 divergent
 *
 * PATH is a .jsonl file or a directory searched recursively. A file's
 * first bytes tell its format: a snapshot starts with its
 * `{"schema":` header (obs::isSnapshotText), and anything else goes
 * through the strict trace parser.
 *
 * Because a trial's trace and snapshot are byte-identical across
 * thread counts and reruns with the same seed, `diff` pinpoints
 * exactly where a nondeterministic change first bites — long before
 * it surfaces (or hides) in an end-of-run CSV aggregate.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/jsonl_files.h"
#include "obs/analyze.h"
#include "trace/analyze.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s summary PATH...\n"
        "       %s timeline PATH...\n"
        "       %s tail PATH... [--ticks N]\n"
        "       %s diff A.jsonl B.jsonl [--context N]\n"
        "\n"
        "PATH is a .jsonl event trace or metric snapshot, or a\n"
        "directory (every *.jsonl under it, recursively).\n"
        "`c4bench <scenario> --trace DIR` writes traces and\n"
        "`--metrics DIR` writes snapshots; summary reads both,\n"
        "timeline reads traces and tail reads snapshots.\n",
        argv0, argv0, argv0, argv0);
}

/** Everything the PATH arguments name, split by format. */
struct Inputs
{
    std::vector<c4::trace::TraceFile> traces;
    std::vector<c4::obs::SnapshotFile> snapshots;
};

bool
startsLikeSnapshot(const std::string &path)
{
    char head[16];
    std::ifstream in(path, std::ios::binary);
    in.read(head, sizeof(head));
    return c4::obs::isSnapshotText(
        std::string_view(head, static_cast<std::size_t>(in.gcount())));
}

/**
 * Expand each path and load the files it names. `timeline` takes
 * traces only and `tail` snapshots only.
 * @throws std::runtime_error on a bad path, a bad file, or a file of
 *         the format @p command does not read.
 */
Inputs
loadAll(const std::vector<std::string> &paths, const std::string &command)
{
    Inputs in;
    for (const std::string &path : paths) {
        for (const std::string &file : c4::collectJsonlFiles(path)) {
            if (!startsLikeSnapshot(file)) {
                if (command == "tail") {
                    throw std::runtime_error(
                        "'" + file + "' is not a metric snapshot; "
                        "`c4trace timeline` reads event traces");
                }
                in.traces.push_back(c4::trace::loadTraceFile(file));
            } else if (command == "timeline") {
                throw std::runtime_error(
                    "'" + file + "' is a metric snapshot; "
                    "`c4trace tail` reads snapshots");
            } else {
                in.snapshots.push_back(c4::obs::loadSnapshotFile(file));
            }
        }
    }
    return in;
}

/**
 * Split the arguments into paths and the command's one numeric
 * option @p flag (none when null), bounded to [@p lo, @p hi].
 * @return false on a usage error.
 */
bool
parseArgs(int argc, char **argv, const char *flag, long lo, long hi,
          int &value, std::vector<std::string> &paths)
{
    for (int i = 0; i < argc; ++i) {
        if (flag && std::strcmp(argv[i], flag) == 0) {
            // A missing or empty value parses no digit: end == arg.
            const char *arg = i + 1 < argc ? argv[++i] : "";
            char *end = nullptr;
            const long v = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || v < lo || v > hi)
                return false;
            value = static_cast<int>(v);
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return false;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    return true;
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

    const char *flag = nullptr;
    long lo = 0, hi = 0;
    int value = 0;
    if (command == "tail") {
        flag = "--ticks";
        lo = 1;
        hi = 100000;
        value = 5;
    } else if (command == "diff") {
        flag = "--context";
        hi = 100;
        value = 3;
    } else if (command != "summary" && command != "timeline") {
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        usage(argv[0]);
        return 2;
    }
    std::vector<std::string> paths;
    if (!parseArgs(argc - 2, argv + 2, flag, lo, hi, value, paths) ||
        paths.empty() || (command == "diff" && paths.size() != 2)) {
        usage(argv[0]);
        return 2;
    }

    try {
        if (command == "diff")
            return c4::diffJsonlFiles(paths[0], paths[1], std::cout,
                                      value);
        const Inputs in = loadAll(paths, command);
        if (command == "timeline") {
            c4::trace::printTimeline(in.traces, std::cout);
        } else if (command == "tail") {
            c4::obs::printTail(in.snapshots, value, std::cout);
        } else {
            if (!in.traces.empty())
                c4::trace::printSummary(in.traces, std::cout);
            if (!in.traces.empty() && !in.snapshots.empty())
                std::cout << "\n";
            if (!in.snapshots.empty())
                c4::obs::printSummary(in.snapshots, std::cout);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    return 0;
}
