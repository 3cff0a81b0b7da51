/**
 * @file
 * c4sweep — the distributed-sweep driver over the scenario engine.
 *
 *   c4sweep plan --out DIR [opts] <scenario|spec.json>...
 *       split each target's trial sweep into per-shard spec files
 *       plus a journaled manifest (the work-item list)
 *   c4sweep run DIR [--bench PATH] [--workers N] [--retries N]
 *       execute pending shards as child `c4bench --spec ... --csv -`
 *       processes; finished shards are never re-run (resume)
 *   c4sweep merge DIR [--csv FILE]
 *       stitch the shard CSVs into output byte-identical to a
 *       single-process `c4bench --threads 1 --csv` run
 *   c4sweep status DIR [--watch]
 *       render the campaign dashboard once (shard states, retry
 *       budget burned, forensics bundles, the next step, and — for
 *       `run --metrics` campaigns — per-scenario throughput pulled
 *       from the shard metric snapshots), or keep re-rendering it
 *   c4sweep collect DIR HOST_DIR... [--report]
 *       pull shard results back from per-host campaign copies and
 *       reconcile the journals (`done` beats `pending`/`failed`;
 *       divergent `done` CSVs are a hard error), so `merge` then
 *       produces the byte-identical single-process CSV
 *   c4sweep forensics DIR
 *       score every failure bundle's trace through the offline
 *       incident analyzer and print the verdicts
 *
 * The same scenario registrations as c4bench are linked in, so `plan`
 * can shard any built-in scenario as well as spec files from disk.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/cli.h"
#include "sweep/collect.h"
#include "sweep/exec.h"
#include "sweep/forensics.h"
#include "sweep/manifest.h"
#include "sweep/merge.h"
#include "sweep/plan.h"
#include "sweep/watch.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s plan --out DIR [--shards N | --trials-per-shard N]\n"
        "               [--smoke] [--trials N] [--seed S]\n"
        "               <scenario|spec.json>...\n"
        "       %s run DIR [--bench PATH] [--workers N]\n"
        "               [--retries N] [--max-shards N] [--metrics]\n"
        "               [--no-forensics]\n"
        "               [--only id1,id2]   (shard ids from `status`;\n"
        "               unknown ids are an error — hand each host a\n"
        "               disjoint --only set for multi-host campaigns)\n"
        "       %s merge DIR [--csv FILE]   (FILE '-' = stdout)\n"
        "       %s status DIR [--watch [--interval S] [--max-ticks N]]\n"
        "       %s collect DIR HOST_DIR... [--only id1,id2] [--report]\n"
        "       %s forensics DIR\n"
        "\n"
        "A campaign directory holds shards/*.json (one spec file per\n"
        "trial-range shard), csv/ and logs/ (per-shard results),\n"
        "manifest.json (the journal `run` resumes from), and — after\n"
        "a shard exhausts its attempt budget — forensics/<shard.id>/\n"
        "failure bundles (`run` re-runs the shard once with --trace\n"
        "and --metrics; `collect --report` or `forensics` scores the\n"
        "bundled traces through the offline incident analyzer).\n",
        argv0, argv0, argv0, argv0, argv0, argv0);
}

// Value grammar shared with c4bench (scenario/cli.h), so a --trials
// or --seed copied between the two command lines means the same run.
using c4::scenario::parseCliInt;
using c4::scenario::parseCliSeed;

int
mainPlan(int argc, char **argv, const char *argv0)
{
    c4::sweep::PlanRequest request;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--out") {
            const char *v = value();
            if (!v) {
                usage(argv0);
                return 2;
            }
            request.dir = v;
        } else if (arg == "--shards") {
            const char *v = value();
            if (!v || !parseCliInt(v, request.shards)) {
                usage(argv0);
                return 2;
            }
        } else if (arg == "--trials-per-shard") {
            const char *v = value();
            if (!v || !parseCliInt(v, request.trialsPerShard)) {
                usage(argv0);
                return 2;
            }
        } else if (arg == "--smoke") {
            request.opt.smoke = true;
        } else if (arg == "--trials") {
            const char *v = value();
            if (!v || !parseCliInt(v, request.opt.trials)) {
                usage(argv0);
                return 2;
            }
        } else if (arg == "--seed") {
            const char *v = value();
            if (!v || !parseCliSeed(v, request.opt.seed)) {
                usage(argv0);
                return 2;
            }
            request.opt.seedSet = true;
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else {
            request.targets.push_back(arg);
        }
    }
    if (request.dir.empty()) {
        std::fprintf(stderr, "plan needs --out DIR\n");
        usage(argv0);
        return 2;
    }
    const std::string error =
        c4::sweep::planCampaign(request, std::cout);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return 0;
}

int
mainRun(int argc, char **argv, const char *argv0)
{
    c4::sweep::ExecRequest request;
    int retries = 1;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--bench") {
            const char *v = value();
            if (!v) {
                usage(argv0);
                return 2;
            }
            request.bench = v;
        } else if (arg == "--workers") {
            const char *v = value();
            if (!v || !parseCliInt(v, request.workers)) {
                usage(argv0);
                return 2;
            }
        } else if (arg == "--retries") {
            const char *v = value();
            char *end = nullptr;
            const long r = v ? std::strtol(v, &end, 10) : -1;
            if (!v || end == v || *end != '\0' || r < 0 || r > 100) {
                usage(argv0);
                return 2;
            }
            retries = static_cast<int>(r);
        } else if (arg == "--max-shards") {
            const char *v = value();
            if (!v || !parseCliInt(v, request.maxShards)) {
                usage(argv0);
                return 2;
            }
        } else if (arg == "--metrics") {
            request.metrics = true;
        } else if (arg == "--no-forensics") {
            request.forensics = false;
        } else if (arg == "--only") {
            const char *v = value();
            if (!v) {
                usage(argv0);
                return 2;
            }
            c4::scenario::splitCommaList(v, request.only);
            if (request.only.empty()) {
                std::fprintf(stderr, "--only needs shard ids\n");
                return 2;
            }
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else if (request.dir.empty()) {
            request.dir = arg;
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (request.dir.empty()) {
        std::fprintf(stderr, "run needs the campaign DIR\n");
        usage(argv0);
        return 2;
    }
    request.maxAttempts = retries + 1;
    c4::sweep::ExecStats stats;
    const std::string error =
        c4::sweep::runCampaign(request, stats, std::cout);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return stats.failed > 0 ? 1 : 0;
}

int
mainMerge(int argc, char **argv, const char *argv0)
{
    std::string dir, out;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
            if (i + 1 >= argc) {
                usage(argv0);
                return 2;
            }
            out = argv[++i];
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (dir.empty()) {
        std::fprintf(stderr, "merge needs the campaign DIR\n");
        usage(argv0);
        return 2;
    }
    if (out.empty())
        out = c4::sweep::campaignPath(dir, "merged.csv");
    // Diagnostics to stderr so `--csv -` pipes a clean CSV stream.
    const std::string error =
        c4::sweep::mergeCampaign(dir, out, std::cerr);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return 0;
}

int
mainStatus(int argc, char **argv, const char *argv0)
{
    std::string dir;
    bool watch = false;
    bool pacingGiven = false;
    c4::sweep::WatchOptions opt;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--watch") {
            watch = true;
        } else if (arg == "--interval") {
            const char *v = value();
            char *end = nullptr;
            const double sec = v ? std::strtod(v, &end) : -1.0;
            if (!v || end == v || *end != '\0' || sec < 0 ||
                sec > 3600) {
                usage(argv0);
                return 2;
            }
            opt.intervalSeconds = sec;
            pacingGiven = true;
        } else if (arg == "--max-ticks") {
            const char *v = value();
            if (!v || !parseCliInt(v, opt.maxTicks)) {
                usage(argv0);
                return 2;
            }
            pacingGiven = true;
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (dir.empty()) {
        std::fprintf(stderr, "status needs the campaign DIR\n");
        usage(argv0);
        return 2;
    }
    if (!watch) {
        if (pacingGiven) {
            std::fprintf(stderr,
                         "--interval and --max-ticks need --watch\n");
            return 2;
        }
        opt.intervalSeconds = 0;
        opt.maxTicks = 1;
    }
    return c4::sweep::watchCampaign(dir, opt, std::cout, std::cerr);
}

int
mainForensics(int argc, char **argv, const char *argv0)
{
    std::string dir;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            usage(argv0);
            return 2;
        }
    }
    if (dir.empty()) {
        std::fprintf(stderr, "forensics needs the campaign DIR\n");
        usage(argv0);
        return 2;
    }
    try {
        const c4::sweep::Manifest manifest =
            c4::sweep::loadManifest(dir);
        const std::string error =
            c4::sweep::forensicsReport(dir, manifest, std::cout);
        if (!error.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}

int
mainCollect(int argc, char **argv, const char *argv0)
{
    c4::sweep::CollectRequest request;
    bool report = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--report") {
            report = true;
        } else if (arg == "--only") {
            const char *v = value();
            if (!v) {
                usage(argv0);
                return 2;
            }
            c4::scenario::splitCommaList(v, request.only);
            if (request.only.empty()) {
                std::fprintf(stderr, "--only needs shard ids\n");
                return 2;
            }
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv0);
            return 2;
        } else if (request.dir.empty()) {
            request.dir = arg;
        } else {
            request.hosts.push_back(arg);
        }
    }
    if (request.dir.empty() || request.hosts.empty()) {
        std::fprintf(
            stderr,
            "collect needs the primary DIR and >= 1 HOST_DIR\n");
        usage(argv0);
        return 2;
    }
    c4::sweep::CollectStats stats;
    const std::string error =
        c4::sweep::collectCampaign(request, stats, std::cout);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    if (report) {
        try {
            const c4::sweep::Manifest manifest =
                c4::sweep::loadManifest(request.dir);
            const std::string reportError = c4::sweep::forensicsReport(
                request.dir, manifest, std::cout);
            if (!reportError.empty()) {
                std::fprintf(stderr, "%s\n", reportError.c_str());
                return 1;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
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
    if (command == "plan")
        return mainPlan(argc - 2, argv + 2, argv[0]);
    if (command == "run")
        return mainRun(argc - 2, argv + 2, argv[0]);
    if (command == "merge")
        return mainMerge(argc - 2, argv + 2, argv[0]);
    if (command == "status")
        return mainStatus(argc - 2, argv + 2, argv[0]);
    if (command == "collect")
        return mainCollect(argc - 2, argv + 2, argv[0]);
    if (command == "forensics")
        return mainForensics(argc - 2, argv + 2, argv[0]);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    usage(argv[0]);
    return 2;
}
