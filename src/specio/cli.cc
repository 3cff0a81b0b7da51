#include "specio/specio.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cli.h"
#include "scenario/runner.h"
#include "scenario/sink.h"

namespace c4::specio {

using namespace scenario;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <scenario...> [options]\n"
        "       %s --list | --all [options]\n"
        "       %s --spec FILE[,FILE...] [options]\n"
        "       %s --dump-spec NAME [options]\n"
        "\n"
        "options:\n"
        "  --smoke        seconds-scale pass; numbers are NOT "
        "paper-comparable\n"
        "  --trials N     trials per variant (default: per scenario)\n"
        "  --threads N    parallel trial workers (default: hardware)\n"
        "  --seed S       base seed (decimal or 0x hex)\n"
        "  --csv FILE     write per-trial rows as CSV (one file can\n"
        "                 hold all scenarios of one invocation);\n"
        "                 FILE '-' streams CSV to stdout for piping\n"
        "                 and suppresses the table\n"
        "  --json FILE    write results as JSON\n"
        "  --trace DIR    write per-trial event traces (JSONL) and a\n"
        "                 per-scenario Chrome trace under DIR; inspect\n"
        "                 with c4trace summary|timeline|diff\n"
        "  --trace-filter KINDS\n"
        "                 record only these comma-separated event\n"
        "                 kinds (e.g. fault_injected,recompute_end)\n"
        "  --metrics DIR  write per-trial metric snapshots (c4metrics\n"
        "                 JSONL) under DIR; inspect with c4trace\n"
        "                 summary|tail|diff\n"
        "  --metrics-period S\n"
        "                 sampling cadence in simulated seconds\n"
        "                 (default 1.0; needs --metrics)\n"
        "  --list         list registered scenarios and exit\n"
        "  --all          run every registered scenario\n"
        "  --spec FILES   load scenarios from spec files and run them\n"
        "                 (a positional argument ending in .json is\n"
        "                 treated as a spec file too); a file naming\n"
        "                 a registered scenario replaces it\n"
        "  --dump-spec NAME\n"
        "                 write NAME as a spec file to stdout and\n"
        "                 exit; variants are frozen under the other\n"
        "                 flags (--smoke, --trials, --seed)\n",
        argv0, argv0, argv0, argv0);
}

} // namespace

int
scenarioMain(int argc, char **argv)
{
    RunOptions opt;
    std::vector<std::string> names;
    std::vector<std::string> specPaths;
    std::string dumpName;
    std::string csvPath, jsonPath;
    bool list = false;
    bool all = false;
    bool traceFilterSet = false;
    bool metricsPeriodSet = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(arg, "--list") == 0) {
            list = true;
        } else if (std::strcmp(arg, "--all") == 0) {
            all = true;
        } else if (std::strcmp(arg, "--trials") == 0) {
            const char *v = value("--trials");
            if (!v || !parseCliInt(v, opt.trials)) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strcmp(arg, "--threads") == 0) {
            const char *v = value("--threads");
            if (!v || !parseCliInt(v, opt.threads)) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strcmp(arg, "--seed") == 0) {
            const char *v = value("--seed");
            if (!v || !parseCliSeed(v, opt.seed)) {
                usage(argv[0]);
                return 2;
            }
            opt.seedSet = true;
        } else if (std::strcmp(arg, "--csv") == 0) {
            const char *v = value("--csv");
            if (!v) {
                usage(argv[0]);
                return 2;
            }
            csvPath = v;
        } else if (std::strcmp(arg, "--json") == 0) {
            const char *v = value("--json");
            if (!v) {
                usage(argv[0]);
                return 2;
            }
            jsonPath = v;
        } else if (std::strcmp(arg, "--trace") == 0) {
            const char *v = value("--trace");
            if (!v || *v == '\0') {
                usage(argv[0]);
                return 2;
            }
            opt.traceDir = v;
        } else if (std::strcmp(arg, "--trace-filter") == 0) {
            const char *v = value("--trace-filter");
            if (!v) {
                usage(argv[0]);
                return 2;
            }
            const std::string err =
                trace::parseKindFilter(v, opt.traceFilter);
            if (!err.empty()) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return 2;
            }
            traceFilterSet = true;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            const char *v = value("--metrics");
            if (!v || *v == '\0') {
                usage(argv[0]);
                return 2;
            }
            opt.metricsDir = v;
        } else if (std::strcmp(arg, "--metrics-period") == 0) {
            const char *v = value("--metrics-period");
            char *end = nullptr;
            const double sec = v ? std::strtod(v, &end) : 0.0;
            if (!v || end == v || *end != '\0' || !(sec > 0.0) ||
                sec > 86400.0) {
                std::fprintf(stderr, "--metrics-period needs a "
                                     "positive number of seconds\n");
                return 2;
            }
            opt.metricsPeriod = seconds(sec);
            metricsPeriodSet = true;
        } else if (std::strcmp(arg, "--spec") == 0) {
            const char *v = value("--spec");
            if (!v) {
                usage(argv[0]);
                return 2;
            }
            splitCommaList(v, specPaths);
        } else if (std::strcmp(arg, "--dump-spec") == 0) {
            const char *v = value("--dump-spec");
            if (!v) {
                usage(argv[0]);
                return 2;
            }
            if (!dumpName.empty()) {
                // Concatenated documents would not reload; one
                // scenario per dump.
                std::fprintf(stderr,
                             "--dump-spec may be given only once\n");
                return 2;
            }
            dumpName = v;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(argv[0]);
            return 2;
        } else if (looksLikeSpecPath(arg)) {
            // `c4bench --spec specs/*.json` shell-expands into
            // positional paths after the first; treat them all as
            // spec files.
            specPaths.emplace_back(arg);
        } else {
            names.emplace_back(arg);
        }
    }

    Registry &registry = Registry::instance();

    if (traceFilterSet && opt.traceDir.empty()) {
        std::fprintf(stderr, "--trace-filter needs --trace DIR\n");
        return 2;
    }
    if (metricsPeriodSet && opt.metricsDir.empty()) {
        std::fprintf(stderr,
                     "--metrics-period needs --metrics DIR\n");
        return 2;
    }
    for (const std::string &path : specPaths) {
        try {
            const SpecFile file = loadSpecFile(path);
            if (registry.addOrReplace(scenarioFromSpec(file))) {
                std::fprintf(stderr,
                             "note: spec file '%s' replaces registered "
                             "scenario '%s'\n",
                             path.c_str(), file.name.c_str());
            }
            if (std::find(names.begin(), names.end(), file.name) ==
                names.end()) {
                names.push_back(file.name);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    if (!dumpName.empty()) {
        const Scenario *s = registry.find(dumpName);
        if (!s) {
            std::fprintf(stderr,
                         "unknown scenario '%s' (try --list)\n",
                         dumpName.c_str());
            return 2;
        }
        const ScenarioRunner runner(opt);
        const std::string text =
            writeSpecFile(specFromScenario(*s, runner.resolved(*s)));
        std::fwrite(text.data(), 1, text.size(), stdout);
        return 0;
    }
    if (list) {
        for (const Scenario *s : registry.all())
            std::printf("%-24s %s\n", s->name.c_str(),
                        s->title.c_str());
        return 0;
    }

    std::vector<const Scenario *> targets;
    if (all) {
        targets = registry.all();
    } else {
        for (const std::string &name : names) {
            const Scenario *s = registry.find(name);
            if (!s) {
                std::fprintf(stderr,
                             "unknown scenario '%s' (try --list)\n",
                             name.c_str());
                return 2;
            }
            targets.push_back(s);
        }
    }
    if (targets.empty()) {
        usage(argv[0]);
        return 2;
    }

    // `--csv -` hands stdout to the CSV stream (shard workers pipe
    // results to their parent), so everything else that normally goes
    // to stdout — the banner and the table — must move or go away.
    const bool csvToStdout = csvPath == "-";
    if (opt.smoke) {
        std::fprintf(csvToStdout ? stderr : stdout,
                     "[smoke] reduced trials/iterations/horizons; "
                     "numbers are not paper-comparable\n");
    }

    std::ofstream csvFile, jsonFile;
    std::vector<std::unique_ptr<ResultSink>> sinks;
    if (!csvToStdout)
        sinks.push_back(std::make_unique<TableSink>(std::cout));
    if (csvToStdout) {
        sinks.push_back(std::make_unique<CsvSink>(std::cout));
    } else if (!csvPath.empty()) {
        csvFile.open(csvPath);
        if (!csvFile) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         csvPath.c_str());
            return 2;
        }
        sinks.push_back(std::make_unique<CsvSink>(csvFile));
    }
    if (!jsonPath.empty()) {
        jsonFile.open(jsonPath);
        if (!jsonFile) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         jsonPath.c_str());
            return 2;
        }
        sinks.push_back(std::make_unique<JsonSink>(jsonFile));
    }

    ScenarioRunner runner(opt);
    for (auto &sink : sinks)
        runner.addSink(*sink);

    int rc = 0;
    for (const Scenario *s : targets)
        rc = runner.run(*s) != 0 ? 1 : rc;
    return rc;
}

} // namespace c4::specio
