/**
 * @file
 * Spec workbench: drive the specio subsystem as a library. A workload
 * is authored as a spec *document* (here, an embedded string; pass a
 * path to load your own file), parsed with full validation, run
 * through the scenario engine, and serialized back out — the same
 * parse/dump pipeline behind `c4bench --spec` / `--dump-spec`.
 *
 *   $ ./examples/spec_workbench                # embedded example
 *   $ ./examples/spec_workbench my_spec.json   # your spec file
 */

#include <cstdio>
#include <iostream>

#include "scenario/runner.h"
#include "specio/specio.h"

namespace {

// A complete workload, no C++ required: two cross-segment allreduce
// tenant groups, ECMP vs C4P, on the paper's testbed.
const char *kEmbeddedSpec = R"({
  "scenario": "workbench_demo",
  "title": "Spec workbench: 4 cross-leaf tenants, ECMP vs C4P",
  "seed": "0xDEC1",
  "variants": [
    {
      "variant": "ecmp",
      "allreduces": [{"tasks": 4, "iterations": 10}]
    },
    {
      "variant": "c4p",
      "features": {"c4p": true},
      "allreduces": [{"tasks": 4, "iterations": 10}]
    }
  ]
}
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace c4;

    specio::SpecFile file;
    try {
        file = argc > 1 ? specio::loadSpecFile(argv[1])
                        : specio::parseSpecFile(kEmbeddedSpec);
    } catch (const SpecError &e) {
        std::fprintf(stderr, "spec error: %s\n", e.what());
        return 2;
    }
    std::printf("loaded scenario '%s' with %zu variant(s)\n\n",
                file.name.c_str(), file.variants.size());

    const scenario::Scenario sc = specio::scenarioFromSpec(file);
    scenario::TableSink table(std::cout);
    scenario::ScenarioRunner runner;
    runner.addSink(table);
    const int rc = runner.run(sc);

    // The writer is the other half of the pipeline: what you ran is
    // exactly what a --dump-spec of it would say.
    std::printf("\ncanonical spec file for this run:\n%s",
                specio::writeSpecFile(file).c_str());
    return rc;
}
