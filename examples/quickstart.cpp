/**
 * @file
 * Quickstart: build the paper's 16-node testbed and run an
 * nccl-test-style allreduce benchmark twice — once with stock ECMP
 * routing and once with C4P traffic engineering — through the scenario
 * engine. Shows the engine used as a library: declare two variant
 * specs and a claim on their busbw ratio, and run them with a table
 * sink.
 *
 *   $ ./examples/quickstart
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/workload.h"

using namespace c4;
using namespace c4::scenario;

namespace {

ScenarioSpec
allreduce(bool enableC4p)
{
    ScenarioSpec spec;
    spec.variant = enableC4p ? "c4p_te" : "ecmp";
    spec.features.c4p = enableC4p;

    // Four nodes under different leaf pairs: traffic crosses the
    // spines and every ring boundary is a dual-port collision
    // opportunity.
    AllreduceGroupSpec g;
    g.tasks = 1;
    g.placement = AllreduceGroupSpec::Placement::Explicit;
    g.explicitNodes = {{0, 4, 8, 12}};
    g.bytes = mib(256);
    g.iterations = 20;
    spec.allreduces.push_back(g);
    return spec;
}

} // namespace

int
main()
{
    std::printf("C4 quickstart: 32-GPU ring allreduce, 256 MiB\n");
    std::printf("  topology : %s\n",
                net::Topology(core::paperTestbed()).summary().c_str());

    Scenario sc;
    sc.name = "quickstart";
    sc.title = "Quickstart: ring allreduce busbw, ECMP vs C4P";
    sc.variants = [](const RunOptions &) {
        return std::vector<ScenarioSpec>{allreduce(false),
                                         allreduce(true)};
    };
    sc.claims = {{
        .label = "C4P / ECMP busbw",
        .metric = "busbw_mean",
        .variant = "c4p_te",
        .baseline = "ecmp",
        .expect = Claim::Expect::Above,
    }};

    TableSink table(std::cout);
    ScenarioRunner runner;
    runner.addSink(table);
    const int rc = runner.run(sc);

    std::printf("\nThe NVLink fabric caps busbw at 362 Gbps (paper "
                "Section IV-B); the gap\nto the baseline comes from "
                "dual-port RX imbalance and spine collisions.\n");
    return rc;
}
