/**
 * @file
 * The unified bench binary: every paper figure, table, ablation, and
 * extra workload is a scenario registered by the translation units
 * linked alongside this main. `c4bench --list` enumerates them;
 * `c4bench <name> --smoke` is what CTest runs under the bench-smoke
 * label. The command line is specio::scenarioMain.
 */

#include "specio/specio.h"

int
main(int argc, char **argv)
{
    return c4::specio::scenarioMain(argc, argv);
}
