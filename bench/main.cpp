/**
 * @file
 * The unified bench binary: every paper figure, table, ablation, and
 * extra workload is a scenario registered by the translation units
 * linked alongside this main. `c4bench --list` enumerates them;
 * `c4bench <name> --smoke` is what CTest runs under the bench-smoke
 * label. Spec-file support (--spec / --dump-spec) comes from specio.
 */

#include "scenario/cli.h"
#include "specio/specio.h"

int
main(int argc, char **argv)
{
    c4::specio::installSpecCliHooks();
    return c4::scenario::scenarioMain(argc, argv);
}
