/**
 * @file
 * Spec files: the on-disk, declarative form of a scenario.
 *
 * A spec file is a JSON-subset document holding everything a Scenario
 * registration holds except code — name, presentation strings, trial
 * counts, seed, the full variant list as ScenarioSpec data, the smoke
 * overrides, and the paper claims. Loading one registers a scenario
 * at runtime (`c4bench --spec file.json`), so authoring a new workload
 * is editing a text file, not recompiling; c4bench embeds the paper
 * scenarios in `specs/paper/` the same way at build time. Dumping one
 * (`c4bench --dump-spec NAME`) freezes any registered scenario at one
 * fidelity into a copy-editable starting point.
 *
 * The mapping is byte-stable: writeSpecFile(parseSpecFile(text)) ==
 * text for any text writeSpecFile produced. The binder reports unknown
 * keys with line/column and a nearest-known-key suggestion ("unknown
 * key \"oversubscripton\" ... did you mean \"oversubscription\"?").
 *
 * Durations are written in seconds with exact decimal text derived
 * from the integer nanosecond value, and parsed back with integer
 * arithmetic, so no float round-trip can perturb a schedule.
 *
 * Variants whose built-in registration installs a `custom` executor
 * (code, not data) dump as `"custom": true`; such a variant re-loads
 * into a stub that fails with a clear message if actually run.
 */

#ifndef C4_SPECIO_SPECIO_H
#define C4_SPECIO_SPECIO_H

#include <string>
#include <vector>

#include "common/json.h"
#include "scenario/registry.h"

namespace c4::specio {

/**
 * The `smoke` key: how `--smoke` shrinks the file's variants. Smoke
 * runs the named variants, in file order (every variant when empty),
 * with each variant's horizon and each allreduce group's iteration
 * count replaced when set. Nothing else differs between fidelities.
 */
struct SmokeSpec
{
    std::vector<std::string> variants;
    Duration horizon = 0; ///< 0 keeps each variant's own
    int iterations = 0;   ///< 0 keeps each group's own
};

/** A Scenario as pure data: what a spec file stores. */
struct SpecFile
{
    std::string name;
    std::string title;
    std::string description;
    std::string notes;
    int fullTrials = 1;
    int smokeTrials = 1;

    /** Shard trial range (`trial_begin` / `trial_count` keys); the
     * default covers the whole sweep. See Scenario::trialBegin. */
    int trialBegin = 0;
    int trialCount = 0;

    std::uint64_t seed = 0xC4C10C4Dull;
    std::vector<scenario::ScenarioSpec> variants;

    /** Written after "variants", and only when non-empty. */
    SmokeSpec smoke;
    std::vector<scenario::Claim> claims;
};

/**
 * Capture a registered scenario as data. The variant factory is
 * evaluated under @p opt, so the dump freezes whatever --smoke /
 * --trials / --seed shape was in effect (dump with and without --smoke
 * to capture both shapes) and has no smoke overrides; it keeps the
 * claims whose two variants are in it.
 */
SpecFile specFromScenario(const scenario::Scenario &scenario,
                          const scenario::RunOptions &opt);

/**
 * Turn loaded spec data back into a runnable Scenario whose variant
 * factory returns the stored specs, shrunk by the smoke overrides
 * under --smoke.
 */
scenario::Scenario scenarioFromSpec(const SpecFile &file);

/** Serialize canonically (byte-stable under parse + re-write). */
std::string writeSpecFile(const SpecFile &file);

/**
 * Parse and bind a spec document; every variant is validated with
 * validateSpec, the smoke variants must be a subsequence of the
 * variant list, and every claim must name two of its variants.
 * @throws SpecError with line/column on malformed or mistyped input.
 */
SpecFile parseSpecFile(const std::string &text);

/**
 * Read @p path and parse it.
 * @throws SpecError, with the path prefixed to the message.
 */
SpecFile loadSpecFile(const std::string &path);

/**
 * The unified scenario CLI, c4bench's whole main():
 *
 *   c4bench <scenario...> [--smoke] [--trials N] [--threads N]
 *           [--seed S] [--csv FILE] [--json FILE]
 *   c4bench --list              # enumerate registered scenarios
 *   c4bench --all [...]        # run everything
 *   c4bench --spec file.json   # register + run a spec file from disk
 *   c4bench --dump-spec NAME   # export a scenario as a spec file
 *
 * Parses argv, resolves scenarios against the registry, and runs them.
 * @return process exit code (0 ok, 1 run failure, 2 usage error).
 */
int scenarioMain(int argc, char **argv);

} // namespace c4::specio

#endif // C4_SPECIO_SPECIO_H
