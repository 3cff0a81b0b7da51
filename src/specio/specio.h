/**
 * @file
 * Spec files: the on-disk, declarative form of a scenario.
 *
 * A spec file is a JSON-subset document holding everything a Scenario
 * registration holds except code — name, presentation strings, trial
 * counts, seed, and the full variant list as ScenarioSpec data. Loading
 * one registers a scenario at runtime (`c4bench --spec file.json`), so
 * authoring a new workload is editing a text file, not recompiling;
 * dumping one (`c4bench --dump-spec NAME`) turns any built-in scenario
 * into a copy-editable starting point.
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
};

/**
 * Capture a registered scenario as data. The variant factory is
 * evaluated under @p opt, so the dump freezes whatever --smoke /
 * --trials / --seed shape was in effect (dump with and without --smoke
 * to capture both shapes).
 */
SpecFile specFromScenario(const scenario::Scenario &scenario,
                          const scenario::RunOptions &opt);

/**
 * Turn loaded spec data back into a runnable Scenario whose variant
 * factory returns the stored specs regardless of options.
 */
scenario::Scenario scenarioFromSpec(const SpecFile &file);

/** Serialize canonically (byte-stable under parse + re-write). */
std::string writeSpecFile(const SpecFile &file);

/**
 * Parse and bind a spec document; every variant is validated with
 * validateSpec.
 * @throws SpecError with line/column on malformed or mistyped input.
 */
SpecFile parseSpecFile(const std::string &text);

/**
 * Read @p path and parse it.
 * @throws SpecError, with the path prefixed to the message.
 */
SpecFile loadSpecFile(const std::string &path);

/**
 * Install the --spec / --dump-spec handlers into the scenario CLI
 * (scenario::setSpecCliHooks). Call once from a bench main() before
 * scenarioMain(); binaries that skip this simply reject the flags.
 */
void installSpecCliHooks();

} // namespace c4::specio

#endif // C4_SPECIO_SPECIO_H
