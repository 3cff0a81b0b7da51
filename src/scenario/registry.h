/**
 * @file
 * The named-scenario registry. A scenario is a name, a variant-spec
 * factory, presentation strings and the paper claims it checks;
 * registering one makes it runnable from the unified bench CLI
 * (`c4bench <name>`), listable (`--list`), and sweepable by the
 * ScenarioRunner. Most paper scenarios are spec files embedded into
 * c4bench; the few with custom executors are translation units
 * holding one `Register` object each.
 */

#ifndef C4_SCENARIO_REGISTRY_H
#define C4_SCENARIO_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "scenario/options.h"
#include "scenario/spec.h"

namespace c4::scenario {

/**
 * A ratio the paper reports, checked against a finished run. Its value
 * is `scale * mean(metric @ variant) / mean(metric @ baseline)`, with
 * means over each variant's trials, and it prints under the results
 * table when both variants ran and the baseline mean is > 0.
 */
struct Claim
{
    /** Which side of the baseline the variant should land on. */
    enum class Expect {
        None,  ///< no direction claimed; the value only
        Above, ///< mean(variant) > mean(baseline)
        Below, ///< mean(variant) < mean(baseline)
    };

    std::string label;    ///< what the ratio means
    std::string metric;   ///< the metric both means are taken over
    std::string variant;  ///< numerator variant
    std::string baseline; ///< denominator variant
    double scale = 1.0;   ///< multiplies the ratio (percent, per node)
    double paper = 0.0;   ///< the paper's value; 0 when it gives none
    Expect expect = Expect::None;
};

/** A registered, runnable scenario. */
struct Scenario
{
    std::string name;        ///< CLI handle, e.g. "fig9_dualport"
    std::string title;       ///< one-line table title
    std::string description; ///< what the paper shows; printed by --list -v
    std::string notes;       ///< paper-shape commentary after the table

    /** Trials per variant when the CLI does not override. */
    int fullTrials = 1;
    int smokeTrials = 1;

    /** Base seed when the CLI does not override. */
    std::uint64_t seed = 0xC4C10C4Dull;

    /**
     * Trial shard: execute only trials [trialBegin, trialBegin +
     * trialCount) of the resolved sweep (trialCount 0 = through the
     * last trial). Trial indices and per-trial seeds stay ABSOLUTE, so
     * a shard's results are byte-identical to the same rows of the
     * unsharded run — the property the c4sweep plan/run/merge pipeline
     * is built on. Set from the `trial_begin` / `trial_count` spec
     * keys; built-in registrations keep the full range.
     */
    int trialBegin = 0;
    int trialCount = 0;

    /**
     * Produce the variant specs for a run. Must be a pure function of
     * the options (the runner may call it more than once).
     */
    std::function<std::vector<ScenarioSpec>(const RunOptions &)> variants;

    /** Paper ratios printed under the table (see Claim). */
    std::vector<Claim> claims;
};

/** Global name -> Scenario registry. */
class Registry
{
  public:
    static Registry &instance();

    /** @throws std::invalid_argument on a duplicate or empty name. */
    void add(Scenario scenario);

    /**
     * Insert a dynamically-built scenario (a spec file loaded from
     * disk), replacing any same-named registration — that is what lets
     * a copy-edited `--dump-spec` output shadow its built-in twin.
     * @return true when an existing scenario was replaced.
     * @throws std::invalid_argument on an empty name or null variants.
     */
    bool addOrReplace(Scenario scenario);

    /** @return the scenario, or nullptr when unknown. */
    const Scenario *find(const std::string &name) const;

    /** All registered scenarios, sorted by name. */
    std::vector<const Scenario *> all() const;

    std::size_t size() const { return scenarios_.size(); }

  private:
    Registry() = default;
    std::vector<Scenario> scenarios_;
};

/** Static-initialization helper: `static Register reg{scenario};`. */
struct Register
{
    explicit Register(Scenario scenario);
};

} // namespace c4::scenario

#endif // C4_SCENARIO_REGISTRY_H
