/**
 * @file
 * Structured result emission. The runner feeds every sink the same
 * ordered trial stream (sorted by variant, then trial — independent of
 * worker-thread scheduling), so CSV/JSON output is byte-identical for
 * any --threads value.
 */

#ifndef C4_SCENARIO_SINK_H
#define C4_SCENARIO_SINK_H

#include <ostream>
#include <string>
#include <vector>

#include "scenario/options.h"

namespace c4::scenario {

struct Claim;
struct Scenario;

/**
 * One line per claim whose variant and baseline both appear in
 * @p results with a baseline mean > 0, in claim order:
 * `claim: <label> = <value>[ (paper <value>)]` plus, for a claim
 * with a direction, `; <variant> above|below <baseline>: holds|fails`.
 */
std::string renderClaims(const std::vector<Claim> &claims,
                         const std::vector<TrialResult> &results);

/** Receives one scenario run's results. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void begin(const Scenario &scenario, const RunOptions &opt)
    {
        (void)scenario;
        (void)opt;
    }

    /** Called once per (variant, trial), in deterministic order. */
    virtual void trial(const TrialResult &result) { (void)result; }

    virtual void end(const Scenario &scenario) { (void)scenario; }
};

/**
 * Human-readable aggregate table: one column per variant, one row per
 * metric, cells are means over trials. Prints the scenario notes and
 * its claims (renderClaims) underneath.
 */
class TableSink : public ResultSink
{
  public:
    explicit TableSink(std::ostream &out);

    void begin(const Scenario &scenario, const RunOptions &opt) override;
    void trial(const TrialResult &result) override;
    void end(const Scenario &scenario) override;

    /** Format a metric value with magnitude-aware precision. */
    static std::string formatValue(double v);

  private:
    std::ostream &out_;
    int trials_ = 1;
    std::vector<TrialResult> results_;
};

/**
 * Long-format CSV: scenario,variant,trial,seed,metric,value. One file
 * can hold several scenario runs; the header is written once.
 */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &out);

    void begin(const Scenario &scenario, const RunOptions &opt) override;
    void trial(const TrialResult &result) override;

  private:
    std::ostream &out_;
    bool headerWritten_ = false;
};

/** JSON array of scenario objects, each with its per-trial metrics. */
class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::ostream &out);
    ~JsonSink() override;

    void begin(const Scenario &scenario, const RunOptions &opt) override;
    void trial(const TrialResult &result) override;
    void end(const Scenario &scenario) override;

  private:
    std::ostream &out_;
    bool anyScenario_ = false;
    bool anyTrial_ = false;
};

} // namespace c4::scenario

#endif // C4_SCENARIO_SINK_H
