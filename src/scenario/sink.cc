#include "scenario/sink.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/csv.h"
#include "common/json.h"
#include "common/table.h"
#include "scenario/registry.h"

namespace c4::scenario {

namespace {

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** @p s as a quoted, escaped JSON string. */
std::string
jsonQuoted(std::string_view s)
{
    std::string out;
    appendJsonString(out, s);
    return out;
}

/** variant -> mean of @p metric over that variant's trials;
 * variants without the metric are absent. */
std::map<std::string, double>
variantMetricMeans(const std::vector<TrialResult> &results,
                   const std::string &metric)
{
    std::map<std::string, std::pair<double, int>> acc;
    for (const TrialResult &r : results) {
        for (const Metric &m : r.metrics) {
            if (m.name == metric) {
                acc[r.variant].first += m.value;
                acc[r.variant].second += 1;
            }
        }
    }
    std::map<std::string, double> means;
    for (const auto &[variant, sum] : acc)
        means[variant] = sum.first / sum.second;
    return means;
}

} // namespace

std::string
renderClaims(const std::vector<Claim> &claims,
             const std::vector<TrialResult> &results)
{
    std::string out;
    for (const Claim &c : claims) {
        const auto means = variantMetricMeans(results, c.metric);
        const auto variant = means.find(c.variant);
        const auto baseline = means.find(c.baseline);
        if (variant == means.end() || baseline == means.end() ||
            !(baseline->second > 0.0)) {
            continue;
        }
        out += "claim: " + c.label + " = " +
               TableSink::formatValue(c.scale * variant->second /
                                      baseline->second);
        if (c.paper != 0.0) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), " (paper %g)", c.paper);
            out += buf;
        }
        if (c.expect != Claim::Expect::None) {
            const bool above = c.expect == Claim::Expect::Above;
            const bool holds = above ? variant->second > baseline->second
                                     : variant->second < baseline->second;
            out += "; " + c.variant + (above ? " above " : " below ") +
                   c.baseline + (holds ? ": holds" : ": fails");
        }
        out += "\n";
    }
    return out;
}

// --- TableSink --------------------------------------------------------

TableSink::TableSink(std::ostream &out) : out_(out) {}

std::string
TableSink::formatValue(double v)
{
    const double a = std::fabs(v);
    if (a != 0.0 && (a >= 1e6 || a < 1e-3))
        return formatDouble(v);
    if (a >= 100.0)
        return AsciiTable::num(v, 1);
    if (a >= 1.0)
        return AsciiTable::num(v, 2);
    return AsciiTable::num(v, 4);
}

void
TableSink::begin(const Scenario &scenario, const RunOptions &opt)
{
    (void)scenario;
    trials_ = opt.trials;
    results_.clear();
}

void
TableSink::trial(const TrialResult &result)
{
    results_.push_back(result);
}

void
TableSink::end(const Scenario &scenario)
{
    // Column per variant, row per metric (variants are few, metrics
    // can be many — transposed reads better for Fig. 13-style output).
    std::vector<std::string> variants;
    std::vector<std::string> metricNames;
    // (variant, metric) -> running sum/count for the mean.
    std::map<std::pair<std::string, std::string>,
             std::pair<double, int>>
        cells;
    for (const TrialResult &r : results_) {
        if (std::find(variants.begin(), variants.end(), r.variant) ==
            variants.end()) {
            variants.push_back(r.variant);
        }
        for (const Metric &m : r.metrics) {
            if (std::find(metricNames.begin(), metricNames.end(),
                          m.name) == metricNames.end()) {
                metricNames.push_back(m.name);
            }
            auto &cell = cells[{r.variant, m.name}];
            cell.first += m.value;
            cell.second += 1;
        }
    }

    std::vector<std::string> headers;
    headers.push_back("metric");
    for (const std::string &v : variants)
        headers.push_back(v);
    AsciiTable table(headers);
    for (const std::string &name : metricNames) {
        std::vector<std::string> row;
        row.push_back(name);
        for (const std::string &v : variants) {
            auto it = cells.find({v, name});
            row.push_back(it == cells.end() || it->second.second == 0
                              ? "-"
                              : formatValue(it->second.first /
                                            it->second.second));
        }
        table.addRow(row);
    }

    std::string title = scenario.title;
    if (trials_ > 1)
        title += " (mean of " + std::to_string(trials_) + " trials)";
    out_ << table.str(title) << "\n";
    if (!scenario.notes.empty())
        out_ << scenario.notes << "\n";
    out_ << renderClaims(scenario.claims, results_);
    out_.flush();
}

// --- CsvSink ----------------------------------------------------------

CsvSink::CsvSink(std::ostream &out) : out_(out) {}

void
CsvSink::begin(const Scenario &scenario, const RunOptions &opt)
{
    (void)scenario;
    (void)opt;
    if (!headerWritten_) {
        CsvWriter w(out_);
        w.header({"scenario", "variant", "trial", "seed", "metric",
                  "value"});
        headerWritten_ = true;
    }
}

void
CsvSink::trial(const TrialResult &result)
{
    CsvWriter w(out_);
    for (const Metric &m : result.metrics) {
        w.cell(result.scenario)
            .cell(result.variant)
            .cell(static_cast<std::int64_t>(result.trial))
            .cell(result.seed)
            .cell(m.name)
            .cell(formatDouble(m.value));
        w.endRow();
    }
    out_.flush();
}

// --- JsonSink ---------------------------------------------------------

JsonSink::JsonSink(std::ostream &out) : out_(out)
{
    out_ << "[";
}

JsonSink::~JsonSink()
{
    out_ << "\n]\n";
    out_.flush();
}

void
JsonSink::begin(const Scenario &scenario, const RunOptions &opt)
{
    if (anyScenario_)
        out_ << ",";
    anyScenario_ = true;
    anyTrial_ = false;
    out_ << "\n  {\"scenario\": " << jsonQuoted(scenario.name)
         << ", \"title\": " << jsonQuoted(scenario.title)
         << ", \"smoke\": " << (opt.smoke ? "true" : "false")
         << ", \"trials\": " << opt.trials << ", \"results\": [";
}

void
JsonSink::trial(const TrialResult &result)
{
    if (anyTrial_)
        out_ << ",";
    anyTrial_ = true;
    out_ << "\n    {\"variant\": " << jsonQuoted(result.variant)
         << ", \"trial\": " << result.trial << ", \"seed\": "
         << result.seed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : result.metrics) {
        if (!first)
            out_ << ", ";
        first = false;
        out_ << jsonQuoted(m.name) << ": " << formatDouble(m.value);
    }
    out_ << "}}";
}

void
JsonSink::end(const Scenario &scenario)
{
    (void)scenario;
    out_ << "\n  ]}";
    out_.flush();
}

} // namespace c4::scenario
