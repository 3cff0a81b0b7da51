/**
 * @file
 * Scenario `table3_downtime` — Table III: error-induced downtime of a
 * 2400-GPU GPT-175B job over one month, before (June 2023) and after
 * (December 2023) C4D deployment. Each trial is an independent batch
 * of Monte-Carlo months through DowntimeModel; the runner's trial
 * sweep replaces the old in-driver trial loop (and parallelizes it).
 */

#include <cctype>
#include <string>
#include <vector>

#include "c4d/downtime.h"
#include "scenario/registry.h"

namespace {

using namespace c4;
using namespace c4::c4d;
using namespace c4::scenario;

constexpr int kGpus = 2400; // the paper's month-long study job

void
emitBreakdown(TrialContext &ctx, const DowntimeBreakdown &b)
{
    ctx.metric("post_checkpoint", b.postCheckpoint);
    ctx.metric("detection", b.detection);
    ctx.metric("diagnosis_total", b.diagnosisTotal());
    for (int g = 0; g < kNumCauseGroups; ++g) {
        std::string name = causeGroupName(static_cast<CauseGroup>(g));
        for (char &c : name) {
            c = c == ' ' || c == '/'
                    ? '_'
                    : static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)));
        }
        ctx.metric("diag_" + name,
                   b.diagnosisByCause[static_cast<std::size_t>(g)]);
    }
    ctx.metric("reinit", b.reinit);
    ctx.metric("total", b.total());
    ctx.metric("events_per_month", b.totalEvents());
}

void
runRegime(TrialContext &ctx, bool december)
{
    DowntimeModel model(
        december ? RecoveryPolicy::december2023()
                 : RecoveryPolicy::june2023(),
        december ? fault::FaultRates::paperDecember2023()
                 : fault::FaultRates::paperJune2023(),
        kGpus, days(30), ctx.seed);
    emitBreakdown(ctx, model.run(ctx.pick(32, 4)));
}

const Register reg{{
    .name = "table3_downtime",
    .title = "Table III: error-induced downtime, Jun 2023 (pre-C4D) "
             "vs Dec 2023 (C4D)",
    .description =
        "Monte-Carlo months of a 2400-GPU job under the June-2023 and "
        "December-2023 recovery regimes; downtime fractions by "
        "component.",
    .notes = "Paper totals: 31.19% (Jun) vs 1.16% (Dec) — a 26.9x "
             "reduction.",
    .fullTrials = 8,
    .smokeTrials = 2,
    .seed = 0x7AB1E3,
    .variants =
        [](const RunOptions &) {
            ScenarioSpec june;
            june.variant = "june2023";
            june.custom = [](TrialContext &ctx) {
                runRegime(ctx, false);
            };
            ScenarioSpec dec;
            dec.variant = "december2023";
            dec.custom = [](TrialContext &ctx) {
                runRegime(ctx, true);
            };
            return std::vector<ScenarioSpec>{june, dec};
        },
    .claims = {{
        .label = "June 2023 / December 2023 downtime",
        .metric = "total",
        .variant = "june2023",
        .baseline = "december2023",
        .paper = 0.3119 / 0.0116,
        .expect = Claim::Expect::Above,
    }},
}};

} // namespace
