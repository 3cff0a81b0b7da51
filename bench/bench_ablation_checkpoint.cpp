/**
 * @file
 * Scenario `ablation_checkpoint` — Ablation A3: checkpoint-interval
 * sweep against total downtime — why the paper's production fleet
 * settled on ~10-minute checkpoints after C4D shipped (Section
 * IV-B.1). Sparse checkpoints lose work at every crash; manic
 * checkpointing pays the save cost continuously.
 */

#include <string>
#include <vector>

#include "c4d/downtime.h"
#include "scenario/registry.h"

namespace {

using namespace c4;
using namespace c4::c4d;
using namespace c4::scenario;

ScenarioSpec
atInterval(const char *label, Duration interval)
{
    ScenarioSpec spec;
    spec.variant = label;
    spec.custom = [interval](TrialContext &ctx) {
        RecoveryPolicy policy = RecoveryPolicy::december2023();
        policy.checkpointInterval = interval;
        DowntimeModel model(policy,
                            fault::FaultRates::paperDecember2023(),
                            2400, days(30), ctx.seed);
        const DowntimeBreakdown b = model.run(ctx.pick(64, 8));
        ctx.metric("post_checkpoint", b.postCheckpoint);
        ctx.metric("total", b.total());
    };
    return spec;
}

const Register reg{{
    .name = "ablation_checkpoint",
    .title = "Ablation A3: checkpoint cadence vs downtime (C4D-era "
             "cluster, 2400 GPUs)",
    .description =
        "Total downtime fraction as the checkpoint interval sweeps "
        "from 8 h to 30 s under the December-2023 recovery regime.",
    .notes = "U-shape: losing work (sparse) vs paying save cost "
             "(manic); ~10 min is near the knee — the production "
             "choice (Dec 2023).",
    .fullTrials = 4,
    .smokeTrials = 1,
    .seed = 0xC4C4,
    .variants =
        [](const RunOptions &) {
            return std::vector<ScenarioSpec>{
                atInterval("8h", hours(8)),
                atInterval("4.5h", hours(4.5)),
                atInterval("1h", hours(1)),
                atInterval("30min", minutes(30)),
                atInterval("10min", minutes(10)),
                atInterval("2min", minutes(2)),
                atInterval("30s", seconds(30)),
            };
        },
    .claims = {},
}};

} // namespace
