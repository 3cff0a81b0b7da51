/**
 * @file
 * Scenario `table1_crash_causes` — Table I: the distribution of crash
 * causes recorded over one month for a representative 4096-GPU job.
 *
 * A Poisson fault campaign runs against a 512-node population at the
 * paper's calibrated June-2023 rates; each crash is classified by what
 * the *user* sees (almost always "NCCL Error") and whether the root
 * cause was confined to a node/device. This scenario needs no cluster
 * — only the sampled event stream — so it installs a custom executor.
 */

#include <iterator>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "scenario/registry.h"
#include "sim/simulator.h"

namespace {

using namespace c4;
using namespace c4::fault;
using namespace c4::scenario;

struct Group
{
    const char *metric; ///< metric-name stem
    const char *paper;  ///< paper proportion / locality
    bool (*matches)(FaultType);
};

const Group kGroups[] = {
    {"cuda", "12.5% / 100%",
     [](FaultType t) { return t == FaultType::CudaError; }},
    {"ecc_nvlink", "27.5% / 100%",
     [](FaultType t) {
         return t == FaultType::EccError ||
                t == FaultType::NvlinkError;
     }},
    {"nccl_timeout", "20% / 75%",
     [](FaultType t) { return t == FaultType::NcclTimeout; }},
    {"ack_timeout", "27.5% / 81.8%",
     [](FaultType t) { return t == FaultType::AckTimeout; }},
    {"network_other", "12.5% / 40%",
     [](FaultType t) { return t == FaultType::NetworkOther; }},
};

void
runTrial(TrialContext &ctx)
{
    constexpr int kNodes = 512; // 4096 GPUs
    // Aggregate several months for stability (one in smoke mode).
    const int months = ctx.pick(12, 1);

    Simulator sim;
    FaultInjector injector(sim, ctx.seed);

    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < kNodes; ++n)
        nodes.push_back(n);
    injector.startCampaign(FaultRates::paperJune2023(), nodes,
                           /*nicsPerNode=*/8, /*gpusPerNode=*/8,
                           /*numTrunks=*/0, days(30.0 * months));
    sim.run();

    int crashes = 0;
    int counts[std::size(kGroups)] = {};
    int local[std::size(kGroups)] = {};
    for (const FaultEvent &ev : injector.history()) {
        if (!faultIsFatal(ev.type) &&
            ev.type != FaultType::NetworkOther) {
            continue;
        }
        for (std::size_t g = 0; g < std::size(kGroups); ++g) {
            if (kGroups[g].matches(ev.type)) {
                ++counts[g];
                local[g] += ev.isLocal ? 1 : 0;
            }
        }
        ++crashes;
    }

    for (std::size_t g = 0; g < std::size(kGroups); ++g) {
        const std::string stem = kGroups[g].metric;
        ctx.metric("p_" + stem,
                   crashes > 0 ? static_cast<double>(counts[g]) /
                                     crashes
                               : 0.0);
        ctx.metric("local_" + stem,
                   counts[g] > 0 ? static_cast<double>(local[g]) /
                                       counts[g]
                                 : 0.0);
    }
    ctx.metric("crashes_per_month",
               static_cast<double>(crashes) / months);
}

const Register reg{{
    .name = "table1_crash_causes",
    .title = "Table I: crash-cause distribution (4096 GPUs, "
             "simulated months)",
    .description =
        "Poisson fault campaign at the June-2023 rates over 512 "
        "nodes; crashes classified by user-visible error and root "
        "cause.",
    .notes = "Paper: CUDA 12.5%/100% local, ECC/NVLink 27.5%/100%, "
             "NCCL timeout 20%/75%, ACK timeout 27.5%/81.8%, other "
             "network 12.5%/40%; ~40 crashes per month.",
    .fullTrials = 1,
    .smokeTrials = 1,
    .seed = 20240406,
    .variants =
        [](const RunOptions &) {
            ScenarioSpec spec;
            spec.variant = "june2023";
            spec.custom = runTrial;
            return std::vector<ScenarioSpec>{spec};
        },
    .claims = {},
}};

} // namespace
