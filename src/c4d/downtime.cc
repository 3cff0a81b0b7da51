#include "c4d/downtime.h"

#include <cassert>

namespace c4::c4d {

using fault::FaultType;

namespace {

/** Elastic-agent hang timeout (baseline detection floor). */
constexpr Duration kWatchdogTimeout = minutes(30);

/** Median extra time until a human reacts (lognormal). */
constexpr Duration kHumanReactionMedian = minutes(20);
constexpr double kHumanReactionSigma = 0.6;

} // namespace

const char *
causeGroupName(CauseGroup g)
{
    switch (g) {
      case CauseGroup::EccNvlink:  return "ECC/NVLink Error";
      case CauseGroup::Cuda:       return "CUDA Error";
      case CauseGroup::CclTimeout: return "CCL Timeout";
      case CauseGroup::AckTimeout: return "ACK Timeout";
      case CauseGroup::Unknown:    return "Unknown";
    }
    return "?";
}

CauseGroup
causeGroupOf(FaultType t)
{
    switch (t) {
      case FaultType::EccError:
      case FaultType::NvlinkError:
        return CauseGroup::EccNvlink;
      case FaultType::CudaError:
        return CauseGroup::Cuda;
      case FaultType::NcclTimeout:
        return CauseGroup::CclTimeout;
      case FaultType::AckTimeout:
        return CauseGroup::AckTimeout;
      default:
        return CauseGroup::Unknown;
    }
}

RecoveryPolicy
RecoveryPolicy::june2023()
{
    RecoveryPolicy p;
    p.name = "Jun 2023 (pre-C4D)";
    p.c4dEnabled = false;
    // Users checkpointed sparsely, "not anticipating high error rates".
    p.checkpointInterval = hours(4.5);
    p.checkpointCost = minutes(5);
    p.reinitTime = minutes(11);
    return p;
}

RecoveryPolicy
RecoveryPolicy::december2023()
{
    RecoveryPolicy p;
    p.name = "Dec 2023 (C4D deployed)";
    p.c4dEnabled = true;
    p.c4dDetection = seconds(20);
    p.c4dCoverage = 0.92;
    p.steeringDelay = minutes(2.5);
    // Frequent checkpointing on the fast in-memory checkpoint path
    // [Gemini-style]: the blocking cost per save is about a second.
    p.checkpointInterval = minutes(10);
    p.checkpointCost = seconds(1);
    // Re-init path streamlined alongside (paper: 0.6% -> 0.15% while
    // event count fell 3.33x, i.e. per-event cost slightly lower).
    p.reinitTime = minutes(9);
    // Offline root-cause tooling improved for the residual manual cases.
    p.manualScale = 0.55;
    return p;
}

DowntimeModel::DowntimeModel(RecoveryPolicy policy, fault::FaultRates rates,
                             int numGpus, Duration makespan,
                             std::uint64_t seed)
    : policy_(std::move(policy)), rates_(rates), numGpus_(numGpus),
      makespan_(makespan), rng_(seed)
{
    assert(numGpus_ > 0 && makespan_ > 0);
}

DowntimeBreakdown
DowntimeModel::runOnce()
{
    DowntimeBreakdown out;
    const double months =
        toSeconds(makespan_) / toSeconds(days(30));
    const double gpu_k = static_cast<double>(numGpus_) / 1000.0;
    const double span = static_cast<double>(makespan_);

    static constexpr FaultType fatal_types[] = {
        FaultType::CudaError,    FaultType::EccError,
        FaultType::NvlinkError,  FaultType::NcclTimeout,
        FaultType::AckTimeout,   FaultType::NetworkOther,
    };

    // Baseline overhead of writing checkpoints themselves (part of the
    // post-checkpoint row: the price of the protection).
    const double saves =
        span / static_cast<double>(policy_.checkpointInterval);
    out.postCheckpoint +=
        saves * static_cast<double>(policy_.checkpointCost) / span;

    for (FaultType type : fatal_types) {
        const double mean = rates_[type] * gpu_k * months;
        const std::int64_t count = rng_.poisson(mean);
        const CauseGroup group = causeGroupOf(type);
        out.eventsByCause[static_cast<int>(group)] +=
            static_cast<double>(count);

        for (std::int64_t i = 0; i < count; ++i) {
            const bool local =
                rng_.chance(fault::faultLocalityPrior(type));

            // --- post-checkpoint loss: work since the last save.
            const double lost =
                rng_.uniform() *
                static_cast<double>(policy_.checkpointInterval);
            out.postCheckpoint += lost / span;

            // --- detection.
            double detect;
            const bool caught = policy_.c4dEnabled && local &&
                                rng_.chance(policy_.c4dCoverage);
            if (caught) {
                detect = static_cast<double>(policy_.c4dDetection) *
                         rng_.uniform(0.7, 1.5);
            } else if (policy_.c4dEnabled) {
                // C4D missed it; the watchdog still fires, and a human
                // reacts with modern alerting.
                detect = static_cast<double>(kWatchdogTimeout) +
                         rng_.lognormal(
                             static_cast<double>(kHumanReactionMedian) * 0.5,
                             kHumanReactionSigma);
            } else {
                detect = static_cast<double>(kWatchdogTimeout) +
                         rng_.lognormal(
                             static_cast<double>(kHumanReactionMedian),
                             kHumanReactionSigma);
            }
            out.detection += detect / span;

            // --- diagnosis & isolation.
            double diag;
            if (caught) {
                diag = static_cast<double>(policy_.steeringDelay) *
                       rng_.uniform(0.7, 1.6);
            } else {
                diag = rng_.lognormal(
                    static_cast<double>(
                        policy_.manualDiagnosisMedian[
                            static_cast<int>(group)]) *
                        policy_.manualScale,
                    policy_.manualDiagnosisSigma);
            }
            out.diagnosisByCause[static_cast<int>(group)] += diag / span;

            // --- re-initialization.
            const double reinit =
                static_cast<double>(policy_.reinitTime) *
                rng_.uniform(0.8, 1.3);
            out.reinit += reinit / span;
        }
    }
    return out;
}

DowntimeBreakdown
DowntimeModel::run(int trials)
{
    assert(trials > 0);
    DowntimeBreakdown acc;
    for (int t = 0; t < trials; ++t) {
        const DowntimeBreakdown one = runOnce();
        acc.postCheckpoint += one.postCheckpoint;
        acc.detection += one.detection;
        acc.reinit += one.reinit;
        for (int g = 0; g < kNumCauseGroups; ++g) {
            acc.diagnosisByCause[g] += one.diagnosisByCause[g];
            acc.eventsByCause[g] += one.eventsByCause[g];
        }
    }
    const double inv = 1.0 / trials;
    acc.postCheckpoint *= inv;
    acc.detection *= inv;
    acc.reinit *= inv;
    for (int g = 0; g < kNumCauseGroups; ++g) {
        acc.diagnosisByCause[g] *= inv;
        acc.eventsByCause[g] *= inv;
    }
    return acc;
}

} // namespace c4::c4d
