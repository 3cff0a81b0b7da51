/**
 * @file
 * Error-induced downtime accounting (paper Table III).
 *
 * A Monte-Carlo month of operation for one large job: fault events arrive
 * per-category at calibrated rates; each event costs
 *
 *   post-checkpoint loss  (work since the last checkpoint, re-done)
 * + detection             (crash -> someone notices)
 * + diagnosis & isolation (find the culprit node, take it out)
 * + re-initialization     (restart the job to the training loop)
 *
 * The recovery policy captures the difference between June 2023 (no C4D:
 * 30-min watchdog + human diagnosis taking hours-to-days, sparse
 * checkpoints) and December 2023 (C4D detection in tens of seconds,
 * automated isolation, 10-minute checkpoints, hardened hardware).
 */

#ifndef C4_C4D_DOWNTIME_H
#define C4_C4D_DOWNTIME_H

#include <array>
#include <string>

#include "common/random.h"
#include "common/types.h"
#include "fault/fault_types.h"

namespace c4::c4d {

/** Root-cause groups used by Table III's diagnosis breakdown. */
enum class CauseGroup : std::int8_t {
    EccNvlink = 0,
    Cuda,
    CclTimeout,
    AckTimeout,
    Unknown,
};

constexpr int kNumCauseGroups = 5;

const char *causeGroupName(CauseGroup g);

/** Map a fatal fault type to its Table III cause group. */
CauseGroup causeGroupOf(fault::FaultType t);

/** Recovery-process parameters for one operating regime. */
struct RecoveryPolicy
{
    std::string name = "policy";

    /** C4D online detection active? */
    bool c4dEnabled = false;

    /** @name Detection @{ */
    /** C4D detection latency ("mere tens of seconds"). */
    Duration c4dDetection = seconds(20);
    /**
     * Probability C4D detects & localizes a given fault, conditioned on
     * the fault's locality prior (non-localized faults need humans).
     */
    double c4dCoverage = 0.9;
    /** @} */

    /** @name Diagnosis & isolation @{ */
    /** Automated steering: isolate + reschedule. */
    Duration steeringDelay = minutes(2);
    /** Median manual diagnosis per cause group (lognormal). */
    std::array<Duration, kNumCauseGroups> manualDiagnosisMedian{
        hours(6.7), hours(7.4), hours(3.3), hours(1.45), hours(4.0)};
    double manualDiagnosisSigma = 0.8;
    /** Scale on manual medians (offline tooling improvements). */
    double manualScale = 1.0;
    /** @} */

    /** @name Checkpointing @{ */
    Duration checkpointInterval = hours(4.5);
    Duration checkpointCost = minutes(5); ///< per save (overhead share)
    /** @} */

    /** Job re-initialization time. */
    Duration reinitTime = minutes(10);

    /** June 2023: pre-C4D operation. */
    static RecoveryPolicy june2023();

    /** December 2023: C4D + frequent checkpoints + faster re-init. */
    static RecoveryPolicy december2023();
};

/** Aggregated downtime as fractions of the makespan. */
struct DowntimeBreakdown
{
    double postCheckpoint = 0.0;
    double detection = 0.0;
    std::array<double, kNumCauseGroups> diagnosisByCause{};
    double reinit = 0.0;

    /** Crash events per cause group (mean over trials). */
    std::array<double, kNumCauseGroups> eventsByCause{};

    double
    diagnosisTotal() const
    {
        double t = 0.0;
        for (double d : diagnosisByCause)
            t += d;
        return t;
    }

    double
    total() const
    {
        return postCheckpoint + detection + diagnosisTotal() + reinit;
    }

    double
    totalEvents() const
    {
        double t = 0.0;
        for (double e : eventsByCause)
            t += e;
        return t;
    }
};

/**
 * The Monte-Carlo downtime model for one job over a makespan.
 */
class DowntimeModel
{
  public:
    /**
     * @param policy recovery regime
     * @param rates fault arrival rates (per 1000 GPUs per 30 days)
     * @param numGpus job scale (the paper's study job uses 2400)
     * @param makespan accounted period (one month in the paper)
     */
    DowntimeModel(RecoveryPolicy policy, fault::FaultRates rates,
                  int numGpus, Duration makespan,
                  std::uint64_t seed = 0xD02D02ull);

    /** Run @p trials independent months and average the fractions. */
    DowntimeBreakdown run(int trials = 64);

    const RecoveryPolicy &policy() const { return policy_; }

  private:
    RecoveryPolicy policy_;
    fault::FaultRates rates_;
    int numGpus_;
    Duration makespan_;
    Rng rng_;

    DowntimeBreakdown runOnce();
};

} // namespace c4::c4d

#endif // C4_C4D_DOWNTIME_H
