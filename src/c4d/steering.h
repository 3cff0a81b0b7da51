/**
 * @file
 * The job steering service (paper Fig. 4): consumes C4D events, isolates
 * suspected nodes, swaps in warm backups (the paper provisions 64 backup
 * GPUs per 1024), and restarts the affected job from its last checkpoint.
 * Also provides the fallback path for jobs killed by the elastic-agent
 * watchdog when C4D missed the root cause (non-localized faults).
 */

#ifndef C4_C4D_STEERING_H
#define C4_C4D_STEERING_H

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "c4d/master.h"
#include "c4d/telemetry.h"
#include "common/random.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "train/job.h"

namespace c4::c4d {

/** Steering-service tunables. */
struct SteeringConfig
{
    /** Node isolation + rescheduling latency before the restart begins
     * ("additional minutes are still required by the steering service"). */
    Duration isolationDelay = minutes(2);

    /** Whether non-fatal slow findings also trigger isolation+restart
     * (the paper: non-critical failures "addressed using the same
     * strategy as critical errors"). */
    bool isolateOnSlow = true;

    /** Manual recovery time when a watchdog kill arrives with no C4D
     * localization: median of a heavy-tailed human diagnosis process. */
    Duration manualDiagnosisMedian = hours(4);
    double manualDiagnosisSigma = 0.8;
};

/** One completed recovery, for downtime accounting. */
struct RecoveryRecord
{
    Time eventTime = 0;    ///< detection (C4D event or watchdog kill)
    Time restartTime = 0;  ///< when the job began re-initializing
    JobId job = kInvalidId;
    bool viaC4d = false;   ///< false = manual/watchdog path
    std::vector<NodeId> isolated;

    Duration recoveryLatency() const { return restartTime - eventTime; }
};

class JobSteeringService
{
  public:
    /**
     * Oracle consulted during *manual* recovery (no C4D localization):
     * models the offline diagnosis eventually identifying the defective
     * nodes of a job (hardware burn-in tests, log trawling). Returns
     * the nodes to isolate.
     */
    using CulpritOracle = std::function<std::vector<NodeId>(JobId)>;

    JobSteeringService(Simulator &sim, SteeringConfig cfg = {},
                       std::uint64_t seed = 0x57EE57EEull);

    JobSteeringService(const JobSteeringService &) = delete;
    JobSteeringService &operator=(const JobSteeringService &) = delete;

    /**
     * Manage a job: its watchdog-kill callback is chained into the
     * manual recovery path. The job must outlive the service or be
     * unmanaged first.
     */
    void manageJob(train::TrainingJob &job);
    void unmanageJob(JobId id);

    /** Provision warm standby nodes. */
    void addBackupNodes(const std::vector<NodeId> &nodes);
    std::size_t backupsAvailable() const { return backups_.size(); }

    /** Entry point wired to C4dMaster::onEvent. */
    void handleEvent(const C4dEvent &event);

    /** Install the manual-diagnosis culprit oracle. */
    void setCulpritOracle(CulpritOracle oracle)
    {
        oracle_ = std::move(oracle);
    }

    /**
     * Attach a telemetry sink handed each completed restart's
     * steering_decision event, the same event the trace records.
     * Nullable; must outlive the service or be detached first.
     */
    void setTelemetrySink(TelemetrySink *sink) { telemetry_ = sink; }

    /** @name Introspection @{ */
    const std::unordered_set<NodeId> &isolatedNodes() const
    {
        return isolated_;
    }
    const std::vector<RecoveryRecord> &recoveries() const
    {
        return recoveries_;
    }
    std::uint64_t restartsIssued() const { return restarts_; }
    /** @} */

  private:
    Simulator &sim_;
    SteeringConfig cfg_;
    Rng rng_;
    CulpritOracle oracle_;

    std::unordered_map<JobId, train::TrainingJob *> jobs_;
    /** Bumped on (un)manage; stale recovery timers check it so a job
     * re-registered under a reused id is not acted on by a timer
     * scheduled for its predecessor. */
    std::unordered_map<JobId, std::uint64_t> manageEpoch_;
    std::deque<NodeId> backups_;
    std::unordered_set<NodeId> isolated_;
    std::unordered_set<JobId> restartPending_;
    std::vector<RecoveryRecord> recoveries_;
    std::uint64_t restarts_ = 0;
    TelemetrySink *telemetry_ = nullptr;

    void scheduleRestart(train::TrainingJob &job, Duration delay,
                         std::vector<NodeId> toIsolate, Time eventTime,
                         bool viaC4d);
    void onWatchdogKill(JobId id);

    /** Swap isolated nodes out of a placement using the backup pool. */
    std::vector<NodeId> replaceNodes(const std::vector<NodeId> &placement,
                                     const std::vector<NodeId> &bad);
};

} // namespace c4::c4d

#endif // C4_C4D_STEERING_H
