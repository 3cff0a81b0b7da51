#include "c4d/steering.h"

#include <algorithm>
#include <cstdio>

namespace c4::c4d {

JobSteeringService::JobSteeringService(Simulator &sim, SteeringConfig cfg,
                                       std::uint64_t seed)
    : sim_(sim), cfg_(cfg), rng_(seed)
{
}

void
JobSteeringService::manageJob(train::TrainingJob &job)
{
    jobs_[job.id()] = &job;
    const JobId id = job.id();
    ++manageEpoch_[id];
    job.onWatchdogKill([this, id] { onWatchdogKill(id); });
}

void
JobSteeringService::unmanageJob(JobId id)
{
    jobs_.erase(id);
    restartPending_.erase(id);
    ++manageEpoch_[id];
}

void
JobSteeringService::addBackupNodes(const std::vector<NodeId> &nodes)
{
    for (NodeId n : nodes)
        backups_.push_back(n);
}

std::vector<NodeId>
JobSteeringService::replaceNodes(const std::vector<NodeId> &placement,
                                 const std::vector<NodeId> &bad)
{
    std::vector<NodeId> out = placement;
    for (NodeId b : bad) {
        auto it = std::find(out.begin(), out.end(), b);
        if (it == out.end())
            continue;
        if (backups_.empty()) {
            std::fprintf(stderr, "WARN  [steering] backup pool exhausted; "
                         "node %d stays in job placement\n", b);
            continue;
        }
        *it = backups_.front();
        backups_.pop_front();
    }
    return out;
}

void
JobSteeringService::scheduleRestart(train::TrainingJob &job,
                                    Duration delay,
                                    std::vector<NodeId> toIsolate,
                                    Time eventTime, bool viaC4d)
{
    if (restartPending_.count(job.id()))
        return; // a recovery is already in flight for this job
    restartPending_.insert(job.id());

    const JobId id = job.id();
    const std::uint64_t epoch = manageEpoch_[id];
    sim_.scheduleAfter(delay, [this, id, epoch, toIsolate, eventTime,
                               viaC4d] {
        // A stale timer (the job was unmanaged or re-registered since)
        // must not touch the new incarnation's state — not even its
        // restartPending_ flag.
        if (manageEpoch_[id] != epoch)
            return;
        restartPending_.erase(id);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return;
        train::TrainingJob &j = *it->second;

        for (NodeId n : toIsolate)
            isolated_.insert(n);
        const std::vector<NodeId> nodes =
            replaceNodes(j.nodes(), toIsolate);

        RecoveryRecord rec;
        rec.eventTime = eventTime;
        rec.restartTime = sim_.now();
        rec.job = id;
        rec.viaC4d = viaC4d;
        rec.isolated = toIsolate;
        recoveries_.push_back(rec);
        ++restarts_;

        trace::TraceScope &tr = sim_.tracer();
        if (telemetry_ != nullptr ||
            tr.wants(trace::EventKind::SteeringDecision)) {
            trace::Event tev;
            tev.when = sim_.now();
            tev.kind = trace::EventKind::SteeringDecision;
            tev.job = id;
            tev.a = static_cast<std::int64_t>(toIsolate.size());
            tev.b = viaC4d ? 1 : 0;
            tev.value = toSeconds(rec.recoveryLatency());
            tev.detail = "restart";
            if (telemetry_ != nullptr)
                telemetry_->onEvent(tev);
            tr.record(std::move(tev));
        }

        j.restart(nodes);
    });
}

void
JobSteeringService::handleEvent(const C4dEvent &event)
{
    auto it = jobs_.find(event.job);
    if (it == jobs_.end())
        return;
    train::TrainingJob &job = *it->second;

    const bool fatal = c4dEventIsFatal(event.kind);
    if (!fatal && !cfg_.isolateOnSlow)
        return;

    // Only isolate nodes that are actually part of the job's placement.
    std::vector<NodeId> bad;
    for (NodeId n : event.suspectNodes) {
        if (std::find(job.nodes().begin(), job.nodes().end(), n) !=
            job.nodes().end()) {
            bad.push_back(n);
        }
    }

    scheduleRestart(job, cfg_.isolationDelay, std::move(bad), event.when,
                    /*viaC4d=*/true);
}

void
JobSteeringService::onWatchdogKill(JobId id)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    // No localization available: a human (or offline tooling) has to
    // find the culprit before the job can be restarted. Heavy-tailed.
    // If the culprit oracle is installed, the manual diagnosis does
    // eventually identify the defective nodes and isolates them.
    const Duration manual = static_cast<Duration>(rng_.lognormal(
        static_cast<double>(cfg_.manualDiagnosisMedian),
        cfg_.manualDiagnosisSigma));
    std::vector<NodeId> culprits;
    if (oracle_)
        culprits = oracle_(id);
    scheduleRestart(*it->second, manual, std::move(culprits), sim_.now(),
                    /*viaC4d=*/false);
}

} // namespace c4::c4d
