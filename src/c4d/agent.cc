#include "c4d/agent.h"

namespace c4::c4d {

C4Agent::C4Agent(Simulator &sim, accl::AcclMonitor &monitor,
                 C4dMaster &master, Duration period)
    : sim_(sim), monitor_(monitor), master_(master),
      ticker_(sim, period, [this] { collectOnce(); })
{
}

void
C4Agent::start()
{
    ticker_.start();
}

void
C4Agent::stop()
{
    ticker_.stop();
}

void
C4Agent::collectOnce()
{
    ++collections_;

    // Communicator lifecycle first so record routing finds the comms.
    monitor_.drainComm(commRecs_);
    for (const auto &rec : commRecs_) {
        if (rec.created) {
            live_[rec.comm] = rec.nranks;
            master_.registerComm(rec);
        } else {
            live_.erase(rec.comm);
            master_.deregisterComm(rec.comm);
        }
    }

    monitor_.drainConn(connRecs_);
    master_.ingest(connRecs_);
    monitor_.drainRankWait(waitRecs_);
    master_.ingest(waitRecs_);
    // Collective records are consumed; the master keys off OpProgress.
    monitor_.drainColl(collRecs_);

    // Progress snapshots: current operation + per-rank heartbeats.
    for (const auto &[comm, nranks] : live_) {
        const accl::OpProgress *op = monitor_.currentOp(comm);
        if (op == nullptr)
            continue;
        heartbeats_.resize(static_cast<std::size_t>(nranks));
        for (Rank r = 0; r < nranks; ++r)
            heartbeats_[static_cast<std::size_t>(r)] =
                monitor_.lastHeartbeat(comm, r);
        master_.updateProgress(comm, *op, heartbeats_);
    }
}

} // namespace c4::c4d
