#include "c4d/agent.h"

namespace c4::c4d {

C4Agent::C4Agent(Simulator &sim, accl::Accl &lib, C4dMaster &master,
                 Duration period)
    : lib_(lib), master_(master),
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
    accl::AcclMonitor &monitor = lib_.monitor();

    // Communicator lifecycle first so record routing finds the comms.
    monitor.drainComm(commRecs_);
    for (const auto &rec : commRecs_) {
        if (rec.created)
            master_.registerComm(rec);
        else
            master_.deregisterComm(rec.comm);
    }

    monitor.drainConn(connRecs_);
    master_.ingest(connRecs_);
    monitor.drainRankWait(waitRecs_);
    master_.ingest(waitRecs_);

    master_.refreshProgress(lib_);
}

} // namespace c4::c4d
