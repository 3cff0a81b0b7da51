/**
 * @file
 * C4a — the C4 agent (paper Fig. 4/5): the intermediary that periodically
 * collects ACCL's runtime stats from the workers and forwards them to the
 * C4D master. Each pass drains the library-wide monitor's three record
 * streams into the master, then has the master copy the op progress and
 * heartbeats of the communicators it has registered from the Accl, so
 * the master sees progress as of the last collection. In the simulator
 * a single agent serves the whole library; sharding across agents would
 * change nothing observable.
 */

#ifndef C4_C4D_AGENT_H
#define C4_C4D_AGENT_H

#include <vector>

#include "accl/accl.h"
#include "c4d/master.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace c4::c4d {

class C4Agent
{
  public:
    /**
     * @param sim event engine
     * @param lib the library to collect from (must outlive the agent)
     * @param master destination for telemetry
     * @param period collection cadence (the paper operates at seconds)
     */
    C4Agent(Simulator &sim, accl::Accl &lib, C4dMaster &master,
            Duration period = seconds(2));

    C4Agent(const C4Agent &) = delete;
    C4Agent &operator=(const C4Agent &) = delete;

    void start();
    void stop();

    /** One collection pass (also usable directly from tests). */
    void collectOnce();

  private:
    accl::Accl &lib_;
    C4dMaster &master_;
    PeriodicTask ticker_;

    // Drain buffers, reused by every pass.
    std::vector<accl::CommRecord> commRecs_;
    std::vector<accl::ConnRecord> connRecs_;
    std::vector<accl::RankWaitRecord> waitRecs_;
};

} // namespace c4::c4d

#endif // C4_C4D_AGENT_H
