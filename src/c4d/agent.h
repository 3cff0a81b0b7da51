/**
 * @file
 * C4a — the C4 agent (paper Fig. 4/5): the intermediary that periodically
 * collects ACCL's runtime stats from the workers and forwards them to the
 * C4D master. In the simulator a single agent drains the library-wide
 * monitor; sharding across agents would change nothing observable.
 */

#ifndef C4_C4D_AGENT_H
#define C4_C4D_AGENT_H

#include <unordered_map>
#include <vector>

#include "accl/monitor.h"
#include "c4d/master.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace c4::c4d {

class C4Agent
{
  public:
    /**
     * @param sim event engine
     * @param monitor the ACCL monitor to drain (must outlive the agent)
     * @param master destination for telemetry
     * @param period collection cadence (the paper operates at seconds)
     */
    C4Agent(Simulator &sim, accl::AcclMonitor &monitor, C4dMaster &master,
            Duration period = seconds(2));

    C4Agent(const C4Agent &) = delete;
    C4Agent &operator=(const C4Agent &) = delete;

    void start();
    void stop();

    /** One collection pass (also usable directly from tests). */
    void collectOnce();

    std::uint64_t collections() const { return collections_; }

  private:
    Simulator &sim_;
    accl::AcclMonitor &monitor_;
    C4dMaster &master_;
    PeriodicTask ticker_;
    std::uint64_t collections_ = 0;

    /** Live communicators: id -> rank count (from CommRecords). */
    std::unordered_map<CommId, int> live_;

    // Drain and snapshot buffers, reused by every pass.
    std::vector<accl::CommRecord> commRecs_;
    std::vector<accl::ConnRecord> connRecs_;
    std::vector<accl::RankWaitRecord> waitRecs_;
    std::vector<accl::CollRecord> collRecs_;
    std::vector<Time> heartbeats_;
};

} // namespace c4::c4d

#endif // C4_C4D_AGENT_H
