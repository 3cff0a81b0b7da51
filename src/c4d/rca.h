/**
 * @file
 * Background root-cause analysis (paper Fig. 4).
 *
 * C4D's job is fast *localization* — find the node, isolate, restart —
 * while "in-depth root cause analysis [is deferred] to offline
 * processing". This module is that offline stage: it correlates C4D
 * events with the hardware telemetry streams (the figure's "Server
 * Monitor" and "Network Monitor") and, failing a corroborating log
 * entry, falls back to syndrome priors (a non-comm hang on a node whose
 * GPU threw no XID is most likely a CUDA/runtime death; a hot
 * delay-matrix column is an Rx-side NIC issue; and so on).
 */

#ifndef C4_C4D_RCA_H
#define C4_C4D_RCA_H

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "c4d/master.h"
#include "common/types.h"
#include "fault/fault_types.h"

namespace c4::c4d {

/**
 * One entry from the out-of-band hardware monitors (GPU XID logs,
 * switch syslog, NIC counters). The simulator's fault injector doubles
 * as these monitors for fault classes that leave hardware traces.
 */
struct HardwareLogEntry
{
    Time when = 0;
    NodeId node = kInvalidId;
    fault::FaultType type = fault::FaultType::CudaError;
    std::string detail;
};

/** True if this fault class leaves an out-of-band hardware trace. */
bool faultVisibleInHardwareLogs(fault::FaultType type);

/** RCA verdict for one C4D event. */
struct RootCauseReport
{
    C4dEvent event;
    fault::FaultType probableCause = fault::FaultType::CudaError;
    double confidence = 0.0;
    bool corroborated = false; ///< matched a hardware log entry
    std::string rationale;
};

/** Which hardware-log fault classes a syndrome query should match. */
enum class SyndromeClass : std::int8_t {
    Fatal,       ///< worker-killing faults (ECC, NVLink, ...)
    Degradation, ///< Slow* performance faults
    Fabric,      ///< LinkDown
    Any,
};

class RootCauseAnalyzer
{
  public:
    /** Feed a hardware monitor entry. */
    void ingestHardwareEvent(const HardwareLogEntry &entry);

    /**
     * Window query underpinning replayed-telemetry diagnosis: the
     * latest log entry of @p cls within [when - kCorrelationWindow,
     * when + kPostEventSlack], with no node filter — for syndromes
     * (e.g. a recorded steering decision) where only the job, not a
     * suspect-node list, is known. Same window arithmetic as the
     * suspect-node corroboration used by analyze().
     * @return the entry, or nullptr when the window is silent.
     */
    const HardwareLogEntry *explainSyndrome(Time when,
                                            SyndromeClass cls) const;

    /** Analyze a single C4D event against the log + priors. */
    RootCauseReport analyze(const C4dEvent &event) const;

    /** Cause histogram over reports (the Table-I style rollup). */
    static std::map<fault::FaultType, int>
    histogram(const std::vector<RootCauseReport> &reports);

    std::size_t logSize() const { return log_.size(); }

  private:
    std::deque<HardwareLogEntry> log_;

    const HardwareLogEntry *findCorroboration(const C4dEvent &ev) const;
    static RootCauseReport syndromePrior(const C4dEvent &ev);
    /** True when @p entry is within the correlation window of an event
     * at @p when (shared by corroboration and syndrome queries). */
    bool inWindow(const HardwareLogEntry &entry, Time when) const;
    static bool matchesClass(fault::FaultType type, SyndromeClass cls);
};

} // namespace c4::c4d

#endif // C4_C4D_RCA_H
