#include "c4d/rca.h"

#include <algorithm>

namespace c4::c4d {

using fault::FaultType;

namespace {

/** Hardware log entries this far before (or shortly after) the C4D
 * event, on a suspect node, corroborate the cause. */
constexpr Duration kCorrelationWindow = minutes(10);

/** Slack after the event (monitor batching). */
constexpr Duration kPostEventSlack = seconds(30);

/** Retained hardware log entries. */
constexpr std::size_t kLogCapacity = 1u << 16;

} // namespace

bool
faultVisibleInHardwareLogs(FaultType type)
{
    switch (type) {
      case FaultType::EccError:    // GPU XID in dmesg / DCGM
      case FaultType::NvlinkError: // NVLink fatal XID
      case FaultType::LinkDown:    // switch syslog / optics telemetry
      case FaultType::SlowNicTx:   // NIC PHY counters
      case FaultType::SlowNicRx:
        return true;
      case FaultType::CudaError:   // process-local; no HW trace
      case FaultType::NcclTimeout:
      case FaultType::AckTimeout:
      case FaultType::NetworkOther:
      case FaultType::SlowNode:
        return false;
    }
    return false;
}

void
RootCauseAnalyzer::ingestHardwareEvent(const HardwareLogEntry &entry)
{
    if (log_.size() >= kLogCapacity)
        log_.pop_front();
    log_.push_back(entry);
}

bool
RootCauseAnalyzer::inWindow(const HardwareLogEntry &entry, Time when) const
{
    return entry.when <= when + kPostEventSlack &&
           when - entry.when <= kCorrelationWindow;
}

bool
RootCauseAnalyzer::matchesClass(FaultType type, SyndromeClass cls)
{
    switch (cls) {
      case SyndromeClass::Fatal:
        return fault::faultIsFatal(type);
      case SyndromeClass::Degradation:
        return type == FaultType::SlowNode ||
               type == FaultType::SlowNicTx ||
               type == FaultType::SlowNicRx;
      case SyndromeClass::Fabric:
        return type == FaultType::LinkDown;
      case SyndromeClass::Any:
        return true;
    }
    return false;
}

const HardwareLogEntry *
RootCauseAnalyzer::explainSyndrome(Time when, SyndromeClass cls) const
{
    const HardwareLogEntry *best = nullptr;
    for (const auto &entry : log_) {
        if (!inWindow(entry, when) || !matchesClass(entry.type, cls))
            continue;
        // Latest matching entry wins (closest to the syndrome).
        if (best == nullptr || entry.when > best->when)
            best = &entry;
    }
    return best;
}

const HardwareLogEntry *
RootCauseAnalyzer::findCorroboration(const C4dEvent &ev) const
{
    const HardwareLogEntry *best = nullptr;
    for (const auto &entry : log_) {
        if (!inWindow(entry, ev.when))
            continue;
        const bool on_suspect =
            std::find(ev.suspectNodes.begin(), ev.suspectNodes.end(),
                      entry.node) != ev.suspectNodes.end();
        const bool fabric_event =
            entry.type == FaultType::LinkDown &&
            ev.kind == C4dEventKind::CommSlow;
        if (!on_suspect && !fabric_event)
            continue;
        // Latest matching entry wins (closest to the syndrome).
        if (best == nullptr || entry.when > best->when)
            best = &entry;
    }
    return best;
}

RootCauseReport
RootCauseAnalyzer::syndromePrior(const C4dEvent &ev)
{
    RootCauseReport report;
    report.event = ev;
    switch (ev.kind) {
      case C4dEventKind::NonCommHang:
        // A rank never reached the sync point and the hardware logs are
        // silent: process death in user/runtime space.
        report.probableCause = FaultType::CudaError;
        report.confidence = 0.6;
        report.rationale = "rank never entered collective; no HW trace";
        break;
      case C4dEventKind::CommHang:
        // Transport stopped mid-operation without an XID: lost ACKs.
        report.probableCause = FaultType::AckTimeout;
        report.confidence = 0.5;
        report.rationale = "progress stalled mid-op; no HW trace";
        break;
      case C4dEventKind::CommSlow:
        report.probableCause =
            ev.detail.find("tx") != std::string::npos
                ? FaultType::SlowNicTx
                : FaultType::SlowNicRx;
        report.confidence = 0.55;
        report.rationale = "delay-matrix anomaly; NIC-side degradation";
        break;
      case C4dEventKind::NonCommSlow:
        report.probableCause = FaultType::SlowNode;
        report.confidence = 0.7;
        report.rationale = "receiver wait-chain straggler";
        break;
    }
    return report;
}

RootCauseReport
RootCauseAnalyzer::analyze(const C4dEvent &event) const
{
    if (const HardwareLogEntry *hw = findCorroboration(event)) {
        RootCauseReport report;
        report.event = event;
        report.probableCause = hw->type;
        report.confidence = 0.95;
        report.corroborated = true;
        report.rationale =
            std::string("hardware log: ") + fault::faultTypeName(hw->type) +
            " on node " + std::to_string(hw->node);
        return report;
    }
    return syndromePrior(event);
}

std::map<FaultType, int>
RootCauseAnalyzer::histogram(const std::vector<RootCauseReport> &reports)
{
    std::map<FaultType, int> out;
    for (const auto &r : reports)
        ++out[r.probableCause];
    return out;
}

} // namespace c4::c4d
