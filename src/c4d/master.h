/**
 * @file
 * The C4D master: aggregates telemetry forwarded by C4 agents, evaluates
 * the health of every live communicator on a fixed cadence, and emits
 * classified events (hang / slow, communication / non-communication)
 * with suspected culprit nodes — the input to the job steering service
 * (paper Fig. 4/5).
 */

#ifndef C4_C4D_MASTER_H
#define C4_C4D_MASTER_H

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "accl/monitor.h"
#include "c4d/analyzer.h"
#include "common/ring.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace c4::c4d {

/** Master tunables. */
struct C4dConfig
{
    /** Health-evaluation cadence. */
    Duration evaluatePeriod = seconds(5);

    /** Progress silence that qualifies as a hang. */
    Duration hangThreshold = seconds(30);

    /** Slow-analysis thresholds. */
    AnalyzerConfig analyzer;

    /** Suppress duplicate findings per (comm, kind) for this long. */
    Duration findingCooldown = minutes(2);

    /** Telemetry window sizes per communicator. */
    std::size_t connWindow = 8192;
    std::size_t waitWindow = 2048;
};

/** Kinds of events the master emits. */
enum class C4dEventKind {
    CommHang,
    NonCommHang,
    CommSlow,
    NonCommSlow,
};

const char *c4dEventKindName(C4dEventKind kind);

/** True for events that require isolation + restart (fatal). */
bool c4dEventIsFatal(C4dEventKind kind);

/** A classified anomaly with localization. */
struct C4dEvent
{
    Time when = 0;
    C4dEventKind kind = C4dEventKind::CommHang;
    JobId job = kInvalidId;
    CommId comm = kInvalidId;
    std::vector<Rank> suspectRanks;
    std::vector<NodeId> suspectNodes;
    std::string detail;

    std::string str() const;
};

using C4dEventCallback = std::function<void(const C4dEvent &)>;

class C4dMaster
{
  public:
    explicit C4dMaster(Simulator &sim, C4dConfig cfg = {});

    C4dMaster(const C4dMaster &) = delete;
    C4dMaster &operator=(const C4dMaster &) = delete;

    /** Subscribe to emitted events (steering service, loggers). */
    void onEvent(C4dEventCallback cb) { callbacks_.push_back(std::move(cb)); }

    /** @name Agent-facing ingestion @{ */
    void registerComm(const accl::CommRecord &rec);
    void deregisterComm(CommId comm);
    void ingest(const std::vector<accl::ConnRecord> &records);
    void ingest(const std::vector<accl::RankWaitRecord> &records);

    /** Latest operation progress + per-rank heartbeats for a comm. */
    void updateProgress(CommId comm, const accl::OpProgress &op,
                        std::span<const Time> heartbeats);
    /** @} */

    /** Begin periodic evaluation. */
    void start();
    void stop();

    /** Run one evaluation pass immediately (also used by tests). */
    void evaluate();

    /** @name Introspection @{ */
    std::size_t liveComms() const { return comms_.size(); }
    std::uint64_t evaluations() const { return evaluations_; }
    std::uint64_t eventsEmitted() const { return emitted_; }
    const std::vector<C4dEvent> &eventLog() const { return eventLog_; }
    const C4dConfig &config() const { return cfg_; }
    /** @} */

  private:
    struct CommHealth
    {
        CommHealth(std::size_t connWindow, std::size_t waitWindow)
            : conns(connWindow), waits(waitWindow)
        {
        }

        JobId job = kInvalidId;
        int nranks = 0;
        std::vector<NodeId> rankNodes;
        RingWindow<accl::ConnRecord> conns;
        RingWindow<accl::RankWaitRecord> waits;
        accl::OpProgress progress;
        std::vector<Time> heartbeats;
        bool flaggedFatal = false;
        std::unordered_map<int, Time> lastFinding; // kind -> time
    };

    Simulator &sim_;
    C4dConfig cfg_;
    std::vector<C4dEventCallback> callbacks_;
    std::unordered_map<CommId, CommHealth> comms_;
    PeriodicTask ticker_;
    std::uint64_t evaluations_ = 0;
    std::uint64_t emitted_ = 0;
    std::vector<C4dEvent> eventLog_;

    // Analysis scratch, reused by every evaluation.
    DelayMatrix matrix_{1};
    CommSlowScratch commSlowScratch_;
    WaitScan waitScan_;

    void evaluateComm(CommId comm, CommHealth &health);
    bool cooldownOk(CommHealth &health, C4dEventKind kind);
    void emit(C4dEvent event, CommHealth &health);
    std::vector<NodeId> nodesOf(const CommHealth &health,
                                const std::vector<Rank> &ranks) const;
};

} // namespace c4::c4d

#endif // C4_C4D_MASTER_H
