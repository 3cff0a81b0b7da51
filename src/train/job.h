/**
 * @file
 * The BSP training-job model.
 *
 * A job owns its communicators and cycles through iterations: a compute
 * phase (gradient-accumulated microbatches), a tensor-parallel collective,
 * a pipeline send chain, then the data-parallel gradient allreduce that
 * synchronizes every replica. Data loading is taken to hide entirely
 * behind compute. Periodic checkpoints cost time; a hang watchdog models
 * the PyTorch elastic agent that kills a stalled job after a timeout (the
 * paper's 30-minute crash-detection cost in the pre-C4D world).
 *
 * Faults surface exactly as they do in production: a crashed node makes
 * the in-flight collective stall (peers hang); a straggler node delays
 * its ranks' entry to the allreduce; NIC degradation shows up through the
 * fabric. The job itself never "knows" — detection is C4D's business.
 */

#ifndef C4_TRAIN_JOB_H
#define C4_TRAIN_JOB_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "accl/accl.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "train/model.h"
#include "train/parallel.h"

namespace c4::train {

/** Everything needed to run one training job. */
struct JobConfig
{
    JobId id = 1;
    std::string name = "job";
    ModelConfig model;
    ParallelismSpec parallel;
    std::vector<NodeId> nodes;
    int gpusPerNode = 8;

    /** Samples per microbatch per data-parallel replica. */
    int microBatch = 1;

    /** Coefficient of variation of per-iteration compute jitter. */
    double computeJitterCv = 0.01;

    /** Representative DP rings simulated (of the tp*pp real ones). */
    int dpGroupsSimulated = 2;

    /**
     * Coefficient of variation of per-rank expert load (MoE token
     * routing skew). The skew re-rolls every iteration — transient
     * imbalance, not a persistent straggler — which is exactly the
     * distinction the paper says C4D must smooth over (Section V).
     */
    double epLoadImbalanceCv = 0.3;

    /** Checkpoint cadence in iterations (0 disables) and unit cost. */
    int checkpointIntervalIters = 0;
    Duration checkpointCost = seconds(30);

    /** Startup / re-initialization time (scheduling, NCCL init, load). */
    Duration initTime = minutes(2);

    /** Elastic-agent hang kill timeout. */
    Duration hangWatchdogTimeout = minutes(30);

    std::uint64_t seed = 0x10B10Bull;

    /** Samples contributed by one completed iteration. */
    std::int64_t
    samplesPerIteration() const
    {
        return static_cast<std::int64_t>(parallel.dp) * microBatch *
               parallel.gradientAccumulation;
    }
};

/** Per-iteration timing delivered to the iteration callback. */
struct IterationStats
{
    std::uint64_t index = 0;
    Time start = 0;
    Time end = 0;
    Duration computeDuration = 0;
    Duration commDuration = 0; ///< slowest simulated DP allreduce
    double samplesPerSec = 0.0;
    Bandwidth dpBusBw = 0.0; ///< of the slowest DP group
};

/**
 * Executable training job. Driven entirely by simulator events; all
 * methods are to be called from event context (or before running).
 */
class TrainingJob
{
  public:
    enum class State {
        Idle,         ///< created, not started
        Initializing, ///< startup / re-init in progress
        Running,      ///< iterating (possibly silently hung)
        Failed,       ///< watchdog killed a hung run
        Stopped,      ///< stopped by caller / steering
    };

    using IterationCallback = std::function<void(const IterationStats &)>;
    using FailureCallback = std::function<void()>;

    /**
     * Startup validator: called when initialization completes, with
     * the placement. Returning false models a start failure (defective
     * node, bad configuration — paper Fig. 2's "Startup Failure"),
     * which C4D cannot see because no collectives ran yet.
     */
    using StartValidator =
        std::function<bool(const std::vector<NodeId> &)>;

    TrainingJob(Simulator &sim, accl::Accl &accl, JobConfig cfg);
    ~TrainingJob();

    TrainingJob(const TrainingJob &) = delete;
    TrainingJob &operator=(const TrainingJob &) = delete;

    /** Begin: init for cfg.initTime, then iterate until stopped. */
    void start();

    /** Tear down communicators and stop iterating. */
    void stop();

    /**
     * Restart on a (possibly new) node set — what the job-steering
     * service does after isolating a faulty node. Pays initTime again.
     */
    void restart(std::vector<NodeId> nodes);

    /** @name Fault interface (used by the injector) @{ */

    /** Kill the worker processes on a node: collectives stall. */
    void crashNode(NodeId node);

    /** Make a node's compute slower by @p scale (>= 1; 1 clears). */
    void setNodeComputeScale(NodeId node, double scale);
    /** @} */

    /** @name Introspection @{ */
    State state() const { return state_; }
    const char *stateName() const;
    JobId id() const { return cfg_.id; }
    const JobConfig &config() const { return cfg_; }
    const std::vector<NodeId> &nodes() const { return cfg_.nodes; }

    std::uint64_t iterationsCompleted() const { return itersDone_; }
    const Summary &iterationSeconds() const { return iterSeconds_; }
    const Summary &dpBusBwGbps() const { return dpBusBw_; }

    /** Mean samples/sec over completed iterations (0 if none). */
    double meanSamplesPerSec() const;

    /** Time and iteration index of the last completed checkpoint. */
    Time lastCheckpointTime() const { return lastCkptTime_; }
    std::uint64_t lastCheckpointIteration() const { return lastCkptIter_; }

    /** DP communicators currently live (what C4D agents watch). */
    const std::vector<CommId> &dpComms() const { return dpComms_; }
    CommId ppComm() const { return ppComm_; }
    CommId epComm() const { return epComm_; }
    /** @} */

    void onIteration(IterationCallback cb) { iterCb_ = std::move(cb); }
    void onWatchdogKill(FailureCallback cb) { failCb_ = std::move(cb); }
    void setStartValidator(StartValidator v) { validator_ = std::move(v); }

    /** Start failures observed over the job's lifetime. */
    std::uint64_t startFailures() const { return startFailures_; }

  private:
    Simulator &sim_;
    accl::Accl &accl_;
    JobConfig cfg_;
    Rng rng_;

    State state_ = State::Idle;
    std::uint64_t itersDone_ = 0;
    Summary iterSeconds_;
    Summary dpBusBw_;
    Time lastCkptTime_ = 0;
    std::uint64_t lastCkptIter_ = 0;

    std::vector<CommId> dpComms_;
    CommId tpComm_ = kInvalidId;
    CommId ppComm_ = kInvalidId;
    CommId epComm_ = kInvalidId;

    std::unordered_map<NodeId, double> computeScale_;

    IterationCallback iterCb_;
    FailureCallback failCb_;
    StartValidator validator_;
    std::uint64_t startFailures_ = 0;

    // Per-iteration transient state.
    Time iterStart_ = 0;
    Duration iterCompute_ = 0;
    int dpPending_ = 0;
    Duration worstDpComm_ = 0;
    Bandwidth worstDpBusBw_ = 0.0;
    EventId watchdog_ = kInvalidEvent;
    EventId phaseEvent_ = kInvalidEvent;
    std::uint64_t epoch_ = 0; ///< invalidates stale callbacks
    // Progress of the EP alltoall and PP send/recv chains, kept here so
    // their completion callbacks capture only (this, epoch) and fit
    // std::function's inline buffer.
    int epAllToAllsLeft_ = 0;
    int ppHopsLeft_ = 0;
    Rank ppStage_ = 0;
    /** Per-rank entry delays of the collective being posted; reused,
     * since postCollective() copies them. */
    std::vector<Duration> entryDelays_;

    void setupComms();
    void teardownComms();

    void beginIteration();
    void computeDone();
    void afterTp();
    void runEpAllToAll(int remaining);
    void runPpChain(int hopsLeft, Rank stage);
    void postDpAllReduces();
    void onDpGroupDone(std::uint64_t epoch,
                       const accl::CollectiveResult &res);
    void finishIteration();
    void armWatchdog();
    void onWatchdog(std::uint64_t epoch);

    double nodeScale(NodeId node) const;
    Duration computePhaseDuration();
};

} // namespace c4::train

#endif // C4_TRAIN_JOB_H
