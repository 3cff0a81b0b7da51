#include "train/job.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace c4::train {

using accl::CollOp;
using accl::CollectiveResult;

TrainingJob::TrainingJob(Simulator &sim, accl::Accl &accl, JobConfig cfg)
    : sim_(sim), accl_(accl), cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    const std::string err = cfg_.parallel.validate(
        cfg_.gpusPerNode, static_cast<int>(cfg_.nodes.size()));
    if (!err.empty())
        throw std::invalid_argument("JobConfig: " + err);
    if (cfg_.dpGroupsSimulated < 1)
        throw std::invalid_argument("dpGroupsSimulated must be >= 1");
}

TrainingJob::~TrainingJob()
{
    stop();
}

const char *
TrainingJob::stateName() const
{
    switch (state_) {
      case State::Idle:         return "idle";
      case State::Initializing: return "initializing";
      case State::Running:      return "running";
      case State::Failed:       return "failed";
      case State::Stopped:      return "stopped";
    }
    return "?";
}

void
TrainingJob::start()
{
    assert(state_ == State::Idle || state_ == State::Stopped ||
           state_ == State::Failed);
    state_ = State::Initializing;
    const std::uint64_t epoch = ++epoch_;
    phaseEvent_ = sim_.scheduleAfter(cfg_.initTime, [this, epoch] {
        if (epoch != epoch_)
            return;
        if (validator_ && !validator_(cfg_.nodes)) {
            // Startup failure: initialization never reaches the first
            // collective, so C4D is blind to it (paper Section V); the
            // job framework's own error path reports it instead.
            ++startFailures_;
            ++epoch_;
            state_ = State::Failed;
            if (failCb_)
                failCb_();
            return;
        }
        setupComms();
        state_ = State::Running;
        // A fresh start counts as a checkpoint baseline: nothing to lose.
        lastCkptTime_ = sim_.now();
        lastCkptIter_ = itersDone_;
        beginIteration();
    });
}

void
TrainingJob::stop()
{
    ++epoch_; // invalidate in-flight callbacks
    sim_.cancel(watchdog_);
    sim_.cancel(phaseEvent_);
    watchdog_ = kInvalidEvent;
    phaseEvent_ = kInvalidEvent;
    teardownComms();
    if (state_ != State::Idle)
        state_ = State::Stopped;
}

void
TrainingJob::restart(std::vector<NodeId> nodes)
{
    stop();
    cfg_.nodes = std::move(nodes);
    const std::string err = cfg_.parallel.validate(
        cfg_.gpusPerNode, static_cast<int>(cfg_.nodes.size()));
    if (!err.empty())
        throw std::invalid_argument("restart: " + err);
    start();
}

void
TrainingJob::setupComms()
{
    ParallelLayout layout(cfg_.parallel, cfg_.nodes, cfg_.gpusPerNode);

    // Build only the groups that get a communicator: one DP group per
    // (tp, pp) pair exists, but dpGroupsSimulated of them are run.
    const int simulated = std::min(cfg_.dpGroupsSimulated,
                                   cfg_.parallel.tp * cfg_.parallel.pp);
    for (int g = 0; g < simulated; ++g) {
        dpComms_.push_back(accl_.createCommunicator(
            cfg_.id, layout.devicesFor(layout.dpGroup(g))));
    }

    if (cfg_.parallel.tp > 1) {
        tpComm_ = accl_.createCommunicator(
            cfg_.id, layout.devicesFor(layout.tpGroup(0)));
    }
    if (cfg_.parallel.pp > 1) {
        ppComm_ = accl_.createCommunicator(
            cfg_.id, layout.devicesFor(layout.ppGroup(0)));
    }
    if (cfg_.parallel.ep > 1 && cfg_.model.epBytesPerMicrobatch > 0) {
        // Experts are sharded across the DP group: the alltoall runs
        // over the same ranks as the representative DP ring.
        epComm_ = accl_.createCommunicator(
            cfg_.id, layout.devicesFor(layout.dpGroup(0)));
    }
}

void
TrainingJob::teardownComms()
{
    for (CommId c : dpComms_)
        accl_.destroyCommunicator(c);
    dpComms_.clear();
    if (tpComm_ != kInvalidId) {
        accl_.destroyCommunicator(tpComm_);
        tpComm_ = kInvalidId;
    }
    if (ppComm_ != kInvalidId) {
        accl_.destroyCommunicator(ppComm_);
        ppComm_ = kInvalidId;
    }
    if (epComm_ != kInvalidId) {
        accl_.destroyCommunicator(epComm_);
        epComm_ = kInvalidId;
    }
}

double
TrainingJob::nodeScale(NodeId node) const
{
    auto it = computeScale_.find(node);
    return it == computeScale_.end() ? 1.0 : it->second;
}

Duration
TrainingJob::computePhaseDuration()
{
    const Duration micro = microbatchComputeTime(
        cfg_.model, cfg_.parallel.tp, cfg_.parallel.pp);
    double total = static_cast<double>(micro) *
                   cfg_.parallel.gradientAccumulation;
    if (cfg_.computeJitterCv > 0.0) {
        total *= std::max(
            0.5, rng_.normal(1.0, cfg_.computeJitterCv));
    }
    return static_cast<Duration>(total);
}

void
TrainingJob::beginIteration()
{
    iterStart_ = sim_.now();
    worstDpComm_ = 0;
    worstDpBusBw_ = 0.0;
    armWatchdog();

    iterCompute_ = computePhaseDuration();
    const std::uint64_t epoch = epoch_;
    phaseEvent_ = sim_.scheduleAfter(iterCompute_, [this, epoch] {
        if (epoch != epoch_)
            return;
        computeDone();
    });
}

void
TrainingJob::computeDone()
{
    // Tensor-parallel collective: node-local, on the critical path.
    if (tpComm_ != kInvalidId) {
        const Bytes tp_bytes =
            std::max<Bytes>(1, cfg_.model.tpBytesPerMicrobatch *
                                   cfg_.parallel.gradientAccumulation);
        const std::uint64_t epoch = epoch_;
        accl_.postCollective(
            tpComm_, CollOp::AllReduce, tp_bytes,
            [this, epoch](const CollectiveResult &) {
                if (epoch != epoch_)
                    return;
                afterTp();
            });
    } else {
        afterTp();
    }
}

void
TrainingJob::afterTp()
{
    if (epComm_ != kInvalidId) {
        // MoE token dispatch + combine per iteration.
        runEpAllToAll(2);
        return;
    }
    if (ppComm_ != kInvalidId) {
        // Forward + backward activation handoffs along the pipeline.
        runPpChain(2 * (cfg_.parallel.pp - 1), 0);
    } else {
        postDpAllReduces();
    }
}

void
TrainingJob::runEpAllToAll(int remaining)
{
    if (remaining <= 0) {
        if (ppComm_ != kInvalidId)
            runPpChain(2 * (cfg_.parallel.pp - 1), 0);
        else
            postDpAllReduces();
        return;
    }

    const Bytes bytes =
        std::max<Bytes>(1, cfg_.model.epBytesPerMicrobatch *
                               cfg_.parallel.gradientAccumulation);
    const auto &c = accl_.communicator(epComm_);

    // Token-routing skew: each rank's expert batch differs this
    // iteration, delaying its entry into the alltoall. The skew
    // re-rolls per iteration, so it is transient — C4D's windowed wait
    // analysis must not mistake it for a persistent straggler.
    std::vector<Duration> &delays = entryDelays_;
    delays.assign(static_cast<std::size_t>(c.size()), 0);
    if (cfg_.epLoadImbalanceCv > 0.0) {
        const double base =
            static_cast<double>(iterCompute_) * 0.25;
        for (auto &d : delays) {
            const double skew = std::max(
                0.0, rng_.normal(0.0, cfg_.epLoadImbalanceCv));
            d = static_cast<Duration>(base * skew);
        }
    }

    epAllToAllsLeft_ = remaining;
    const std::uint64_t epoch = epoch_;
    accl_.postCollective(
        epComm_, accl::CollOp::AllToAll, bytes,
        [this, epoch](const CollectiveResult &) {
            if (epoch != epoch_)
                return;
            runEpAllToAll(epAllToAllsLeft_ - 1);
        },
        delays);
}

void
TrainingJob::runPpChain(int hopsLeft, Rank stage)
{
    if (hopsLeft <= 0) {
        postDpAllReduces();
        return;
    }
    const int pp = cfg_.parallel.pp;
    const Rank next = static_cast<Rank>((stage + 1) % pp);
    ppHopsLeft_ = hopsLeft;
    ppStage_ = next;
    const std::uint64_t epoch = epoch_;
    accl_.sendRecv(ppComm_, stage, next, cfg_.model.activationBytes,
                   [this, epoch](const CollectiveResult &) {
                       if (epoch != epoch_)
                           return;
                       runPpChain(ppHopsLeft_ - 1, ppStage_);
                   });
}

void
TrainingJob::postDpAllReduces()
{
    const Bytes dp_bytes = std::max<Bytes>(
        1, cfg_.model.gradientBytes() /
               (static_cast<Bytes>(cfg_.parallel.tp) * cfg_.parallel.pp));

    dpPending_ = static_cast<int>(dpComms_.size());
    if (dpPending_ == 0) {
        finishIteration();
        return;
    }

    const std::uint64_t epoch = epoch_;
    for (CommId comm : dpComms_) {
        // Per-rank entry skew: straggler nodes hold their rank back by
        // the extra compute they needed; small jitter for the rest.
        const auto &c = accl_.communicator(comm);
        std::vector<Duration> &delays = entryDelays_;
        delays.assign(static_cast<std::size_t>(c.size()), 0);
        for (Rank r = 0; r < c.size(); ++r) {
            const double scale = nodeScale(c.device(r).node);
            double d = (scale - 1.0) *
                       static_cast<double>(iterCompute_);
            d += std::abs(rng_.normal(0.0, 1e-4)) *
                 static_cast<double>(iterCompute_);
            delays[static_cast<std::size_t>(r)] =
                static_cast<Duration>(d);
        }
        accl_.postCollective(
            comm, CollOp::AllReduce, dp_bytes,
            [this, epoch](const CollectiveResult &res) {
                onDpGroupDone(epoch, res);
            },
            delays);
    }
}

void
TrainingJob::onDpGroupDone(std::uint64_t epoch,
                           const CollectiveResult &res)
{
    if (epoch != epoch_)
        return;
    worstDpComm_ = std::max(worstDpComm_, res.totalDuration());
    worstDpBusBw_ = worstDpBusBw_ == 0.0
                        ? res.busBw()
                        : std::min(worstDpBusBw_, res.busBw());
    if (--dpPending_ == 0)
        finishIteration();
}

void
TrainingJob::finishIteration()
{
    sim_.cancel(watchdog_);
    watchdog_ = kInvalidEvent;

    ++itersDone_;
    const Time end = sim_.now();
    const Duration dur = end - iterStart_;
    iterSeconds_.add(toSeconds(dur));
    if (worstDpBusBw_ > 0.0)
        dpBusBw_.add(toGbps(worstDpBusBw_));

    IterationStats st;
    st.index = itersDone_;
    st.start = iterStart_;
    st.end = end;
    st.computeDuration = iterCompute_;
    st.commDuration = worstDpComm_;
    st.samplesPerSec =
        dur > 0 ? static_cast<double>(cfg_.samplesPerIteration()) /
                      toSeconds(dur)
                : 0.0;
    st.dpBusBw = worstDpBusBw_;
    if (iterCb_)
        iterCb_(st);

    Duration pause = 0;
    if (cfg_.checkpointIntervalIters > 0 &&
        itersDone_ % static_cast<std::uint64_t>(
                         cfg_.checkpointIntervalIters) ==
            0) {
        pause = cfg_.checkpointCost;
        lastCkptTime_ = end + pause;
        lastCkptIter_ = itersDone_;
    }

    const std::uint64_t epoch = epoch_;
    phaseEvent_ = sim_.scheduleAfter(pause, [this, epoch] {
        if (epoch != epoch_)
            return;
        beginIteration();
    });
}

void
TrainingJob::armWatchdog()
{
    sim_.cancel(watchdog_);
    const std::uint64_t epoch = epoch_;
    watchdog_ = sim_.scheduleAfter(
        cfg_.hangWatchdogTimeout,
        [this, epoch] { onWatchdog(epoch); });
}

void
TrainingJob::onWatchdog(std::uint64_t epoch)
{
    if (epoch != epoch_ || state_ != State::Running)
        return;
    // The elastic agent kills the stalled processes; the job is dead
    // until something (user or steering service) restarts it.
    ++epoch_;
    sim_.cancel(phaseEvent_);
    phaseEvent_ = kInvalidEvent;
    teardownComms();
    state_ = State::Failed;
    if (failCb_)
        failCb_();
}

void
TrainingJob::crashNode(NodeId node)
{
    auto crash_in = [&](CommId comm) {
        if (comm == kInvalidId)
            return;
        const auto &c = accl_.communicator(comm);
        for (Rank r : c.ranksOnNode(node))
            accl_.crashRank(comm, r);
    };
    for (CommId c : dpComms_)
        crash_in(c);
    crash_in(tpComm_);
    crash_in(ppComm_);
    crash_in(epComm_);
}

void
TrainingJob::setNodeComputeScale(NodeId node, double scale)
{
    assert(scale >= 1.0);
    if (scale <= 1.0)
        computeScale_.erase(node);
    else
        computeScale_[node] = scale;
}

double
TrainingJob::meanSamplesPerSec() const
{
    if (iterSeconds_.empty())
        return 0.0;
    return static_cast<double>(cfg_.samplesPerIteration()) /
           iterSeconds_.mean();
}

} // namespace c4::train
