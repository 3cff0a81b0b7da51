#include "accl/accl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

namespace c4::accl {

namespace {

/**
 * Parallel channels of a communicator created without an explicit count.
 * Channel c's inter-node traffic departs NIC (c mod nics) for
 * node-spanning rings; with 2, a node's boundary traffic exercises one
 * bonded NIC pair — the configuration whose dual-port imbalance Fig. 9
 * studies.
 */
constexpr int kDefaultChannels = 2;

/**
 * Ring rounds simulated per collective. The payload is divided over this
 * many barrier-synchronized rounds; the real round count (2(n-1)) is used
 * for bandwidth bookkeeping, so this only sets the temporal resolution at
 * which contention is sampled.
 */
constexpr int kMaxSimRounds = 8;

/** Connection cache key: (channel, srcRank, dstRank). */
std::uint64_t
connKey(int channel, Rank src, Rank dst)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(channel))
            << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 20) |
           static_cast<std::uint32_t>(dst);
}

} // namespace

/**
 * The QPs of a communicator's transport connections (a QP group between
 * two ranks on a channel), in four parallel arrays. A connection is
 * qpsPerConnection consecutive entries starting at its first QP;
 * connections are appended when first used and never move.
 */
struct QpArena
{
    std::vector<ConnContext> ctxs;
    std::vector<PathDecision> decisions;
    std::vector<double> weights;
    std::vector<QpId> ids;
    /** (connKey, first QP) of each connection, sorted by key. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> index;
};

struct PendingOp
{
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    Bytes bytes = 0;
    std::vector<Duration> delays;
    CollectiveCallback done;
    Time postedAt = 0;
    Rank p2pSrc = kInvalidId;
    Rank p2pDst = kInvalidId;
};

struct Accl::CommState
{
    std::unique_ptr<Communicator> comm;
    /** Per rank: nonzero once crashRank() killed it. */
    std::vector<char> crashed;
    int numCrashed = 0;
    QpArena qps;
    /** The op the Exec last began (nothing posted: postTime never). */
    OpProgress progress;
    /** Last progress time per rank, kTimeNever until its first. */
    std::vector<Time> heartbeats;
    CollSeq nextSeq = 1;
    /** FIFO of posted ops: queue[queueHead, queueTail) wait for the
     * Exec. The vector never shrinks; a slot outside that range is
     * spare and holds the delay buffer of the op the Exec last handed
     * back, so steady posting reuses slots and buffers alike. */
    std::vector<PendingOp> queue;
    std::size_t queueHead = 0;
    std::size_t queueTail = 0;

    /** Claim a queue slot for an op posted at @p now: every field
     * reset except the capacity of its delay buffer. */
    PendingOp &
    push(Time now)
    {
        if (queueTail == queue.size())
            queue.emplace_back();
        PendingOp &p = queue[queueTail++];
        std::vector<Duration> delays = std::move(p.delays);
        delays.clear();
        p = PendingOp{};
        p.delays = std::move(delays);
        p.seq = nextSeq++;
        p.postedAt = now;
        return p;
    }
    /** Created with the first op and reused for every later one;
     * declared last so it is destroyed (aborting its op) first. */
    std::unique_ptr<Exec> exec;
};

/**
 * Execution state machine for one communicator's collectives, one op at
 * a time. Channels progress through barrier-synchronized rounds
 * independently; the operation completes when every channel has drained
 * every stage.
 *
 * The machine is allocation-free in steady state: its vectors keep their
 * capacity from op to op, event callbacks go straight into the kernel's
 * inline slots, and fabric callbacks capture only (this, flow slot) —
 * small enough for std::function's inline buffer. That needs no
 * liveness token: teardown() cancels every event and aborts every live
 * flow of the op, so no callback can reach a finished op or a destroyed
 * Exec.
 */
class Accl::Exec
{
  public:
    Exec(Accl &lib, CommState &cs) : lib_(lib), cs_(cs) {}

    ~Exec() { teardown(); }

    /** True between begin() and the end of that op. */
    bool busy() const { return busy_; }

    /** Start @p next, swapping it in: @p next gets the finished op's
     * state back, so its delay buffer is reused by a later post. */
    void
    begin(PendingOp &next)
    {
        assert(!busy_);
        std::swap(op_, next);
        busy_ = true;
        activeChannels_ = 1;
        channelsFinished_ = 0;
        numStages_ = 0;
        numCursors_ = 0;

        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        cs_.progress = {.comm = comm.id(),
                        .seq = op_.seq,
                        .op = op_.op,
                        .bytes = op_.bytes,
                        .postTime = op_.postedAt};

        postTimes_.resize(static_cast<std::size_t>(n));
        Time t0 = lib_.sim_.now();
        Time min_post = kTimeNever;
        for (Rank r = 0; r < n; ++r) {
            Duration d = 0;
            if (static_cast<std::size_t>(r) < op_.delays.size())
                d = op_.delays[static_cast<std::size_t>(r)];
            const Time p = op_.postedAt + d;
            postTimes_[static_cast<std::size_t>(r)] = p;
            if (!crashed(r)) {
                t0 = std::max(t0, p);
                min_post = std::min(min_post, p);
            }
        }
        minPost_ = min_post;
        startTime_ = t0;

        buildPlan();

        if (anyCrash()) {
            // A dead rank never enters the collective: the survivors
            // block forever — the paper's non-communication hang. Record
            // that the living ranks did show up, then stall.
            schedule(t0, [this] {
                for (Rank r = 0; r < cs_.comm->size(); ++r) {
                    if (!crashed(r))
                        beat(r, lib_.sim_.now());
                }
            });
            return;
        }

        schedule(t0, [this] { onAllRanksReady(); });
    }

    /**
     * End the current op: abort its live flows, then cancel its events.
     * Flows are aborted in ascending FlowId order (each abort flushes a
     * fabric recompute, so the order is observable); their ids are
     * gathered first, so nothing a flush does can disturb the walk.
     */
    void
    teardown()
    {
        abortIds_.clear();
        for (FlowRec &f : flows_) {
            if (f.live) {
                f.live = false;
                abortIds_.push_back(f.id);
            }
        }
        flows_.clear();
        freeFlows_.clear();
        std::sort(abortIds_.begin(), abortIds_.end());
        for (FlowId f : abortIds_)
            lib_.fabric_.abortFlow(f);
        // Ids of events that already fired are stale; cancelling them
        // is a no-op.
        for (EventId e : events_)
            lib_.sim_.cancel(e);
        events_.clear();
        busy_ = false;
    }

  private:
    struct Stage
    {
        /** Inter-node hops (rank pairs) active each round. */
        std::span<const Communicator::Boundary> hops;
        /** Nodes with intra-node (NVLink) hops each round. */
        std::span<const NodeId> nvlinkNodes;
        Bytes bytesPerHopPerRound = 0;
        int rounds = 0;
        /** Backing storage when the plan computes its own hops/nodes
         * rather than referencing the communicator's. */
        std::vector<Communicator::Boundary> ownHops;
        std::vector<NodeId> ownNodes;
    };

    struct ChannelCursor
    {
        int stage = 0;
        int round = 0;
        int pending = 0;
        bool finished = false;
        /** First QP of each connection used, for post-round rebalance. */
        std::vector<std::uint32_t> connsUsed;
    };

    /** One fabric flow of the current op. Its completion callback
     * captures only (this, index into flows_); the index is recycled
     * once that callback has run. */
    struct FlowRec
    {
        FlowId id = kInvalidId;
        bool live = false;
        int channel = 0;
        Communicator::Boundary hop;
        std::uint32_t qp = 0; ///< index into cs_.qps
        // The realized path, for the telemetry record.
        net::Plane txPlane = net::Plane::Left;
        std::int32_t spine = kInvalidId;
        std::int32_t rxPlane = kInvalidId;
    };

    Accl &lib_;
    CommState &cs_;
    PendingOp op_;
    bool busy_ = false;

    std::vector<Time> postTimes_;
    Time minPost_ = 0;
    Time startTime_ = 0;

    // stages_[0, numStages_) and cursors_[0, numCursors_) belong to the
    // current op; the vectors only grow, so their buffers are reused.
    std::vector<Stage> stages_;
    std::size_t numStages_ = 0;
    int activeChannels_ = 1;
    std::vector<ChannelCursor> cursors_;
    std::size_t numCursors_ = 0;
    std::size_t channelsFinished_ = 0;

    std::vector<FlowRec> flows_;
    std::vector<std::uint32_t> freeFlows_; // recycled flows_ indices
    std::vector<EventId> events_; // every event the op scheduled
    std::vector<FlowId> abortIds_; // teardown scratch

    /** Note forward progress of rank @p r. */
    void
    beat(Rank r, Time when)
    {
        cs_.heartbeats[static_cast<std::size_t>(r)] = when;
    }

    template <typename F>
    void
    schedule(Time when, F fn)
    {
        events_.push_back(lib_.sim_.scheduleAt(when, std::move(fn)));
    }

    template <typename F>
    void
    scheduleAfter(Duration d, F fn)
    {
        schedule(lib_.sim_.now() + d, std::move(fn));
    }

    /** Size the plan to @p count fresh stages, reusing earlier storage. */
    void
    resetStages(std::size_t count)
    {
        if (stages_.size() < count)
            stages_.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            Stage &st = stages_[i];
            st.hops = {};
            st.nvlinkNodes = {};
            st.bytesPerHopPerRound = 0;
            st.rounds = 0;
            st.ownHops.clear();
            st.ownNodes.clear();
        }
        numStages_ = count;
    }

    /** Give each of @p count channels a fresh cursor. */
    void
    resetCursors(std::size_t count)
    {
        if (cursors_.size() < count)
            cursors_.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            ChannelCursor &cur = cursors_[i];
            cur.stage = 0;
            cur.round = 0;
            cur.pending = 0;
            cur.finished = false;
            cur.connsUsed.clear();
        }
        numCursors_ = count;
    }

    /**
     * Derive the hop structure for the requested op: a ring, except
     * for alltoall and point-to-point.
     */
    void
    buildPlan()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        if (op_.op == CollOp::SendRecv) {
            activeChannels_ = 1;
            resetStages(1);
            Stage &st = stages_[0];
            st.rounds = 1;
            st.bytesPerHopPerRound = std::max<Bytes>(1, op_.bytes);
            const auto &sd = comm.device(op_.p2pSrc);
            const auto &dd = comm.device(op_.p2pDst);
            if (sd.node == dd.node)
                st.ownNodes.push_back(sd.node);
            else
                st.ownHops.push_back({op_.p2pSrc, op_.p2pDst});
            st.hops = st.ownHops;
            st.nvlinkNodes = st.ownNodes;
            resetCursors(1);
            return;
        }

        activeChannels_ = comm.channels();
        const double factor = busFactor(op_.op, n);
        if (factor <= 0.0)
            return; // degenerate single-rank op: no stages, no cursors

        const int real_rounds = ringRounds(op_.op, n);
        const int k =
            std::max(1, std::min(real_rounds, kMaxSimRounds));
        const auto per_round = static_cast<Bytes>(std::max(
            1.0, static_cast<double>(op_.bytes) * factor /
                     (static_cast<double>(k) * activeChannels_)));

        if (op_.op == CollOp::AllToAll && n > 1) {
            buildAllToAllPlan();
        } else {
            resetStages(1);
            Stage &st = stages_[0];
            st.rounds = k;
            st.bytesPerHopPerRound = per_round;
            st.hops = comm.boundaries();
            // Every participating node forwards each round's chunk
            // through its GPUs' HBM/NVLink plane; this is the resource
            // that caps bus bandwidth at ~362 Gbps on the paper's H800
            // nodes, whether or not the ring has co-located ranks.
            st.nvlinkNodes = comm.nodes();
        }
        resetCursors(static_cast<std::size_t>(activeChannels_));
    }

    /**
     * Shifted-exchange alltoall: in stage s (1..n-1) every rank i sends
     * its block for rank (i+s) mod n. This is the MoE dispatch/combine
     * traffic pattern of expert parallelism (paper Section V).
     */
    void
    buildAllToAllPlan()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();
        const auto per_hop = static_cast<Bytes>(std::max(
            1.0, static_cast<double>(op_.bytes) /
                     (static_cast<double>(n) * activeChannels_)));

        resetStages(static_cast<std::size_t>(n - 1));
        for (int shift = 1; shift < n; ++shift) {
            Stage &st = stages_[static_cast<std::size_t>(shift - 1)];
            st.rounds = 1;
            st.bytesPerHopPerRound = per_hop;
            for (Rank i = 0; i < n; ++i) {
                const Rank j = static_cast<Rank>((i + shift) % n);
                if (comm.device(i).node != comm.device(j).node)
                    st.ownHops.push_back({i, j});
            }
            st.hops = st.ownHops;
            st.nvlinkNodes = comm.nodes();
        }
    }

    void
    onAllRanksReady()
    {
        const Communicator &comm = *cs_.comm;
        AcclMonitor &mon = lib_.monitor_;

        cs_.progress.startTime = startTime_;

        for (Rank r = 0; r < comm.size(); ++r) {
            RankWaitRecord w;
            w.comm = comm.id();
            w.seq = op_.seq;
            w.rank = r;
            w.recvWait =
                startTime_ - postTimes_[static_cast<std::size_t>(r)];
            mon.record(w);
            beat(r, startTime_);
        }

        if (numCursors_ == 0 || numStages_ == 0) {
            finish(); // degenerate op (single rank)
            return;
        }
        for (int c = 0; c < activeChannels_; ++c)
            startRound(c);
    }

    void
    startRound(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];
        const Stage &st = stages_[static_cast<std::size_t>(cur.stage)];

        cur.connsUsed.clear();
        cur.pending = 0;

        // NVLink stages: each forwarding GPU moves this round's chunk at
        // its per-channel share of the node's NVLink bus budget.
        const Bandwidth nvl =
            lib_.fabric_.topology().config().nvlinkBusBandwidth /
            static_cast<double>(activeChannels_);
        for (NodeId node : st.nvlinkNodes) {
            ++cur.pending;
            if (nodeCrashed(node))
                continue; // dead workers: this stage never completes
            const Duration d =
                transferTime(st.bytesPerHopPerRound, nvl);
            scheduleAfter(d, [this, channel, node] {
                onNvlinkDone(channel, node);
            });
        }

        for (const auto &hop : st.hops) {
            if (crashed(hop.src) || crashed(hop.dst)) {
                // RDMA sends to/from a dead worker never get an ACK:
                // the hop stays pending forever while healthy peers
                // keep making (one round of) progress — the exact
                // differential the C4D delay/heartbeat analysis uses
                // to localize the culprit.
                ++cur.pending;
                continue;
            }
            launchHop(channel, hop, st.bytesPerHopPerRound);
        }

        if (cur.pending == 0 && !anyCrash()) {
            // Nothing to move on this channel (e.g. empty stage).
            advance(channel);
        }
    }

    bool
    crashed(Rank r) const
    {
        return cs_.crashed[static_cast<std::size_t>(r)] != 0;
    }

    bool
    nodeCrashed(NodeId node) const
    {
        for (Rank r : cs_.comm->ranksOnNode(node)) {
            if (crashed(r))
                return true;
        }
        return false;
    }

    bool anyCrash() const { return cs_.numCrashed > 0; }

    void
    launchHop(int channel, const Communicator::Boundary &hop, Bytes bytes)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];

        const std::uint32_t first =
            lib_.getConnection(cs_, channel, hop.src, hop.dst);
        cur.connsUsed.push_back(first);
        const std::uint32_t last =
            first + static_cast<std::uint32_t>(lib_.cfg_.qpsPerConnection);
        QpArena &qps = cs_.qps;

        double wsum = 0.0;
        for (std::uint32_t q = first; q < last; ++q)
            wsum += std::max(0.0, qps.weights[q]);
        if (wsum <= 0.0)
            wsum = 1.0;

        for (std::uint32_t q = first; q < last; ++q) {
            const double share = std::max(0.0, qps.weights[q]) / wsum;
            const auto qbytes =
                static_cast<Bytes>(static_cast<double>(bytes) * share);
            if (qbytes <= 0)
                continue;
            ++cur.pending;

            const ConnContext &ctx = qps.ctxs[q];
            // Per-message routing policies (packet spraying) re-roll
            // the path for every chunk; everyone else keeps the QP's
            // long-lived decision.
            if (lib_.policy_->perMessageRouting())
                qps.decisions[q] = lib_.policy_->decide(ctx);
            const PathDecision &dec = qps.decisions[q];
            net::PathRequest req;
            req.srcNode = ctx.srcNode;
            req.srcNic = ctx.srcNic;
            req.dstNode = ctx.dstNode;
            req.dstNic = ctx.dstNic;
            req.txPlane = dec.txPlane;
            req.spine = dec.spine;
            req.rxPlane = dec.rxPlane;
            req.flowLabel = dec.flowLabel;

            std::uint32_t slot;
            if (freeFlows_.empty()) {
                slot = static_cast<std::uint32_t>(flows_.size());
                flows_.emplace_back();
            } else {
                slot = freeFlows_.back();
                freeFlows_.pop_back();
            }
            FlowRec &f = flows_[slot];
            f.channel = channel;
            f.hop = hop;
            f.qp = q;
            f.txPlane = req.txPlane;
            f.id = lib_.fabric_.startFlow(
                req, qbytes, [this, slot](const net::FlowEnd &end) {
                    onFlowDone(slot, end);
                });
            f.live = true;
            f.spine = kInvalidId;
            f.rxPlane = kInvalidId;
            if (const net::Route *route = lib_.fabric_.flowRoute(f.id)) {
                f.spine = route->spine;
                f.rxPlane = net::planeIndex(route->rxPlane);
            }
        }
    }

    void
    onFlowDone(std::uint32_t slot, const net::FlowEnd &end)
    {
        const Communicator &comm = *cs_.comm;
        // Copy out: hopDone() may start the next round, reusing the slot
        // or growing flows_.
        FlowRec &f = flows_[slot];
        f.live = false;
        const FlowRec meta = f;
        freeFlows_.push_back(slot);

        const QpArena &qps = cs_.qps;
        const ConnContext &ctx = qps.ctxs[meta.qp];
        const PathDecision &dec = qps.decisions[meta.qp];

        ConnRecord rec;
        rec.comm = comm.id();
        rec.seq = op_.seq;
        rec.channel = meta.channel;
        rec.qpIndex = ctx.qpIndex;
        rec.qp = qps.ids[meta.qp];
        rec.srcRank = meta.hop.src;
        rec.dstRank = meta.hop.dst;
        rec.srcNode = ctx.srcNode;
        rec.dstNode = ctx.dstNode;
        rec.srcNic = ctx.srcNic;
        rec.txPlane = meta.txPlane;
        rec.spine = meta.spine;
        rec.rxPlane = meta.rxPlane;
        rec.bytes = end.bytes;
        rec.startTime = end.startTime;
        rec.endTime = end.endTime;
        lib_.monitor_.record(rec);
        beat(meta.hop.src, end.endTime);
        beat(meta.hop.dst, end.endTime);

        PathFeedback fb;
        fb.bytes = end.bytes;
        fb.duration = end.duration();
        fb.achievedRate = end.achievedRate();
        lib_.policy_->feedback(ctx, dec, fb);

        hopDone(meta.channel);
    }

    void
    onNvlinkDone(int channel, NodeId node)
    {
        for (Rank r : cs_.comm->ranksOnNode(node))
            beat(r, lib_.sim_.now());
        hopDone(channel);
    }

    void
    hopDone(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];
        assert(cur.pending > 0);
        if (--cur.pending == 0)
            advance(channel);
    }

    void
    advance(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];

        // Give the policy a chance to rebalance the QP groups this round
        // used (C4P's dynamic load balance hook).
        const auto qpn =
            static_cast<std::size_t>(lib_.cfg_.qpsPerConnection);
        QpArena &qps = cs_.qps;
        for (std::uint32_t first : cur.connsUsed) {
            lib_.policy_->rebalance(
                std::span<const ConnContext>(qps.ctxs).subspan(first, qpn),
                std::span<PathDecision>(qps.decisions).subspan(first, qpn),
                std::span<double>(qps.weights).subspan(first, qpn));
        }

        ++cur.round;
        if (cur.round >=
            stages_[static_cast<std::size_t>(cur.stage)].rounds) {
            cur.round = 0;
            ++cur.stage;
        }
        if (static_cast<std::size_t>(cur.stage) >= numStages_) {
            cur.finished = true;
            if (++channelsFinished_ == numCursors_)
                finish();
            return;
        }
        startRound(channel);
    }

    void
    finish()
    {
        const Communicator &comm = *cs_.comm;
        const Time end = lib_.sim_.now();

        std::fill(cs_.heartbeats.begin(), cs_.heartbeats.end(), end);
        cs_.progress.endTime = end;
        lib_.monitor_.collectiveFinished(comm.size());

        CollectiveResult res;
        res.comm = comm.id();
        res.seq = op_.seq;
        res.op = op_.op;
        res.bytes = op_.bytes;
        res.nranks = comm.size();
        res.postTime = minPost_;
        res.startTime = startTime_;
        res.endTime = end;

        CollectiveCallback done = std::move(op_.done);
        // Ends this op and may begin the next one on this Exec (or, via
        // the callback, destroy it): touch no member after this.
        lib_.finishExec(cs_);
        if (done)
            done(res);
    }
};

Accl::Accl(Simulator &sim, net::Fabric &fabric, AcclConfig cfg,
           std::uint64_t seed)
    : sim_(sim), fabric_(fabric), cfg_(cfg), rng_(seed),
      baselinePolicy_(rng_()), policy_(&baselinePolicy_)
{
    if (cfg_.qpsPerConnection < 1)
        throw std::invalid_argument("qpsPerConnection must be >= 1");
}

Accl::~Accl() = default;

CommId
Accl::createCommunicator(JobId job, std::vector<DeviceInfo> devices,
                         int channels)
{
    const int ch = channels > 0 ? channels : kDefaultChannels;
    const auto id = static_cast<CommId>(comms_.size() + 1);
    auto cs = std::make_unique<CommState>();
    cs->comm = std::make_unique<Communicator>(id, job, std::move(devices),
                                              ch);
    const auto nranks = static_cast<std::size_t>(cs->comm->size());
    cs->heartbeats.assign(nranks, kTimeNever);
    cs->crashed.assign(nranks, 0);
    // A ring collective uses one connection per boundary and channel;
    // other plans grow the arena on first use.
    const std::size_t conns = cs->comm->boundaries().size() *
                              static_cast<std::size_t>(ch);
    if (conns > 0) {
        const std::size_t qps =
            conns * static_cast<std::size_t>(cfg_.qpsPerConnection);
        cs->qps.ctxs.reserve(qps);
        cs->qps.decisions.reserve(qps);
        cs->qps.weights.reserve(qps);
        cs->qps.ids.reserve(qps);
        cs->qps.index.reserve(conns);
    }

    CommRecord rec;
    rec.when = sim_.now();
    rec.comm = id;
    rec.job = job;
    rec.nranks = cs->comm->size();
    rec.channels = ch;
    rec.created = true;
    for (const auto &d : cs->comm->devices())
        rec.rankNodes.push_back(d.node);
    monitor_.record(rec);

    comms_.push_back(std::move(cs));
    return id;
}

void
Accl::destroyCommunicator(CommId comm)
{
    CommState *cs = find(comm);
    if (!cs)
        return;

    CommRecord rec;
    rec.when = sim_.now();
    rec.comm = comm;
    rec.job = cs->comm->job();
    rec.nranks = cs->comm->size();
    rec.channels = cs->comm->channels();
    rec.created = false;
    monitor_.record(rec);

    releaseConnections(*cs);
    // Exec destructor aborts the in-flight op.
    comms_[static_cast<std::size_t>(comm) - 1].reset();
}

bool
Accl::hasCommunicator(CommId comm) const
{
    return find(comm) != nullptr;
}

const Communicator &
Accl::communicator(CommId comm) const
{
    return *state(comm).comm;
}

const OpProgress *
Accl::currentOp(CommId comm) const
{
    const CommState *cs = find(comm);
    return cs && cs->progress.posted() ? &cs->progress : nullptr;
}

std::span<const Time>
Accl::heartbeats(CommId comm) const
{
    const CommState *cs = find(comm);
    if (!cs)
        return {};
    return cs->heartbeats;
}

void
Accl::setPathPolicy(PathPolicy *policy)
{
    policy_ = policy != nullptr ? policy : &baselinePolicy_;
}

Accl::CommState *
Accl::find(CommId comm) const
{
    const auto slot = static_cast<std::size_t>(comm) - 1;
    return comm > 0 && slot < comms_.size() ? comms_[slot].get()
                                            : nullptr;
}

Accl::CommState &
Accl::state(CommId comm) const
{
    CommState *cs = find(comm);
    if (!cs)
        throw std::out_of_range("unknown communicator");
    return *cs;
}

std::uint32_t
Accl::getConnection(CommState &cs, int channel, Rank src, Rank dst)
{
    const std::uint64_t key = connKey(channel, src, dst);
    QpArena &qps = cs.qps;
    auto it = std::lower_bound(
        qps.index.begin(), qps.index.end(), key,
        [](const auto &entry, std::uint64_t k) { return entry.first < k; });
    if (it != qps.index.end() && it->first == key)
        return it->second;

    const Communicator &comm = *cs.comm;
    const DeviceInfo &sd = comm.device(src);
    const DeviceInfo &dd = comm.device(dst);

    // Rail selection: a boundary's traffic departs the boundary GPU's
    // rail-affine NIC and lands on the receiving GPU's NIC. All channels
    // share that bonded NIC pair (one plane each by default), which is
    // the dual-port arrangement whose RX imbalance Fig. 9 studies.
    const NicId src_nic = sd.nic;
    const NicId dst_nic = dd.nic;

    const auto first = static_cast<std::uint32_t>(qps.ctxs.size());
    for (int q = 0; q < cfg_.qpsPerConnection; ++q) {
        ConnContext ctx;
        ctx.job = comm.job();
        ctx.comm = comm.id();
        ctx.channel = channel;
        ctx.qpIndex = q;
        ctx.srcNode = sd.node;
        ctx.srcNic = src_nic;
        ctx.dstNode = dd.node;
        ctx.dstNic = dst_nic;
        qps.ctxs.push_back(ctx);
        qps.decisions.push_back(policy_->decide(ctx));
        qps.weights.push_back(1.0);
        qps.ids.push_back(nextQpId_++);
    }
    qps.index.insert(it, {key, first});
    return first;
}

void
Accl::releaseConnections(CommState &cs)
{
    QpArena &qps = cs.qps;
    for (std::size_t q = 0; q < qps.ctxs.size(); ++q)
        policy_->release(qps.ctxs[q], qps.decisions[q]);
    qps = {};
}

CollSeq
Accl::postCollective(CommId comm, CollOp op, Bytes bytesPerRank,
                     CollectiveCallback done,
                     std::span<const Duration> rankPostDelays)
{
    assert(bytesPerRank > 0);
    assert(op != CollOp::SendRecv && "use sendRecv()");
    CommState &cs = state(comm);

    PendingOp &p = cs.push(sim_.now());
    p.op = op;
    p.bytes = bytesPerRank;
    p.delays.assign(rankPostDelays.begin(), rankPostDelays.end());
    p.done = std::move(done);
    const CollSeq seq = p.seq;

    startNext(cs);
    return seq;
}

CollSeq
Accl::sendRecv(CommId comm, Rank src, Rank dst, Bytes bytes,
               CollectiveCallback done)
{
    assert(bytes > 0);
    CommState &cs = state(comm);
    assert(src >= 0 && src < cs.comm->size());
    assert(dst >= 0 && dst < cs.comm->size());

    PendingOp &p = cs.push(sim_.now());
    p.op = CollOp::SendRecv;
    p.bytes = bytes;
    p.done = std::move(done);
    p.p2pSrc = src;
    p.p2pDst = dst;
    const CollSeq seq = p.seq;

    startNext(cs);
    return seq;
}

void
Accl::crashRank(CommId comm, Rank rank)
{
    CommState &cs = state(comm);
    assert(rank >= 0 && rank < cs.comm->size());
    char &dead = cs.crashed[static_cast<std::size_t>(rank)];
    cs.numCrashed += dead ? 0 : 1;
    dead = 1;
}

bool
Accl::rankCrashed(CommId comm, Rank rank) const
{
    const CommState &cs = state(comm);
    return rank >= 0 && rank < cs.comm->size() &&
           cs.crashed[static_cast<std::size_t>(rank)] != 0;
}

void
Accl::startNext(CommState &cs)
{
    if ((cs.exec && cs.exec->busy()) || cs.queueHead == cs.queueTail)
        return;
    if (cs.queueHead > 32 && 2 * cs.queueHead > cs.queueTail) {
        // A queue that never drains: rotate the consumed prefix to the
        // back, where its slots are spare.
        const auto head = static_cast<std::ptrdiff_t>(cs.queueHead);
        const auto tail = static_cast<std::ptrdiff_t>(cs.queueTail);
        std::rotate(cs.queue.begin(), cs.queue.begin() + head,
                    cs.queue.begin() + tail);
        cs.queueTail -= cs.queueHead;
        cs.queueHead = 0;
    }
    PendingOp &next = cs.queue[cs.queueHead++];
    if (cs.queueHead == cs.queueTail)
        cs.queueHead = cs.queueTail = 0;
    if (!cs.exec)
        cs.exec = std::make_unique<Exec>(*this, cs);
    cs.exec->begin(next);
}

void
Accl::finishExec(CommState &cs)
{
    ++completed_;
    cs.exec->teardown();
    startNext(cs);
}

} // namespace c4::accl
