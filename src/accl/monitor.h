/**
 * @file
 * ACCL's runtime monitoring enhancement (paper Fig. 5/6).
 *
 * The paper instruments the bottom three ACCL layers. This monitor keeps
 * the three record streams C4D reads: communicator lifecycle, per-rank
 * receiver wait times, and per-connection/QP message completions. C4
 * agents (C4a) periodically drain them and forward them to the C4D
 * master. Operation progress and per-rank heartbeats are not records:
 * they live in each communicator's state in Accl (Accl::currentOp,
 * Accl::heartbeats), and agents copy them at each collection.
 */

#ifndef C4_ACCL_MONITOR_H
#define C4_ACCL_MONITOR_H

#include <cstdint>
#include <vector>

#include "accl/collective.h"
#include "common/ring.h"
#include "common/types.h"
#include "net/topology.h"

namespace c4::accl {

/** Communicator-layer record: one per communicator creation/destruction. */
struct CommRecord
{
    Time when = 0;
    CommId comm = kInvalidId;
    JobId job = kInvalidId;
    int nranks = 0;
    int channels = 0;
    bool created = true; ///< false on destruction

    /** Node hosting each rank (the "involved devices" of paper Fig. 6). */
    std::vector<NodeId> rankNodes;
};

/**
 * Rank-layer record: the receiver-driven wait each rank imposed on the
 * group (paper: "by comparing the wait time of receivers, we can pinpoint
 * the ranks that are experiencing non-communication slows").
 */
struct RankWaitRecord
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    Rank rank = kInvalidId;
    Duration recvWait = 0; ///< how long this rank waited for the group
};

/** Transport-layer record: one per message (QP flow) completion. */
struct ConnRecord
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    int channel = 0;
    int qpIndex = 0;
    QpId qp = kInvalidId;
    Rank srcRank = kInvalidId;
    Rank dstRank = kInvalidId;
    NodeId srcNode = kInvalidId;
    NodeId dstNode = kInvalidId;
    NicId srcNic = kInvalidId;
    net::Plane txPlane = net::Plane::Left;
    std::int32_t spine = kInvalidId;
    std::int32_t rxPlane = kInvalidId;
    Bytes bytes = 0;
    Time startTime = 0;
    Time endTime = 0;

    Duration duration() const { return endTime - startTime; }

    Bandwidth
    achievedRate() const
    {
        const Duration d = duration();
        return d > 0
                   ? static_cast<double>(bytes) * 8.0 / toSeconds(d)
                   : 0.0;
    }
};

/**
 * In-memory sink for the three record streams C4D reads. Draining
 * consumes records; capacity is bounded so a run nobody drains doesn't
 * accumulate.
 *
 * Every connection is monitored, so this is on the hot path: the
 * streams are ring windows, and draining into caller-owned vectors
 * allocates nothing once the buffers have grown to their working size.
 */
class AcclMonitor
{
  public:
    /** @param capacityPerStream max retained records per stream; oldest
     *        are discarded first */
    explicit AcclMonitor(std::size_t capacityPerStream = 1u << 20)
        : comm_(capacityPerStream), rankWait_(capacityPerStream),
          conn_(capacityPerStream)
    {
    }

    /** @name Recording (called by the library) @{ */
    void record(const CommRecord &r) { push(comm_, r); }
    void record(const RankWaitRecord &r) { push(rankWait_, r); }

    void
    record(const ConnRecord &r)
    {
        ++totalConn_;
        push(conn_, r);
    }

    /** Count a collective's completion on each of its @p nranks ranks. */
    void collectiveFinished(int nranks) { totalColl_ += nranks; }
    /** @} */

    /** @name Draining (called by C4 agents); consumes the records
     * Each replaces the contents of @p out and reuses its capacity.
     * @{ */
    void drainComm(std::vector<CommRecord> &out) { comm_.drainTo(out); }
    void drainRankWait(std::vector<RankWaitRecord> &out)
    {
        rankWait_.drainTo(out);
    }
    void drainConn(std::vector<ConnRecord> &out) { conn_.drainTo(out); }
    /** @} */

    /** @name Lifetime counters (not consumed by draining) @{ */
    std::uint64_t totalConnRecords() const { return totalConn_; }
    /** (collective, rank) completions. */
    std::uint64_t totalCollRecords() const { return totalColl_; }
    std::uint64_t droppedRecords() const { return dropped_; }
    /** @} */

  private:
    RingWindow<CommRecord> comm_;
    RingWindow<RankWaitRecord> rankWait_;
    RingWindow<ConnRecord> conn_;

    std::uint64_t totalConn_ = 0;
    std::uint64_t totalColl_ = 0;
    std::uint64_t dropped_ = 0;

    template <typename T>
    void
    push(RingWindow<T> &q, const T &r)
    {
        if (!q.push(r))
            ++dropped_;
    }
};

} // namespace c4::accl

#endif // C4_ACCL_MONITOR_H
