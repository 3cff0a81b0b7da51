/**
 * @file
 * Flow-level (fluid) fabric simulator.
 *
 * Flows are (route, bytes) pairs. At any instant, active flow rates are
 * the max-min fair allocation over directed link capacities (progressive
 * filling). The engine is event driven: it advances to the next flow
 * completion; starting/aborting a flow, failing a link, or scaling a
 * link's capacity triggers re-allocation.
 *
 * This granularity is exactly what C4 observes in production: message
 * completion times, per-port throughput, and CNP (Congestion Notification
 * Packet) rates. A DCQCN-style congestion model overlays the fair-share
 * allocation: flows crossing saturated links receive CNPs and exhibit a
 * small sender-side rate fluctuation (paper Fig. 11's 12.5-17.5 kp/s band
 * and Fig. 10b's residual spread).
 *
 * Every flow event costs work in proportion to its *dirty component*,
 * never the flow table. The fabric tracks dirty links (link up/down,
 * capacity scaling, membership changes from flow start/end/abort/
 * stall) and re-runs progressive filling only over the connected
 * component of flows reachable from dirty links through shared-link
 * membership. Progressive filling couples flows only through shared
 * links, so components fill independently and the component-scoped
 * result is exactly the global one. The rest of the bookkeeping is
 * scoped the same way:
 *  - the DCQCN overlay visits component flows only. Its two uniforms
 *    come from a counter-based generator (net/philox.h) keyed by
 *    (fabric seed, flow id, per-flow draw count), and a flow draws
 *    again only when its fair share, congested flag or overload
 *    changed, so no flow's numbers depend on table order or on which
 *    other flows a recompute happened to visit;
 *  - progress is lazy: a flow stores (remaining bytes, anchor time)
 *    and is re-anchored only when its rate changes;
 *  - completions live in an indexed min-heap keyed by (time, flow id)
 *    with one kernel event for its top;
 *  - per-NIC CNP sums are re-summed, over the NIC's flows in id order,
 *    only for NICs whose flows changed.
 * Anything that follows flow order (the fill's runnable set,
 * completion callbacks, reroutes) goes in ascending FlowId order, and
 * the fill breaks ties between equally constrained links by link id,
 * so rates depend on the flow set, not on the order of admission.
 * Set FabricConfig::incrementalRecompute = false to make every
 * recompute treat all flows as dirty (the shadow reference for the
 * equivalence tests); by the rules above both modes agree exactly.
 */

#ifndef C4_NET_FABRIC_H
#define C4_NET_FABRIC_H

#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace c4::net {

/** Tunables of the congestion / CNP overlay. */
struct FabricConfig
{
    /**
     * Enable DCQCN-style sender rate fluctuation on congested paths.
     * Off, the allocation is the pure max-min fair share.
     */
    bool congestionJitter = true;

    /** Max fractional rate reduction due to congestion control. */
    double jitterMax = 0.06;

    /**
     * CNPs per second delivered to a flow per unit of overload
     * (demand/capacity - 1) on its bottleneck link. A bonded port
     * carries one flow per plane, so 7500 per flow puts the Fig. 10b/11
     * setup at ~15 kp/s per port (the paper's 12.5-17.5 band).
     */
    double cnpRatePerOverload = 7500.0;

    /** Multiplicative noise applied to CNP rates on each re-allocation. */
    double cnpNoise = 0.15;

    /**
     * Scope re-allocation to the dirty-link connected component (see
     * the file header). Off, every recompute treats all flows as
     * dirty — the equivalence-test shadow. Both modes produce
     * identical allocations, overlay draws and completion times.
     */
    bool incrementalRecompute = true;

    /**
     * Coalesce window for link events (up/down, capacity scaling):
     * instead of re-allocating at the same instant, the recompute is
     * deferred by this much so a storm of link events inside the
     * window costs a single re-fill. 0 (the default) re-allocates
     * immediately, exactly as before. Flow events (start/completion/
     * abort/stall) always recompute immediately; a query (flush)
     * forces consistency regardless. With a nonzero window, flows keep
     * progressing at their pre-event rates until the deferred
     * recompute fires — an explicit modelling tradeoff for fault
     * storms, not a default.
     */
    Duration coalesceWindow = 0;
};

/** Completion notice passed to a flow's callback. */
struct FlowEnd
{
    FlowId id = kInvalidId;
    Time startTime = 0;
    Time endTime = 0;
    Bytes bytes = 0;

    Duration duration() const { return endTime - startTime; }

    /** Achieved goodput in bits/s. */
    Bandwidth
    achievedRate() const
    {
        const Duration d = duration();
        return d > 0 ? static_cast<double>(bytes) * 8.0 /
                           toSeconds(d)
                     : 0.0;
    }
};

using FlowCallback = std::function<void(const FlowEnd &)>;

/**
 * The fluid flow engine. Owns no topology; mutates only link state via
 * the Topology reference (on behalf of callers) and its own flow table.
 */
class Fabric
{
  public:
    /**
     * @param sim event engine (must outlive the fabric)
     * @param topo wiring; the fabric registers no callbacks, callers must
     *        route link failures through Fabric::setLinkUp so flows reroute
     * @param cfg congestion model tunables
     * @param seed key of the counter-based jitter/CNP noise draws
     */
    Fabric(Simulator &sim, Topology &topo, FabricConfig cfg = {},
           std::uint64_t seed = 0xC4C4C4C4ull);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Start a flow described by a routing request. The route is resolved
     * immediately; if no healthy path exists the flow is admitted in a
     * stalled state (rate 0) and will be re-resolved when link state
     * changes — mirroring an RDMA QP retrying on a black-holed path.
     *
     * @return the flow id (always valid).
     */
    FlowId startFlow(const PathRequest &req, Bytes bytes,
                     FlowCallback done);

    /** Start a flow on an explicit route (used by the C4P path prober). */
    FlowId startFlowOnRoute(Route route, Bytes bytes, FlowCallback done);

    /**
     * Abort a flow; its callback is not invoked.
     * @return true if the flow was active (false for a finished,
     *         aborted or never-assigned id).
     */
    bool abortFlow(FlowId id);

    /** Force a flow's rate to zero (fault injection: ACK timeout). */
    void stallFlow(FlowId id);

    /** Undo stallFlow. */
    void resumeFlow(FlowId id);

    /**
     * Bring a link up/down. Downing reroutes affected flows via ECMP
     * rehash among survivors (or stalls them when no path remains);
     * restoring re-resolves all request-backed flows, so flows that
     * were rehashed onto survivors during the outage rebalance back
     * once the link heals (the paper's Fig. 12/13 recovery).
     */
    void setLinkUp(LinkId id, bool up);

    /** Degrade (or restore) a link's capacity; flows keep their routes. */
    void setLinkCapacityScale(LinkId id, double scale);

    /** @name Introspection (forces a consistent allocation first) @{ */
    std::size_t activeFlowCount() const;
    bool flowActive(FlowId id) const;
    Bandwidth flowRate(FlowId id);
    const Route *flowRoute(FlowId id) const;
    Bytes flowRemaining(FlowId id);

    /** Instantaneous allocated rate through a link (0 if @p id is
     * out of range). */
    Bandwidth linkThroughput(LinkId id);

    /** True if the link is allocated to (nearly) full capacity
     * (false if @p id is out of range). */
    bool linkCongested(LinkId id);

    /** Sum of flows' unconstrained demands divided by capacity
     * (0 if @p id is out of range). */
    double linkDemandRatio(LinkId id);

    /**
     * CNPs per second currently delivered to the sender-side bonded port
     * (NIC) — the paper's Fig. 11 metric. Aggregates both planes.
     * O(1): served from a dense per-(node, nic) aggregate maintained by
     * recompute(), so C4D-style polling of every NIC stays cheap.
     * 0 for an out-of-range node or NIC.
     */
    double nicCnpRate(NodeId node, NicId nic);

    std::uint64_t totalFlowsCompleted() const { return completed_; }
    std::uint64_t totalFlowsStarted() const { return started_; }
    std::uint64_t reallocationCount() const { return reallocations_; }

    /**
     * Deterministic cost model of recompute(): progressive-filling
     * work units (link scans + per-flow route updates) accumulated
     * over all re-allocations. Seed-stable — unlike wall clock — so
     * it can gate regressions and feed trace events. With incremental
     * recompute the counter only accrues component-scoped work, which
     * is exactly the asymptotic win the fabric_recompute_ops golden
     * CSV locks in.
     */
    std::uint64_t recomputeOpsTotal() const { return recomputeOps_; }

    /** Work units of the most recent recompute() alone. */
    std::uint64_t recomputeOpsLast() const { return lastRecomputeOps_; }
    /** @} */

    const Topology &topology() const { return topo_; }
    Simulator &simulator() { return sim_; }

  private:
    /** Slot of a free table entry / flow not in the completion heap. */
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    struct FlowState
    {
        FlowId id = kInvalidId; // kInvalidId marks a free slot
        PathRequest req;
        bool hasReq = false;
        Route route;
        // Lazy progress: bytes left as of `anchor`; the flow has been
        // sending at `rate` since then.
        double remaining = 0.0;
        Time anchor = 0;
        Bytes total = 0;
        Time startTime = 0;
        double baseRate = 0.0; // pure fair share, bits/s
        double rate = 0.0;     // post-jitter sending rate, bits/s
        double cnpRate = 0.0;
        // Overlay inputs of the current rate; a change of any of them
        // (or of baseRate) triggers a new draw.
        bool congested = false;
        double overload = 0.0;
        std::uint64_t draws = 0; // counter of the flow's noise stream
        bool stalled = false;
        // Progressive-filling scratch; -1 while not yet fixed.
        double fillRate = 0.0;
        // Component-closure visit stamp; flows whose stamp matches the
        // fabric's current recompute epoch are being re-filled.
        std::uint64_t visitEpoch = 0;
        Time due = kTimeNever; // completion time, if finite
        std::uint32_t heapPos = kNoSlot;
        std::int32_t nic = -1; // dense sender-NIC index (request flows)
        FlowCallback done;
    };

    Simulator &sim_;
    Topology &topo_;
    PathSelector selector_;
    FabricConfig cfg_;
    std::uint64_t seed_;

    // Dense flow table. Slots are recycled; FlowIds are not.
    std::vector<FlowState> slots_;
    std::vector<std::uint32_t> freeSlots_;
    // (id, slot) of every admitted flow in ascending id order; a dead
    // flow's slot reads kNoSlot until the next compaction.
    std::vector<std::pair<FlowId, std::uint32_t>> index_;
    std::size_t indexDead_ = 0;
    std::size_t live_ = 0;
    FlowId nextFlowId_ = 1;

    // Aggregate CNP rate per sender (node * nicsPerNode + nic) and the
    // request flows sending from each NIC, in id order.
    std::vector<double> nicCnp_;
    std::vector<std::vector<std::uint32_t>> nicFlows_;
    std::vector<int> dirtyNics_;
    std::vector<char> nicDirtyFlag_;

    // Completion min-heap of slots keyed by (due, id).
    std::vector<std::uint32_t> heap_;
    Time completionDue_ = kTimeNever; // when completionEvent_ fires

    bool dirty_ = false;
    Time recomputeDue_ = 0; // when the pending deferred recompute fires
    EventId recomputeEvent_ = kInvalidEvent;
    EventId completionEvent_ = kInvalidEvent;

    // Persistent allocation state: these survive across
    // re-allocations and only the links of the dirty component are
    // rewritten.
    std::vector<double> linkAlloc_;  // bits/s currently allocated
    std::vector<double> linkDemand_; // demand ratio
    std::vector<bool> linkCongested_;

    // Persistent link -> flow-slot membership mirror of every admitted
    // flow's current route; the edge set of the component search.
    LinkMembershipIndex membership_;

    // Dirty-link accumulator between recomputes.
    std::vector<LinkId> dirtyLinks_;
    std::vector<char> linkDirtyFlag_;

    // Component-closure stamps (flows carry theirs in FlowState).
    std::uint64_t epoch_ = 0;
    std::vector<std::uint64_t> linkEpoch_;
    std::vector<LinkId> componentLinks_;

    // Reused scratch: recompute runs on every flow event, so nothing
    // on its path allocates once these have grown.
    std::vector<std::uint32_t> scratchComponent_;
    std::vector<std::vector<FlowState *>> scratchMembers_;
    std::vector<double> scratchCap_;
    std::vector<int> scratchUnfixed_;
    std::vector<int> scratchActiveLinks_;
    std::vector<FlowState *> scratchRunnable_;
    std::vector<std::uint32_t> scratchSlots_;
    std::vector<std::pair<FlowEnd, FlowCallback>> scratchDone_;

    std::uint64_t completed_ = 0;
    std::uint64_t started_ = 0;
    std::uint64_t reallocations_ = 0;
    std::uint64_t recomputeOps_ = 0;
    std::uint64_t lastRecomputeOps_ = 0;

    FlowId admit(FlowState state);

    /** Slot of active flow @p id, or kNoSlot. */
    std::uint32_t slotOf(FlowId id) const;
    FlowState *find(FlowId id);

    /** Remove a departing flow from every structure; frees its slot. */
    void release(std::uint32_t slot);

    /** Sort @p slots by ascending flow id. */
    void sortById(std::vector<std::uint32_t> &slots) const;

    /** Bytes @p flow has left at the current instant. */
    double remainingNow(const FlowState &flow) const;

    /** Set @p flow's rate, re-anchoring its progress and completion
     * time when the rate changes. */
    void setRate(FlowState &flow, double rate);

    void setCnpRate(FlowState &flow, double cnpRate);
    void markNicDirty(const FlowState &flow);

    /** @name Completion heap @{ */
    bool heapBefore(std::uint32_t a, std::uint32_t b) const;
    void heapPlace(std::uint32_t pos, std::uint32_t slot);
    void heapSiftUp(std::uint32_t pos);
    void heapSiftDown(std::uint32_t pos);
    void heapUpdate(std::uint32_t slot);
    void heapErase(std::uint32_t slot);
    /** Point the completion event at the heap's top. */
    void armCompletion();
    /** @} */

    /**
     * Mark allocation stale and schedule a recompute @p delay from
     * now (0 = end of the current instant). A pending later recompute
     * is pulled forward; an earlier one is kept.
     */
    void markDirty(Duration delay = 0);

    /** Flag one link as needing re-fill at the next recompute. */
    void markLinkDirty(LinkId id);

    /** Point @p flow at @p route, maintaining membership + dirt. */
    void setFlowRoute(FlowState &flow, Route route);

    /** Recompute fair-share rates over the dirty component. */
    void recompute();

    /** DCQCN overlay for one component flow after the fill. */
    void applyOverlay(FlowState &flow);

    /** Ensure rates are consistent before a query. */
    void flush();

    /** Fire completions that are due. */
    void onCompletionEvent();

    /** @return the number of flows whose routes were touched. */
    std::size_t rerouteFlowsTouching(LinkId id);
    std::size_t reresolveRequestFlows();
};

} // namespace c4::net

#endif // C4_NET_FABRIC_H
