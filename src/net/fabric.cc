#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "net/philox.h"

namespace c4::net {

namespace {

/** Flows with fewer remaining bytes than this are complete. */
constexpr double kByteEpsilon = 0.5;

/** A link allocated beyond this fraction of capacity is congested. */
constexpr double kCongestedFraction = 0.999;

} // namespace

Fabric::Fabric(Simulator &sim, Topology &topo, FabricConfig cfg,
               std::uint64_t seed)
    : sim_(sim), topo_(topo), selector_(topo), cfg_(cfg), seed_(seed),
      nicCnp_(static_cast<std::size_t>(topo.numNodes()) *
                  static_cast<std::size_t>(topo.nicsPerNode()),
              0.0),
      nicFlows_(nicCnp_.size()),
      nicDirtyFlag_(nicCnp_.size(), 0),
      linkAlloc_(topo.numLinks(), 0.0),
      linkDemand_(topo.numLinks(), 0.0),
      linkCongested_(topo.numLinks(), false),
      membership_(topo.numLinks()),
      linkDirtyFlag_(topo.numLinks(), 0),
      linkEpoch_(topo.numLinks(), 0),
      scratchMembers_(topo.numLinks()),
      scratchCap_(topo.numLinks(), 0.0),
      scratchUnfixed_(topo.numLinks(), 0)
{
}

// ---------------------------------------------------------------------
// Flow table
// ---------------------------------------------------------------------

std::uint32_t
Fabric::slotOf(FlowId id) const
{
    auto it = std::lower_bound(
        index_.begin(), index_.end(), id,
        [](const auto &entry, FlowId key) { return entry.first < key; });
    return it == index_.end() || it->first != id ? kNoSlot : it->second;
}

Fabric::FlowState *
Fabric::find(FlowId id)
{
    const std::uint32_t slot = slotOf(id);
    return slot == kNoSlot ? nullptr : &slots_[slot];
}

void
Fabric::sortById(std::vector<std::uint32_t> &slots) const
{
    std::sort(slots.begin(), slots.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return slots_[a].id < slots_[b].id;
              });
}

FlowId
Fabric::admit(FlowState state)
{
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(state));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(state);
    }
    FlowState &flow = slots_[slot];
    flow.id = nextFlowId_++;
    flow.startTime = sim_.now();
    flow.anchor = sim_.now();
    index_.emplace_back(flow.id, slot); // ids ascend: stays sorted
    ++live_;
    if (flow.hasReq) {
        const int nics = topo_.nicsPerNode();
        if (flow.req.srcNode >= 0 && flow.req.srcNode < topo_.numNodes() &&
            flow.req.srcNic >= 0 && flow.req.srcNic < nics) {
            flow.nic = flow.req.srcNode * nics + flow.req.srcNic;
            // The newest id goes last, keeping the list in id order.
            nicFlows_[static_cast<std::size_t>(flow.nic)].push_back(slot);
        }
    }
    for (LinkId l : flow.route.links) {
        membership_.add(l, slot);
        markLinkDirty(l);
    }
    ++started_;
    markDirty();
    return flow.id;
}

void
Fabric::release(std::uint32_t slot)
{
    FlowState &flow = slots_[slot];
    for (LinkId l : flow.route.links) {
        membership_.remove(l, slot);
        markLinkDirty(l);
    }
    heapErase(slot);
    if (flow.nic >= 0) {
        auto &list = nicFlows_[static_cast<std::size_t>(flow.nic)];
        list.erase(std::find(list.begin(), list.end(), slot));
        if (flow.cnpRate > 0.0)
            markNicDirty(flow);
    }
    auto it = std::lower_bound(
        index_.begin(), index_.end(), flow.id,
        [](const auto &entry, FlowId key) { return entry.first < key; });
    it->second = kNoSlot;
    // Compact tombstones once they outnumber live entries: amortized
    // O(1) per departure, and the index never outgrows 2x the table.
    if (++indexDead_ > 32 && indexDead_ > index_.size() / 2) {
        std::erase_if(index_, [](const auto &entry) {
            return entry.second == kNoSlot;
        });
        indexDead_ = 0;
    }
    flow = FlowState{};
    freeSlots_.push_back(slot);
    --live_;
}

FlowId
Fabric::startFlow(const PathRequest &req, Bytes bytes, FlowCallback done)
{
    assert(bytes > 0);
    FlowState st;
    st.req = req;
    st.hasReq = true;
    st.route = selector_.select(req);
    st.remaining = static_cast<double>(bytes);
    st.total = bytes;
    st.done = std::move(done);
    if (!st.route.valid()) {
        logDebug("fabric", "flow admitted stalled (no healthy path) "
                 "src=n%d dst=n%d", req.srcNode, req.dstNode);
    }
    return admit(std::move(st));
}

FlowId
Fabric::startFlowOnRoute(Route route, Bytes bytes, FlowCallback done)
{
    assert(bytes > 0);
    FlowState st;
    st.route = std::move(route);
    st.remaining = static_cast<double>(bytes);
    st.total = bytes;
    st.done = std::move(done);
    return admit(std::move(st));
}

bool
Fabric::abortFlow(FlowId id)
{
    flush();
    const std::uint32_t slot = slotOf(id);
    if (slot == kNoSlot)
        return false;
    release(slot);
    markDirty();
    return true;
}

void
Fabric::stallFlow(FlowId id)
{
    flush();
    FlowState *flow = find(id);
    if (flow == nullptr)
        return;
    flow->stalled = true;
    for (LinkId l : flow->route.links)
        markLinkDirty(l);
    markDirty();
}

void
Fabric::resumeFlow(FlowId id)
{
    flush();
    FlowState *flow = find(id);
    if (flow == nullptr)
        return;
    flow->stalled = false;
    for (LinkId l : flow->route.links)
        markLinkDirty(l);
    markDirty();
}

// ---------------------------------------------------------------------
// Links and routes
// ---------------------------------------------------------------------

void
Fabric::setLinkUp(LinkId id, bool up)
{
    // With a coalesce window, link events batch into one deferred
    // recompute; forcing consistency here would defeat that.
    if (cfg_.coalesceWindow == 0)
        flush();
    if (topo_.link(id).up == up)
        return;
    topo_.setLinkUp(id, up);
    markLinkDirty(id);
    const std::size_t touched =
        up ? reresolveRequestFlows() : rerouteFlowsTouching(id);
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::PathRealloc)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::PathRealloc;
        tev.a = id;
        tev.b = up ? 1 : 0;
        tev.value = static_cast<double>(touched);
        tev.detail = up ? "link_up" : "link_down";
        tr.record(std::move(tev));
    }
    obs::MetricsScope &mx = sim_.metrics();
    if (mx.attached()) {
        mx.count(up ? "fabric.link_up_events"
                    : "fabric.link_down_events");
        mx.count("fabric.flows_rerouted",
                 static_cast<std::int64_t>(touched));
    }
    markDirty(cfg_.coalesceWindow);
}

void
Fabric::setLinkCapacityScale(LinkId id, double scale)
{
    if (cfg_.coalesceWindow == 0)
        flush();
    topo_.setLinkCapacityScale(id, scale);
    markLinkDirty(id);
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::PathRealloc)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::PathRealloc;
        tev.a = id;
        tev.b = static_cast<std::int64_t>(membership_.memberCount(id));
        tev.value = scale;
        tev.detail = "link_scale";
        tr.record(std::move(tev));
    }
    markDirty(cfg_.coalesceWindow);
}

void
Fabric::setFlowRoute(FlowState &flow, Route route)
{
    const auto slot = static_cast<std::uint32_t>(&flow - slots_.data());
    for (LinkId l : flow.route.links) {
        membership_.remove(l, slot);
        markLinkDirty(l);
    }
    flow.route = std::move(route);
    for (LinkId l : flow.route.links) {
        membership_.add(l, slot);
        markLinkDirty(l);
    }
    if (!flow.route.valid()) {
        // A routeless flow has no link membership, so no component
        // search can reach it: silence it here. setRate banks the
        // bytes sent so far.
        flow.baseRate = 0.0;
        flow.congested = false;
        flow.overload = 0.0;
        setRate(flow, 0.0);
        setCnpRate(flow, 0.0);
    }
}

std::size_t
Fabric::rerouteFlowsTouching(LinkId id)
{
    // Copy: rerouting edits this link's membership as it goes.
    std::vector<std::uint32_t> &touched = scratchSlots_;
    touched.clear();
    for (std::int64_t slot : membership_.members(id))
        touched.push_back(static_cast<std::uint32_t>(slot));
    sortById(touched);
    for (std::uint32_t slot : touched) {
        FlowState &flow = slots_[slot];
        if (flow.hasReq) {
            // ECMP rehash among the surviving next hops: deterministic
            // per flow, so rerouted flows can concentrate (Fig. 13a).
            setFlowRoute(flow, selector_.select(flow.req));
        } else {
            setFlowRoute(flow, Route{}); // explicit route died with it
        }
    }
    return touched.size();
}

std::size_t
Fabric::reresolveRequestFlows()
{
    // Re-resolve every request-backed flow, not just the stalled ones:
    // a restored link re-enters the ECMP hash, so flows rehashed onto
    // survivors during the outage rebalance back to their pre-fault
    // paths (selection is deterministic per request).
    std::size_t touched = 0;
    for (const auto &[id, slot] : index_) {
        if (slot == kNoSlot || !slots_[slot].hasReq)
            continue;
        FlowState &flow = slots_[slot];
        Route fresh = selector_.select(flow.req);
        if (fresh.links == flow.route.links)
            continue;
        ++touched;
        setFlowRoute(flow, std::move(fresh));
    }
    return touched;
}

// ---------------------------------------------------------------------
// Progress, rates and the completion heap
// ---------------------------------------------------------------------

double
Fabric::remainingNow(const FlowState &flow) const
{
    if (flow.rate <= 0.0)
        return flow.remaining;
    const double dt = toSeconds(sim_.now() - flow.anchor);
    return std::max(0.0, flow.remaining - flow.rate * dt / 8.0);
}

void
Fabric::setRate(FlowState &flow, double rate)
{
    if (rate == flow.rate)
        return; // same rate: progress and completion time stand
    const Time now = sim_.now();
    flow.remaining = remainingNow(flow);
    flow.anchor = now;
    flow.rate = rate;
    flow.due = kTimeNever;
    if (flow.remaining <= kByteEpsilon) {
        flow.due = now;
    } else if (rate > 0.0) {
        const double delay_ns = flow.remaining * 8.0 / rate * 1e9;
        // A flow squeezed to a near-zero fair share finishes beyond
        // the representable horizon; casting that to Duration would
        // overflow int64 (UB). It is effectively stalled: schedule
        // nothing and let the next rate change revisit it.
        if (delay_ns < static_cast<double>(kTimeNever - now)) {
            // Round up: at `due` the last byte has been sent.
            flow.due = now + std::max<Duration>(
                                 1, static_cast<Duration>(
                                        std::ceil(delay_ns)));
        }
    }
    heapUpdate(static_cast<std::uint32_t>(&flow - slots_.data()));
}

void
Fabric::setCnpRate(FlowState &flow, double cnpRate)
{
    if (cnpRate == flow.cnpRate)
        return;
    flow.cnpRate = cnpRate;
    markNicDirty(flow);
}

void
Fabric::markNicDirty(const FlowState &flow)
{
    if (flow.nic < 0)
        return;
    const auto ni = static_cast<std::size_t>(flow.nic);
    if (nicDirtyFlag_[ni])
        return;
    nicDirtyFlag_[ni] = 1;
    dirtyNics_.push_back(flow.nic);
}

bool
Fabric::heapBefore(std::uint32_t a, std::uint32_t b) const
{
    const FlowState &x = slots_[a];
    const FlowState &y = slots_[b];
    return x.due != y.due ? x.due < y.due : x.id < y.id;
}

void
Fabric::heapPlace(std::uint32_t pos, std::uint32_t slot)
{
    heap_[pos] = slot;
    slots_[slot].heapPos = pos;
}

void
Fabric::heapSiftUp(std::uint32_t pos)
{
    const std::uint32_t slot = heap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        if (!heapBefore(slot, heap_[parent]))
            break;
        heapPlace(pos, heap_[parent]);
        pos = parent;
    }
    heapPlace(pos, slot);
}

void
Fabric::heapSiftDown(std::uint32_t pos)
{
    const std::uint32_t slot = heap_[pos];
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
        std::uint32_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heapBefore(heap_[child + 1], heap_[child]))
            ++child;
        if (!heapBefore(heap_[child], slot))
            break;
        heapPlace(pos, heap_[child]);
        pos = child;
    }
    heapPlace(pos, slot);
}

void
Fabric::heapUpdate(std::uint32_t slot)
{
    FlowState &flow = slots_[slot];
    if (flow.due == kTimeNever) {
        heapErase(slot);
        return;
    }
    if (flow.heapPos == kNoSlot) {
        heap_.push_back(slot);
        flow.heapPos = static_cast<std::uint32_t>(heap_.size() - 1);
    }
    heapSiftUp(flow.heapPos);
    heapSiftDown(flow.heapPos);
}

void
Fabric::heapErase(std::uint32_t slot)
{
    const std::uint32_t pos = slots_[slot].heapPos;
    if (pos == kNoSlot)
        return;
    slots_[slot].heapPos = kNoSlot;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (last == slot)
        return;
    heapPlace(pos, last);
    heapSiftUp(pos);
    heapSiftDown(slots_[last].heapPos);
}

void
Fabric::armCompletion()
{
    const Time next =
        heap_.empty() ? kTimeNever : slots_[heap_.front()].due;
    if (next == completionDue_)
        return;
    if (completionEvent_ != kInvalidEvent) {
        sim_.cancel(completionEvent_);
        completionEvent_ = kInvalidEvent;
    }
    completionDue_ = next;
    if (next != kTimeNever) {
        completionEvent_ = sim_.scheduleAt(std::max(next, sim_.now()),
                                           [this] { onCompletionEvent(); });
    }
}

// ---------------------------------------------------------------------
// Re-allocation
// ---------------------------------------------------------------------

void
Fabric::markLinkDirty(LinkId id)
{
    auto li = static_cast<std::size_t>(id);
    if (linkDirtyFlag_[li])
        return;
    linkDirtyFlag_[li] = 1;
    dirtyLinks_.push_back(id);
}

void
Fabric::markDirty(Duration delay)
{
    const Time due = sim_.now() + delay;
    if (dirty_) {
        if (due >= recomputeDue_)
            return; // an equal-or-earlier recompute is already pending
        sim_.cancel(recomputeEvent_);
    }
    dirty_ = true;
    recomputeDue_ = due;
    // Defer at least to the end of the current instant so a batch of
    // flow starts (one collective round) costs a single re-allocation.
    recomputeEvent_ = sim_.scheduleAfter(delay, [this] {
        if (dirty_)
            recompute();
    });
}

void
Fabric::flush()
{
    if (dirty_)
        recompute();
}

void
Fabric::recompute()
{
    dirty_ = false;
    if (recomputeEvent_ != kInvalidEvent) {
        sim_.cancel(recomputeEvent_);
        recomputeEvent_ = kInvalidEvent;
    }
    ++reallocations_;

    // --- component discovery -----------------------------------------
    // The refill set is the connected component of flows reachable
    // from dirty links through shared-link membership. Progressive
    // filling couples flows only through shared links, so components
    // fill independently: re-filling the closure reproduces exactly
    // what a global rebuild would assign, while untouched flows keep
    // their fair share, overlay draws and link allocations.
    ++epoch_;
    componentLinks_.clear();
    std::vector<std::uint32_t> &component = scratchComponent_;
    component.clear();
    const std::size_t dirtySeeds = dirtyLinks_.size();
    auto visitLink = [this](LinkId l) {
        auto li = static_cast<std::size_t>(l);
        if (linkEpoch_[li] != epoch_) {
            linkEpoch_[li] = epoch_;
            componentLinks_.push_back(l);
        }
    };
    if (!cfg_.incrementalRecompute) {
        // Shadow mode: every flow is dirty (index order is id order).
        for (const auto &[id, slot] : index_) {
            if (slot == kNoSlot)
                continue;
            slots_[slot].visitEpoch = epoch_;
            component.push_back(slot);
            for (LinkId l : slots_[slot].route.links)
                visitLink(l);
        }
        for (LinkId l : dirtyLinks_)
            visitLink(l);
    } else {
        for (LinkId l : dirtyLinks_)
            visitLink(l);
        // BFS over the bipartite link <-> flow sharing graph;
        // componentLinks_ doubles as the queue.
        for (std::size_t head = 0; head < componentLinks_.size();
             ++head) {
            for (std::int64_t member :
                 membership_.members(componentLinks_[head])) {
                const auto slot = static_cast<std::uint32_t>(member);
                FlowState &flow = slots_[slot];
                if (flow.visitEpoch == epoch_)
                    continue;
                flow.visitEpoch = epoch_;
                component.push_back(slot);
                for (LinkId l : flow.route.links)
                    visitLink(l);
            }
        }
        sortById(component);
    }
    for (LinkId l : dirtyLinks_)
        linkDirtyFlag_[static_cast<std::size_t>(l)] = 0;
    dirtyLinks_.clear();

    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::RecomputeBegin)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::RecomputeBegin;
        tev.a = static_cast<std::int64_t>(live_);
        tev.b = static_cast<std::int64_t>(dirtySeeds);
        tr.record(std::move(tev));
    }
    // Deterministic work counter: every link scanned by the filling
    // loop and every per-flow route update counts one unit.
    std::uint64_t work = 0;

    // Clear only the scratch the previous filling touched.
    for (int l : scratchActiveLinks_) {
        const auto li = static_cast<std::size_t>(l);
        scratchMembers_[li].clear();
        scratchCap_[li] = 0.0;
        scratchUnfixed_[li] = 0;
    }
    scratchActiveLinks_.clear();
    scratchRunnable_.clear();

    // Reset the persistent allocation state of the component's links;
    // links outside it keep alloc/demand/congestion as-is.
    for (LinkId l : componentLinks_) {
        const auto li = static_cast<std::size_t>(l);
        linkAlloc_[li] = 0.0;
        linkDemand_[li] = 0.0;
        linkCongested_[li] = false;
    }

    // The component's runnable flows, in ascending id order: both
    // floating-point accumulation and filling tie-breaks follow it.
    std::vector<FlowState *> &runnable = scratchRunnable_;
    for (std::uint32_t slot : component) {
        FlowState &flow = slots_[slot];
        const bool live = !flow.stalled && flow.route.valid();
        flow.fillRate = live ? -1.0 : 0.0; // -1: not yet fixed
        if (live)
            runnable.push_back(&flow);
    }

    std::vector<std::vector<FlowState *>> &members = scratchMembers_;
    std::vector<double> &cap = scratchCap_;
    std::vector<int> &unfixed = scratchUnfixed_;
    std::vector<int> &activeLinks = scratchActiveLinks_;

    for (FlowState *f : runnable) {
        // Unconstrained demand: what the sender would inject absent
        // congestion control — its NIC port rate (DCQCN senders start
        // at line rate). Downstream links may then be oversubscribed,
        // which is what the CNP model keys off.
        const double desired =
            topo_.link(f->route.links.front()).effectiveCapacity();
        for (LinkId l : f->route.links) {
            auto li = static_cast<std::size_t>(l);
            if (members[li].empty()) {
                activeLinks.push_back(l);
                cap[li] = topo_.link(l).effectiveCapacity();
            }
            members[li].push_back(f);
            ++unfixed[li];
            linkDemand_[li] += desired;
        }
    }
    for (int l : activeLinks) {
        auto li = static_cast<std::size_t>(l);
        const double c = topo_.link(l).effectiveCapacity();
        linkDemand_[li] = c > 0.0 ? linkDemand_[li] / c : 0.0;
    }

    // Progressive filling: repeatedly saturate the most constrained
    // link — but only over the component, never the whole fabric.
    // Ties go to the lowest link id, so the saturation sequence (and
    // with it every rounding step) depends on the flow set alone, not
    // on the order flows were admitted in.
    std::size_t fixed_count = 0;
    while (fixed_count < runnable.size()) {
        double best_fair = std::numeric_limits<double>::infinity();
        int best_link = kInvalidId;
        work += activeLinks.size();
        for (int l : activeLinks) {
            auto li = static_cast<std::size_t>(l);
            if (unfixed[li] <= 0)
                continue;
            const double fair =
                std::max(0.0, cap[li]) / static_cast<double>(unfixed[li]);
            if (fair < best_fair ||
                (fair == best_fair && l < best_link)) {
                best_fair = fair;
                best_link = l;
            }
        }
        if (best_link == kInvalidId) {
            // Remaining flows saw no constraining link; treat as idle.
            for (FlowState *f : runnable) {
                if (f->fillRate < 0.0) {
                    f->fillRate = 0.0;
                    ++fixed_count;
                }
            }
            break;
        }

        for (FlowState *f : members[static_cast<std::size_t>(best_link)]) {
            if (f->fillRate >= 0.0)
                continue; // already fixed
            ++fixed_count;
            f->fillRate = best_fair;
            work += f->route.links.size();
            for (LinkId l : f->route.links) {
                auto li = static_cast<std::size_t>(l);
                cap[li] -= best_fair;
                --unfixed[li];
            }
        }
    }
    lastRecomputeOps_ = work;
    recomputeOps_ += work;

    // Component post-pass: link allocation totals + congestion flags.
    for (FlowState *f : runnable) {
        for (LinkId l : f->route.links)
            linkAlloc_[static_cast<std::size_t>(l)] += f->fillRate;
    }
    for (int l : activeLinks) {
        auto li = static_cast<std::size_t>(l);
        const double c = topo_.link(l).effectiveCapacity();
        linkCongested_[li] =
            c > 0.0 && linkAlloc_[li] >= kCongestedFraction * c;
    }

    for (std::uint32_t slot : component)
        applyOverlay(slots_[slot]);

    // Re-sum the per-(node, nic) CNP aggregate of NICs whose flows
    // changed, in id order, so nicCnpRate() is a lookup and the sum
    // never drifts from what a full rebuild would add up.
    for (int nic : dirtyNics_) {
        const auto ni = static_cast<std::size_t>(nic);
        double sum = 0.0;
        for (std::uint32_t slot : nicFlows_[ni]) {
            if (slots_[slot].cnpRate > 0.0)
                sum += slots_[slot].cnpRate;
        }
        nicCnp_[ni] = sum;
        nicDirtyFlag_[ni] = 0;
    }
    dirtyNics_.clear();

    if (tr.wants(trace::EventKind::RecomputeEnd)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::RecomputeEnd;
        tev.a = static_cast<std::int64_t>(runnable.size());
        tev.b = static_cast<std::int64_t>(activeLinks.size());
        tev.value = static_cast<double>(work);
        tr.record(std::move(tev));
    }

    obs::MetricsScope &mx = sim_.metrics();
    if (mx.attached()) {
        mx.count("fabric.recomputes");
        mx.count("fabric.recompute_ops",
                 static_cast<std::int64_t>(work));
        // Dirty-component size: flows the incremental recompute had
        // to touch this pass.
        mx.observe("fabric.component_flows",
                   static_cast<double>(runnable.size()));
        mx.observe("fabric.component_links",
                   static_cast<double>(activeLinks.size()));
    }

    armCompletion();
}

void
Fabric::applyOverlay(FlowState &flow)
{
    // DCQCN overlay: CNP rates and sender-side jitter over the
    // component's fresh fair shares.
    double overload = 0.0;
    bool congested = false;
    if (!flow.stalled) { // a stalled flow sends nothing to mark
        for (LinkId l : flow.route.links) {
            auto li = static_cast<std::size_t>(l);
            if (linkCongested_[li]) {
                congested = true;
                overload = std::max(overload, linkDemand_[li] - 1.0);
            }
        }
    }
    if (flow.fillRate == flow.baseRate && congested == flow.congested &&
        overload == flow.overload) {
        return; // unchanged inputs keep their draw
    }
    flow.baseRate = flow.fillRate;
    flow.congested = congested;
    flow.overload = overload;
    double rate = flow.baseRate;
    double cnp = 0.0;
    if (congested) {
        // Both uniforms are a pure function of (seed, flow id, draw
        // number): visiting order and component scope cannot shift
        // them.
        const UniformPair u =
            philoxUniforms(seed_, static_cast<std::uint64_t>(flow.id),
                           flow.draws++);
        cnp = cfg_.cnpRatePerOverload * std::max(0.0, overload) *
              (1.0 + cfg_.cnpNoise * (2.0 * u.first - 1.0));
        if (cfg_.congestionJitter) {
            // DCQCN rate reduction has a per-QP persistent bias
            // (each sender's CNP cadence differs) plus temporal
            // noise; the bias is what spreads task averages apart
            // in the paper's Fig. 10b. Explicit-route flows (C4P
            // probers) have no request, so their bias derives
            // from the flow id — a shared flowLabel of 0 would
            // give every prober the identical persistent bias.
            const std::uint32_t ident =
                flow.hasReq ? flow.req.flowLabel
                            : static_cast<std::uint32_t>(
                                  static_cast<std::uint64_t>(flow.id) *
                                      0x9E3779B97F4A7C15ull >>
                                  32);
            std::uint32_t h = ident * 0x9E3779B9u + 0x7F;
            h ^= h >> 15;
            h *= 0x85EBCA6Bu;
            h ^= h >> 13;
            const double stable = static_cast<double>(h % 1024u) / 1023.0;
            rate = flow.baseRate *
                   (1.0 - cfg_.jitterMax * (0.5 * stable + 0.5 * u.second));
        }
    }
    setRate(flow, rate);
    setCnpRate(flow, cnp);
}

void
Fabric::onCompletionEvent()
{
    completionEvent_ = kInvalidEvent;
    completionDue_ = kTimeNever;
    const Time now = sim_.now();
    std::vector<std::uint32_t> &finished = scratchSlots_;
    finished.clear();
    while (!heap_.empty() && slots_[heap_.front()].due <= now) {
        finished.push_back(heap_.front());
        heapErase(heap_.front());
    }
    if (finished.empty()) {
        armCompletion();
        return;
    }
    sortById(finished);
    std::vector<std::pair<FlowEnd, FlowCallback>> &done = scratchDone_;
    for (std::uint32_t slot : finished) {
        FlowState &flow = slots_[slot];
        FlowEnd end;
        end.id = flow.id;
        end.startTime = flow.startTime;
        end.endTime = now;
        end.bytes = flow.total;
        done.emplace_back(end, std::move(flow.done));
        release(slot);
    }
    completed_ += finished.size();

    markDirty();

    // Invoke callbacks last, in id order: they commonly start the
    // next round's flows, which fold into the already-scheduled
    // deferred recompute.
    for (auto &[end, callback] : done) {
        if (callback)
            callback(end);
    }
    done.clear();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

std::size_t
Fabric::activeFlowCount() const
{
    return live_;
}

bool
Fabric::flowActive(FlowId id) const
{
    return slotOf(id) != kNoSlot;
}

Bandwidth
Fabric::flowRate(FlowId id)
{
    flush();
    const FlowState *flow = find(id);
    return flow == nullptr ? 0.0 : flow->rate;
}

const Route *
Fabric::flowRoute(FlowId id) const
{
    const std::uint32_t slot = slotOf(id);
    return slot == kNoSlot ? nullptr : &slots_[slot].route;
}

Bytes
Fabric::flowRemaining(FlowId id)
{
    flush();
    const FlowState *flow = find(id);
    return flow == nullptr
               ? 0
               : static_cast<Bytes>(std::ceil(remainingNow(*flow)));
}

Bandwidth
Fabric::linkThroughput(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return 0.0;
    flush();
    return linkAlloc_[static_cast<std::size_t>(id)];
}

bool
Fabric::linkCongested(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return false;
    flush();
    return linkCongested_[static_cast<std::size_t>(id)];
}

double
Fabric::linkDemandRatio(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return 0.0;
    flush();
    return linkDemand_[static_cast<std::size_t>(id)];
}

double
Fabric::nicCnpRate(NodeId node, NicId nic)
{
    if (node < 0 || node >= topo_.numNodes() || nic < 0 ||
        nic >= topo_.nicsPerNode())
        return 0.0;
    flush();
    return nicCnp_[static_cast<std::size_t>(node) *
                       static_cast<std::size_t>(topo_.nicsPerNode()) +
                   static_cast<std::size_t>(nic)];
}

} // namespace c4::net
