#include "c4p/master.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace c4::c4p {

using accl::ConnContext;
using accl::PathDecision;
using accl::PathFeedback;

namespace {

/** EWMA weight for per-QP achieved-rate tracking. */
constexpr double kRateEwmaAlpha = 0.4;

} // namespace

C4pMaster::C4pMaster(Simulator &sim, const net::Topology &topo,
                     C4pConfig cfg, std::uint64_t seed)
    : sim_(sim), topo_(topo), cfg_(cfg), rng_(seed),
      upLoad_(static_cast<std::size_t>(topo.numLeaves() * topo.numSpines())),
      downLoad_(upLoad_.size())
{
}

std::uint64_t
C4pMaster::qpKey(const ConnContext &ctx)
{
    std::uint64_t h = 1469598103934665603ull;
    auto fold = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    fold(static_cast<std::uint32_t>(ctx.comm));
    fold(static_cast<std::uint32_t>(ctx.channel) + 0x100u);
    fold(static_cast<std::uint32_t>(ctx.qpIndex) + 0x10000u);
    fold(static_cast<std::uint32_t>(ctx.srcNode) + 1u);
    fold(static_cast<std::uint32_t>(ctx.dstNode) + 7u);
    fold(static_cast<std::uint32_t>(ctx.srcNic) + 13u);
    return h;
}

int
C4pMaster::txLeaf(const ConnContext &ctx, net::Plane plane) const
{
    return topo_.leafIndex(topo_.segmentOf(ctx.srcNode), plane);
}

int
C4pMaster::rxLeaf(const ConnContext &ctx, net::Plane plane) const
{
    return topo_.leafIndex(topo_.segmentOf(ctx.dstNode), plane);
}

int
C4pMaster::pickSpine(int tx_leaf, int rx_leaf, int exclude) const
{
    auto healthy = [&](int s) {
        return topo_.link(topo_.trunkUplink(tx_leaf, s)).up &&
               topo_.link(topo_.trunkDownlink(s, rx_leaf)).up;
    };
    int count = 0;
    for (int s = 0; s < topo_.numSpines(); ++s)
        count += healthy(s) ? 1 : 0;
    // The excluded spine is skipped only when another one is healthy.
    const int skip = count > 1 ? exclude : kInvalidId;

    int best = kInvalidId;
    int best_load = std::numeric_limits<int>::max();
    for (int s = 0; s < topo_.numSpines(); ++s) {
        if (s == skip || !healthy(s))
            continue;
        const int load =
            upLoad_[upIndex(tx_leaf, s)] + downLoad_[downIndex(s, rx_leaf)];
        if (best == kInvalidId || load < best_load) {
            best_load = load;
            best = s;
        }
    }
    return best;
}

void
C4pMaster::addLoad(int tx_leaf, int rx_leaf, int spine, int delta)
{
    if (spine == kInvalidId)
        return;
    upLoad_[upIndex(tx_leaf, spine)] += delta;
    downLoad_[downIndex(spine, rx_leaf)] += delta;
}

PathDecision
C4pMaster::decide(const ConnContext &ctx)
{
    PathDecision d;
    d.txPlane = net::planeFromIndex((ctx.channel + ctx.qpIndex) %
                                    net::kNumPlanes);
    d.flowLabel = static_cast<std::uint32_t>(rng_());

    // Rule 2: left->left, right->right keeps the receiver's bonded
    // ports balanced.
    if (cfg_.balanceDualPort)
        d.rxPlane = net::planeIndex(d.txPlane);

    // Rule 3: place the QP on the least-loaded healthy spine.
    if (cfg_.balanceSpines &&
        topo_.segmentOf(ctx.srcNode) != topo_.segmentOf(ctx.dstNode)) {
        const net::Plane rx_plane =
            d.rxPlane != kInvalidId
                ? net::planeFromIndex(static_cast<int>(d.rxPlane))
                : d.txPlane;
        const int tx = txLeaf(ctx, d.txPlane);
        const int rx = rxLeaf(ctx, rx_plane);
        d.spine = pickSpine(tx, rx);
        addLoad(tx, rx, d.spine, +1);
    }

    ++allocations_;
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::PathRealloc)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::PathRealloc;
        tev.job = ctx.job;
        tev.node = ctx.srcNode;
        tev.a = d.spine;
        tev.detail = trace::pathReallocName(trace::PathReallocKind::Alloc);
        tr.record(std::move(tev));
    }
    return d;
}

void
C4pMaster::feedback(const ConnContext &ctx, const PathDecision &decision,
                    const PathFeedback &fb)
{
    (void)decision;
    if (!cfg_.dynamicLoadBalance)
        return;
    auto &st = qpState_[qpKey(ctx)];
    if (st.rate.empty())
        st.rate = Ewma(kRateEwmaAlpha);
    st.rate.add(fb.achievedRate);
}

bool
C4pMaster::rebalance(std::span<const ConnContext> ctxs,
                     std::span<PathDecision> decisions,
                     std::span<double> weights)
{
    if (!cfg_.dynamicLoadBalance || ctxs.empty())
        return false;

    bool changed = false;

    // Current per-QP rates (0 when unobserved), in a reused buffer.
    std::vector<double> &rates = rates_;
    rates.assign(ctxs.size(), 0.0);
    double best_rate = 0.0;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        auto it = qpState_.find(qpKey(ctxs[i]));
        if (it != qpState_.end() && !it->second.rate.empty())
            rates[i] = it->second.rate.value();
        best_rate = std::max(best_rate, rates[i]);
    }
    if (best_rate <= 0.0)
        return false;

    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        const ConnContext &ctx = ctxs[i];
        PathDecision &d = decisions[i];
        auto &st = qpState_[qpKey(ctx)];

        const bool cross_segment =
            topo_.segmentOf(ctx.srcNode) != topo_.segmentOf(ctx.dstNode);
        if (!cross_segment)
            continue;

        const net::Plane rx_plane =
            d.rxPlane != kInvalidId
                ? net::planeFromIndex(static_cast<int>(d.rxPlane))
                : d.txPlane;
        const int tx = txLeaf(ctx, d.txPlane);
        const int rx = rxLeaf(ctx, rx_plane);

        // Re-pin if the pinned trunk died, or the QP is notably slower
        // than its siblings (congestion / reroute pile-up).
        const bool pin_dead =
            d.spine != kInvalidId &&
            (!topo_.link(topo_.trunkUplink(tx, d.spine)).up ||
             !topo_.link(topo_.trunkDownlink(d.spine, rx)).up);
        const bool slow =
            rates[i] > 0.0 && rates[i] * cfg_.rebalanceRatio < best_rate;

        if ((pin_dead || slow) &&
            (st.lastRepin < 0 ||
             sim_.now() - st.lastRepin >= cfg_.rebalanceCooldown)) {
            addLoad(tx, rx, d.spine, -1);
            const int spine =
                pickSpine(tx, rx, /*exclude=*/slow ? d.spine
                                                   : kInvalidId);
            d.spine = spine;
            addLoad(tx, rx, spine, +1);
            st.lastRepin = sim_.now();
            st.rate.reset();
            ++repins_;
            changed = true;
            trace::TraceScope &tr = sim_.tracer();
            if (tr.wants(trace::EventKind::PathRealloc)) {
                trace::Event tev;
                tev.when = sim_.now();
                tev.kind = trace::EventKind::PathRealloc;
                tev.job = ctx.job;
                tev.node = ctx.srcNode;
                tev.a = spine;
                tev.b = 1; // re-pin, not an initial allocation
                tev.detail =
                    trace::pathReallocName(trace::PathReallocKind::Repin);
                tr.record(std::move(tev));
            }
        }
    }

    // Re-weight chunk splits toward the faster QPs ("ACCL constantly
    // evaluates message completion times and prioritizes the fastest").
    if (weights.size() == rates.size() && weights.size() > 1) {
        for (std::size_t i = 0; i < weights.size(); ++i) {
            const double r = rates[i] > 0.0 ? rates[i] : best_rate;
            const double w = r / best_rate;
            if (std::abs(weights[i] - w) > 1e-9) {
                weights[i] = w;
                changed = true;
            }
        }
    }
    return changed;
}

void
C4pMaster::release(const ConnContext &ctx, const PathDecision &decision)
{
    ++releases_;
    qpState_.erase(qpKey(ctx));
    if (decision.spine == kInvalidId)
        return;
    const net::Plane rx_plane =
        decision.rxPlane != kInvalidId
            ? net::planeFromIndex(static_cast<int>(decision.rxPlane))
            : decision.txPlane;
    addLoad(txLeaf(ctx, decision.txPlane), rxLeaf(ctx, rx_plane),
            decision.spine, -1);
}

int
C4pMaster::uplinkLoad(int leaf, int spine) const
{
    return upLoad_[upIndex(leaf, spine)];
}

int
C4pMaster::downlinkLoad(int spine, int leaf) const
{
    return downLoad_[downIndex(spine, leaf)];
}

} // namespace c4::c4p
