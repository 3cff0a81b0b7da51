/**
 * @file
 * Scenario `fabric_recompute_ops` — deterministic cost accounting of
 * the fabric's incremental fair-share allocator.
 *
 * Every metric is a seed-stable filling-ops counter (never wall
 * clock), so the CSV is golden-checked: the full-rebuild vs
 * incremental delta — the allocator's asymptotic win — is locked in
 * byte-for-byte. Variants:
 *
 *  - full_64n / incr_64n: the same 64-node / 256-flow link-toggle
 *    loop with the incremental component search disabled/enabled.
 *    incr re-fills only the toggled trunk's component.
 *  - storm_64n / storm_coalesce_64n: a FaultInjector-driven burst of
 *    trunk failures (then staggered recoveries) without and with a
 *    re-allocation coalesce window; the window folds each burst into
 *    a single component re-fill.
 *  - incr_pod512: the link-toggle loop on a 512-node pod, where the
 *    full rebuild would scan ~10k flows per event.
 */

#include <cstdio>
#include <vector>

#include "fault/injector.h"
#include "net/fabric.h"
#include "scenario/registry.h"

namespace {

using namespace c4;
using namespace c4::scenario;

struct OpsParams
{
    int numNodes = 64;
    int flows = 256;
    bool incremental = true;
    Duration coalesceWindow = 0;
    bool storm = false;
};

net::TopologyConfig
podTopology(int numNodes)
{
    net::TopologyConfig tc;
    tc.numNodes = numNodes;
    tc.nodesPerSegment = 4;
    return tc;
}

/** Cross-segment flow population: node i -> its pair in the far half. */
void
startFlows(net::Fabric &fabric, const OpsParams &p)
{
    const int half = p.numNodes / 2;
    std::uint32_t label = 0;
    for (int i = 0; i < p.flows; ++i) {
        net::PathRequest req;
        req.srcNode = i % half;
        req.srcNic = i % 8;
        req.dstNode = half + (i % half);
        req.dstNic = i % 8;
        req.flowLabel = ++label;
        fabric.startFlow(req, gib(100), nullptr);
    }
}

void
emitOps(TrialContext &ctx, net::Fabric &fabric)
{
    const double reallocs =
        static_cast<double>(fabric.reallocationCount());
    const double ops = static_cast<double>(fabric.recomputeOpsTotal());
    ctx.metric("reallocs", reallocs);
    ctx.metric("filling_ops_total", ops);
    ctx.metric("filling_ops_per_realloc",
               reallocs > 0.0 ? ops / reallocs : 0.0);
    ctx.metric("filling_ops_last",
               static_cast<double>(fabric.recomputeOpsLast()));
}

/** The link-toggle loop: down/query/up/query per rep. */
void
runToggleLoop(TrialContext &ctx, const OpsParams &p)
{
    net::Topology topo(podTopology(p.numNodes));
    Simulator sim;
    sim.setTracer(trace::TraceScope(ctx.tracer));
    net::FabricConfig fc;
    fc.congestionJitter = false;
    fc.incrementalRecompute = p.incremental;
    net::Fabric fabric(sim, topo, fc);

    startFlows(fabric, p);
    (void)fabric.flowRate(1); // force one consistent allocation

    const int reps = ctx.pick(50, 10);
    for (int r = 0; r < reps; ++r) {
        fabric.setLinkUp(topo.trunkUplink(0, 0), false);
        (void)fabric.linkThroughput(0);
        fabric.setLinkUp(topo.trunkUplink(0, 0), true);
        (void)fabric.linkThroughput(0);
    }
    emitOps(ctx, fabric);
}

/**
 * A fault storm: the injector fires a burst of trunk LinkDown events
 * microseconds apart (a leaf switch rebooting takes out all its
 * uplinks nearly at once), then the links heal staggered. With a
 * coalesce window >= the burst spacing, each burst costs one re-fill.
 */
void
runStorm(TrialContext &ctx, const OpsParams &p)
{
    net::Topology topo(podTopology(p.numNodes));
    Simulator sim;
    sim.setTracer(trace::TraceScope(ctx.tracer));
    net::FabricConfig fc;
    fc.congestionJitter = false;
    fc.incrementalRecompute = p.incremental;
    fc.coalesceWindow = p.coalesceWindow;
    net::Fabric fabric(sim, topo, fc);

    startFlows(fabric, p);

    fault::FaultInjector injector(sim, ctx.seed);
    injector.setApplier([&](const fault::FaultEvent &ev) {
        if (ev.type == fault::FaultType::LinkDown)
            fabric.setLinkUp(ev.link, false);
    });

    // 8 bursts; each takes down one leaf's 8 spine uplinks 10 us
    // apart, healed one second later with the same stagger.
    const int bursts = ctx.pick(8, 4);
    const int numSpines = topo.numSpines();
    for (int b = 0; b < bursts; ++b) {
        const int leaf = (b * 2) % topo.numLeaves();
        const Time t0 = seconds(1) + b * seconds(2);
        for (int s = 0; s < numSpines; ++s) {
            const LinkId id = topo.trunkUplink(leaf, s);
            fault::FaultEvent ev;
            ev.type = fault::FaultType::LinkDown;
            ev.link = id;
            injector.injectAt(t0 + s * microseconds(10), ev);
            sim.scheduleAt(t0 + seconds(1) + s * microseconds(10),
                           [&fabric, id] {
                               fabric.setLinkUp(id, true);
                           });
        }
    }
    sim.run(seconds(1) + bursts * seconds(2));
    fabric.flowRate(1); // settle the final coalesced recompute
    emitOps(ctx, fabric);
}

const Register reg{{
    .name = "fabric_recompute_ops",
    .title = "Fabric allocator cost: full rebuild vs incremental "
             "component re-fill",
    .description =
        "Deterministic filling-ops counters for Fabric::recompute "
        "under link toggles and injector-driven fault storms, with "
        "the incremental component search on/off and with a link-"
        "event coalesce window.",
    .notes = "Seed-stable by construction (no wall clock); the golden "
             "CSV locks the incremental-vs-full ops ratio. Compare "
             "filling_ops_per_realloc across full_64n/incr_64n, and "
             "reallocs across storm_64n/storm_coalesce_64n.",
    .fullTrials = 1,
    .smokeTrials = 1,
    .seed = 0xC40B5,
    .variants =
        [](const RunOptions &opt) {
            auto toggle = [](const char *label, int nodes, int flows,
                             bool incremental) {
                ScenarioSpec spec;
                spec.variant = label;
                OpsParams p;
                p.numNodes = nodes;
                p.flows = flows;
                p.incremental = incremental;
                spec.custom = [p](TrialContext &ctx) {
                    runToggleLoop(ctx, p);
                };
                return spec;
            };
            auto storm = [](const char *label, Duration window) {
                ScenarioSpec spec;
                spec.variant = label;
                OpsParams p;
                p.storm = true;
                p.coalesceWindow = window;
                spec.custom = [p](TrialContext &ctx) {
                    runStorm(ctx, p);
                };
                return spec;
            };
            (void)opt;
            return std::vector<ScenarioSpec>{
                toggle("full_64n", 64, 256, false),
                toggle("incr_64n", 64, 256, true),
                storm("storm_64n", 0),
                storm("storm_coalesce_64n", milliseconds(1)),
                toggle("incr_pod512", 512, 4096, true),
            };
        },
    .summarize =
        [](const std::vector<TrialResult> &results) {
            const auto perRealloc = variantMetricMeans(
                results, "filling_ops_per_realloc");
            const auto reallocs =
                variantMetricMeans(results, "reallocs");
            std::string out;
            const auto full = perRealloc.find("full_64n");
            const auto incr = perRealloc.find("incr_64n");
            if (full != perRealloc.end() &&
                incr != perRealloc.end() && incr->second > 0.0) {
                char buf[128];
                std::snprintf(
                    buf, sizeof(buf),
                    "incremental re-fill: %.1fx fewer filling ops "
                    "per re-allocation than a full rebuild\n",
                    full->second / incr->second);
                out += buf;
            }
            const auto imm = reallocs.find("storm_64n");
            const auto coal = reallocs.find("storm_coalesce_64n");
            if (imm != reallocs.end() && coal != reallocs.end() &&
                coal->second > 0.0) {
                char buf[128];
                std::snprintf(
                    buf, sizeof(buf),
                    "1 ms coalesce window: %.0f -> %.0f "
                    "re-allocations across the fault storms\n",
                    imm->second, coal->second);
                out += buf;
            }
            return out;
        },
}};

} // namespace
