/**
 * @file
 * Property-based suites: invariants that must hold across randomized
 * workloads and parameter sweeps.
 *
 * - Fabric: capacity feasibility (no link over-allocated), work
 *   conservation (every flow is bottlenecked at some saturated link),
 *   and conservation of bytes (completion time x rate accounts for the
 *   payload).
 * - ACCL: collective traffic accounting (transport bytes match the
 *   algorithm's expected inter-node volume) and busbw bounds.
 * - Downtime model: monotonicity in fault rate.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "accl/accl.h"
#include "c4d/downtime.h"
#include "common/random.h"
#include "net/fabric.h"
#include "testutil/testutil.h"

namespace c4 {
namespace {

using net::PathRequest;
using net::Plane;

/** Sweep over seeds: each instantiation runs a random flow pattern. */
class FabricInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(FabricInvariants, FeasibilityAndWorkConservation)
{
    // Jitter-free fabric: exact fair share for the invariants.
    testutil::FabricHarness h;
    net::Fabric &fabric = h.fabric;
    const net::Topology &topo = h.topo;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);

    // Random flow soup: 40 flows between random cross-node endpoints,
    // some pinned, some hashed.
    std::vector<FlowId> flows;
    for (int i = 0; i < 40; ++i) {
        PathRequest req;
        req.srcNode = static_cast<NodeId>(rng.uniformInt(0, 15));
        do {
            req.dstNode = static_cast<NodeId>(rng.uniformInt(0, 15));
        } while (req.dstNode == req.srcNode);
        req.srcNic = static_cast<NicId>(rng.uniformInt(0, 7));
        req.dstNic = static_cast<NicId>(rng.uniformInt(0, 7));
        req.txPlane = rng.chance(0.5) ? Plane::Left : Plane::Right;
        if (rng.chance(0.3))
            req.spine = static_cast<std::int32_t>(rng.uniformInt(0, 7));
        req.flowLabel = static_cast<std::uint32_t>(rng());
        flows.push_back(fabric.startFlow(req, gib(64), nullptr));
    }

    // Invariant 1: no link carries more than its capacity.
    for (const auto &link : topo.links()) {
        EXPECT_LE(fabric.linkThroughput(link.id),
                  link.effectiveCapacity() * (1.0 + 1e-9))
            << "link " << link.id << " (" << net::linkKindName(link.kind)
            << ")";
    }

    // Invariant 2 (work conservation / max-min): every flow crosses at
    // least one (nearly) saturated link — otherwise it could go faster.
    for (FlowId f : flows) {
        const net::Route *route = fabric.flowRoute(f);
        ASSERT_NE(route, nullptr);
        if (!route->valid())
            continue; // routeless flows are exempt
        bool bottlenecked = false;
        for (LinkId l : route->links) {
            if (fabric.linkThroughput(l) >=
                topo.link(l).effectiveCapacity() * 0.999) {
                bottlenecked = true;
            }
        }
        EXPECT_TRUE(bottlenecked) << "flow " << f << " is not "
                                  << "bottlenecked anywhere";
        EXPECT_GT(fabric.flowRate(f), 0.0);
    }
}

TEST_P(FabricInvariants, ByteConservationAtCompletion)
{
    testutil::FabricHarness h;
    net::Fabric &fabric = h.fabric;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);

    int done = 0;
    for (int i = 0; i < 12; ++i) {
        PathRequest req;
        req.srcNode = static_cast<NodeId>(rng.uniformInt(0, 7));
        req.dstNode = static_cast<NodeId>(rng.uniformInt(8, 15));
        req.srcNic = static_cast<NicId>(i % 8);
        req.dstNic = req.srcNic;
        req.flowLabel = static_cast<std::uint32_t>(rng());
        const Bytes bytes = mib(rng.uniformInt(16, 128));
        fabric.startFlow(req, bytes,
                         [&done, bytes](const net::FlowEnd &end) {
                             ++done;
                             EXPECT_EQ(end.bytes, bytes);
                             // No flow can beat its 200 Gbps port.
                             EXPECT_GE(end.duration() + microseconds(1),
                                       transferTime(bytes, gbps(200)));
                             // And none should be infinitely slow
                             // here (12 flows, ample capacity).
                             EXPECT_LE(end.duration(),
                                       transferTime(bytes, gbps(10)));
                         });
    }
    h.sim.run();
    EXPECT_EQ(done, 12);
    EXPECT_EQ(fabric.activeFlowCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricInvariants,
                         ::testing::Range(0, 8));

/** Collective traffic accounting across ops and sizes. */
struct CollCase
{
    accl::CollOp op;
    int nodes;
};

class CollectiveAccounting
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CollectiveAccounting, TransportBytesMatchAlgorithm)
{
    const auto [op_idx, nodes] = GetParam();
    const auto op = static_cast<accl::CollOp>(op_idx);

    testutil::AcclHarness h(nodes);
    accl::Accl &lib = h.lib;
    const CommId comm = h.fullComm(nodes);

    const Bytes payload = mib(96);
    bool done = false;
    accl::CollectiveResult res;
    lib.postCollective(comm, op, payload,
                       [&](const accl::CollectiveResult &r) {
                           done = true;
                           res = r;
                       });
    h.sim.run();
    ASSERT_TRUE(done);

    // busbw can never exceed the NVLink ceiling.
    EXPECT_LE(toGbps(res.busBw()), 362.0 + 1.0);

    // Inter-node transport volume: the ring moves busFactor * payload
    // per boundary-crossing rank; with our node-level rings, expect
    // per-boundary bytes ~= busFactor * payload (ring ops). AllToAll
    // moves payload*(n-1)/n total per rank pair group.
    Bytes transport = 0;
    std::vector<accl::ConnRecord> conns;
    lib.monitor().drainConn(conns);
    for (const auto &rec : conns)
        transport += rec.bytes;

    const int n = nodes * 8;
    const double factor = accl::busFactor(op, n);
    double expected = 0.0;
    if (op == accl::CollOp::AllToAll) {
        // Sum over cross-node ordered pairs of per-pair volume.
        const double per_pair =
            static_cast<double>(payload) / n * 8; // 8 ranks per node
        expected = per_pair * nodes * (nodes - 1) * 8;
    } else {
        // Ring: `nodes` boundaries each moving factor * payload.
        expected = factor * static_cast<double>(payload) * nodes;
    }
    EXPECT_NEAR(static_cast<double>(transport), expected,
                expected * 0.05 + 1024.0);
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndSizes, CollectiveAccounting,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(accl::CollOp::AllReduce),
                          static_cast<int>(accl::CollOp::AllGather),
                          static_cast<int>(accl::CollOp::ReduceScatter),
                          static_cast<int>(accl::CollOp::AllToAll)),
        ::testing::Values(2, 4)));

/** Downtime monotonicity: more faults, more downtime. */
class DowntimeMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(DowntimeMonotonicity, ScalesWithFaultRate)
{
    const double scale = GetParam();
    const auto base_rates = fault::FaultRates::paperJune2023();
    c4d::DowntimeModel base(c4d::RecoveryPolicy::june2023(), base_rates,
                            2400, days(30), 11);
    c4d::DowntimeModel scaled(c4d::RecoveryPolicy::june2023(),
                              base_rates.scaled(scale), 2400, days(30),
                              11);
    const double b = base.run(48).total();
    const double s = scaled.run(48).total();
    if (scale > 1.0)
        EXPECT_GT(s, b);
    else
        EXPECT_LT(s, b);
}

INSTANTIATE_TEST_SUITE_P(Scales, DowntimeMonotonicity,
                         ::testing::Values(0.25, 0.5, 2.0, 4.0));

} // namespace
} // namespace c4
