/**
 * @file
 * Seed-determinism regression tests: the whole Simulator/Accl stack is
 * seeded, so two runs of the same scenario with the same seed must
 * produce byte-identical stats, and different seeds must diverge. This
 * is what makes every figure in the paper reproduction — and every
 * failing test — replayable.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "accl/accl.h"
#include "common/csv.h"
#include "fault/injector.h"
#include "testutil/testutil.h"

namespace c4 {
namespace {

using accl::CollOp;
using accl::CollectiveResult;

/**
 * Run a congested multi-collective scenario and serialize every piece
 * of telemetry it produced (connection records and collective results)
 * into one exact, integer-typed CSV string.
 */
std::string
runScenario(std::uint64_t seed)
{
    // Default fabric config: congestion jitter on, so the run exercises
    // the fabric's own (fixed-seed) RNG alongside ACCL's.
    testutil::AcclHarness h(testutil::flatConfig(4),
                            net::FabricConfig{}, accl::AcclConfig{},
                            seed);

    const CommId comm = h.fullComm(4);
    std::vector<CollectiveResult> results;
    for (CollOp op : {CollOp::AllReduce, CollOp::AllGather,
                      CollOp::ReduceScatter, CollOp::AllToAll}) {
        h.lib.postCollective(comm, op, mib(64),
                             [&results](const CollectiveResult &r) {
                                 results.push_back(r);
                             });
    }
    h.sim.run();

    std::ostringstream os;
    CsvWriter csv(os);
    for (const CollectiveResult &r : results) {
        csv.cell(static_cast<std::int64_t>(r.comm))
            .cell(static_cast<std::int64_t>(r.seq))
            .cell(static_cast<std::int32_t>(r.op))
            .cell(r.bytes)
            .cell(static_cast<std::int64_t>(r.nranks))
            .cell(r.postTime)
            .cell(r.startTime)
            .cell(r.endTime);
        csv.endRow();
    }
    std::vector<accl::ConnRecord> conns;
    h.lib.monitor().drainConn(conns);
    for (const accl::ConnRecord &rec : conns) {
        csv.cell(static_cast<std::int64_t>(rec.comm))
            .cell(static_cast<std::int64_t>(rec.seq))
            .cell(static_cast<std::int64_t>(rec.channel))
            .cell(static_cast<std::int64_t>(rec.qpIndex))
            .cell(static_cast<std::int64_t>(rec.srcRank))
            .cell(static_cast<std::int64_t>(rec.dstRank))
            .cell(static_cast<std::int64_t>(rec.srcNode))
            .cell(static_cast<std::int64_t>(rec.dstNode))
            .cell(static_cast<std::int64_t>(net::planeIndex(rec.txPlane)))
            .cell(static_cast<std::int64_t>(rec.spine))
            .cell(static_cast<std::int64_t>(rec.rxPlane))
            .cell(rec.bytes)
            .cell(rec.startTime)
            .cell(rec.endTime);
        csv.endRow();
    }
    return os.str();
}

TEST(Determinism, SameSeedIsByteIdentical)
{
    const std::string a = runScenario(0xD5EEDull);
    const std::string b = runScenario(0xD5EEDull);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    const std::string a = runScenario(1);
    const std::string b = runScenario(2);
    EXPECT_NE(a, b);
}

/** The fault campaign's Poisson draws are a separate seeded stream. */
std::string
runFaultCampaign(std::uint64_t seed)
{
    Simulator sim;
    fault::FaultInjector injector(sim, seed);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < 64; ++n)
        nodes.push_back(n);
    injector.startCampaign(fault::FaultRates::paperJune2023(), nodes,
                           /*nicsPerNode=*/8, /*gpusPerNode=*/8,
                           /*numTrunks=*/0, days(30));
    sim.run();

    std::ostringstream os;
    CsvWriter csv(os);
    for (const fault::FaultEvent &ev : injector.history()) {
        csv.cell(static_cast<std::int32_t>(ev.type))
            .cell(static_cast<std::int64_t>(ev.node))
            .cell(ev.when);
        csv.endRow();
    }
    return os.str();
}

TEST(Determinism, FaultCampaignReplaysExactly)
{
    const std::string a = runFaultCampaign(42);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, runFaultCampaign(42));
    EXPECT_NE(a, runFaultCampaign(43));
}

} // namespace
} // namespace c4
