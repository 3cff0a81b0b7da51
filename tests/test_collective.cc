/**
 * @file
 * Unit tests for collective math and communicator group structure.
 */

#include <gtest/gtest.h>

#include "accl/collective.h"
#include "accl/communicator.h"

namespace c4::accl {
namespace {

TEST(Collective, BusFactorAllReduce)
{
    EXPECT_DOUBLE_EQ(busFactor(CollOp::AllReduce, 2), 1.0);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::AllReduce, 4), 1.5);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::AllReduce, 16), 2.0 * 15 / 16);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::AllReduce, 1), 0.0);
}

TEST(Collective, BusFactorOthers)
{
    EXPECT_DOUBLE_EQ(busFactor(CollOp::AllGather, 8), 7.0 / 8);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::ReduceScatter, 8), 7.0 / 8);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::Broadcast, 8), 1.0);
    EXPECT_DOUBLE_EQ(busFactor(CollOp::SendRecv, 2), 1.0);
}

TEST(Collective, RingRounds)
{
    EXPECT_EQ(ringRounds(CollOp::AllReduce, 16), 30);
    EXPECT_EQ(ringRounds(CollOp::AllGather, 16), 15);
    EXPECT_EQ(ringRounds(CollOp::ReduceScatter, 8), 7);
    EXPECT_EQ(ringRounds(CollOp::Broadcast, 8), 7);
    EXPECT_EQ(ringRounds(CollOp::SendRecv, 2), 1);
    EXPECT_EQ(ringRounds(CollOp::AllReduce, 1), 0);
}

TEST(Collective, Bandwidths)
{
    // 1 GiB allreduce over 16 ranks in 50 ms.
    const Bytes bytes = gib(1);
    const Duration t = milliseconds(50);
    const Bandwidth alg = algBandwidth(bytes, t);
    EXPECT_NEAR(toGbps(alg), 171.8, 0.1);
    const Bandwidth bus = busBandwidth(CollOp::AllReduce, 16, bytes, t);
    EXPECT_NEAR(toGbps(bus), 171.8 * 2 * 15 / 16, 0.2);
    EXPECT_DOUBLE_EQ(algBandwidth(bytes, 0), 0.0);
}

TEST(Collective, Names)
{
    EXPECT_STREQ(collOpName(CollOp::AllReduce), "allreduce");
    EXPECT_STREQ(collOpName(CollOp::SendRecv), "sendrecv");
}

std::vector<DeviceInfo>
twoNodeDevices()
{
    std::vector<DeviceInfo> devices;
    for (NodeId n = 0; n < 2; ++n) {
        for (int g = 0; g < 8; ++g)
            devices.push_back(
                {n, static_cast<GpuId>(g), static_cast<NicId>(g)});
    }
    return devices;
}

TEST(Communicator, BasicProperties)
{
    Communicator comm(1, 5, twoNodeDevices(), 2);
    EXPECT_EQ(comm.id(), 1);
    EXPECT_EQ(comm.job(), 5);
    EXPECT_EQ(comm.size(), 16);
    EXPECT_EQ(comm.channels(), 2);
    EXPECT_FALSE(comm.singleNode());
    EXPECT_EQ(comm.nodes().size(), 2u);
    EXPECT_EQ(comm.maxRanksPerNode(), 8);
}

TEST(Communicator, RingNeighbors)
{
    Communicator comm(1, 1, twoNodeDevices(), 2);
    EXPECT_EQ(comm.nextRank(0), 1);
    EXPECT_EQ(comm.nextRank(15), 0);
    EXPECT_EQ(comm.prevRank(0), 15);
    EXPECT_EQ(comm.prevRank(8), 7);
}

TEST(Communicator, BoundariesAtNodeCrossings)
{
    Communicator comm(1, 1, twoNodeDevices(), 2);
    const auto &b = comm.boundaries();
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0].src, 7);
    EXPECT_EQ(b[0].dst, 8);
    EXPECT_EQ(b[1].src, 15);
    EXPECT_EQ(b[1].dst, 0);
}

TEST(Communicator, SingleNodeHasNoBoundaries)
{
    std::vector<DeviceInfo> devices;
    for (int g = 0; g < 8; ++g)
        devices.push_back(
            {0, static_cast<GpuId>(g), static_cast<NicId>(g)});
    Communicator comm(2, 1, devices, 2);
    EXPECT_TRUE(comm.singleNode());
    EXPECT_TRUE(comm.boundaries().empty());
}

TEST(Communicator, OneRankPerNodeIsAllBoundaries)
{
    std::vector<DeviceInfo> devices;
    for (NodeId n = 0; n < 4; ++n)
        devices.push_back({n, 0, 0});
    Communicator comm(3, 1, devices, 2);
    EXPECT_EQ(comm.boundaries().size(), 4u);
    EXPECT_EQ(comm.maxRanksPerNode(), 1);
}

TEST(Communicator, RanksOnNode)
{
    Communicator comm(1, 1, twoNodeDevices(), 2);
    const auto on0 = comm.ranksOnNode(0);
    ASSERT_EQ(on0.size(), 8u);
    EXPECT_EQ(on0.front(), 0);
    EXPECT_EQ(on0.back(), 7);
    EXPECT_TRUE(comm.ranksOnNode(99).empty());
}

TEST(Communicator, RejectsBadArguments)
{
    EXPECT_THROW(Communicator(1, 1, {}, 2), std::invalid_argument);
    EXPECT_THROW(Communicator(1, 1, twoNodeDevices(), 0),
                 std::invalid_argument);
}

class BusFactorScaling : public ::testing::TestWithParam<int>
{
};

TEST_P(BusFactorScaling, AllReduceFactorApproachesTwo)
{
    const int n = GetParam();
    const double f = busFactor(CollOp::AllReduce, n);
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 2.0);
    if (n >= 64) {
        EXPECT_GT(f, 1.9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BusFactorScaling,
                         ::testing::Values(2, 4, 8, 16, 64, 512));

} // namespace
} // namespace c4::accl
