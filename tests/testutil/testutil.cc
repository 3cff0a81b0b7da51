#include "testutil/testutil.h"

namespace c4::testutil {

net::TopologyConfig
podConfig(int numNodes, int nodesPerSegment, int numSpines)
{
    net::TopologyConfig tc;
    tc.numNodes = numNodes;
    tc.nodesPerSegment = nodesPerSegment;
    tc.numSpines = numSpines;
    return tc;
}

net::TopologyConfig
flatConfig(int numNodes, int numSpines)
{
    return podConfig(numNodes, /*nodesPerSegment=*/1, numSpines);
}

net::FabricConfig
quietFabricConfig()
{
    net::FabricConfig fc;
    fc.congestionJitter = false;
    return fc;
}

c4d::C4dConfig
fastC4dConfig()
{
    c4d::C4dConfig cfg;
    cfg.evaluatePeriod = seconds(2);
    cfg.hangThreshold = seconds(20);
    return cfg;
}

train::JobConfig
smallJobConfig(JobId id, std::vector<NodeId> nodes)
{
    train::JobConfig jc;
    jc.id = id;
    jc.model = train::llama7b();
    jc.model.microbatchCompute = milliseconds(300);
    jc.parallel = {.tp = 8, .pp = 1, .dp = 2};
    jc.nodes = std::move(nodes);
    jc.initTime = seconds(5);
    jc.dpGroupsSimulated = 1;
    return jc;
}

net::PathRequest
makePathRequest(NodeId src, NodeId dst, std::uint32_t label, int spine,
                int rxPlane)
{
    net::PathRequest req;
    req.srcNode = src;
    req.srcNic = 0;
    req.dstNode = dst;
    req.dstNic = 0;
    req.txPlane = net::Plane::Left;
    req.spine = spine;
    req.rxPlane = rxPlane;
    req.flowLabel = label;
    return req;
}

accl::ConnContext
makeConnContext(int channel, int qp, NodeId src, NodeId dst)
{
    accl::ConnContext ctx;
    ctx.job = 1;
    ctx.comm = 1;
    ctx.channel = channel;
    ctx.qpIndex = qp;
    ctx.srcNode = src;
    ctx.srcNic = 0;
    ctx.dstNode = dst;
    ctx.dstNic = 0;
    return ctx;
}

std::vector<accl::DeviceInfo>
fullNodeDevices(const net::Topology &topo,
                const std::vector<NodeId> &nodes)
{
    std::vector<accl::DeviceInfo> devices;
    for (NodeId n : nodes) {
        for (int g = 0; g < topo.gpusPerNode(); ++g)
            devices.push_back(
                {n, static_cast<GpuId>(g), static_cast<NicId>(g)});
    }
    return devices;
}

FabricHarness::FabricHarness(net::TopologyConfig tc, net::FabricConfig fc)
    : topo(tc), fabric(sim, topo, fc)
{
}

net::PathRequest
FabricHarness::request(NodeId src, NodeId dst, std::uint32_t label,
                       int spine, int rxPlane) const
{
    return makePathRequest(src, dst, label, spine, rxPlane);
}

AcclHarness::AcclHarness(int nodes, std::uint64_t seed,
                         accl::AcclConfig cfg)
    : AcclHarness(flatConfig(nodes), quietFabricConfig(),
                  std::move(cfg), seed)
{
}

AcclHarness::AcclHarness(net::TopologyConfig tc, net::FabricConfig fc,
                         accl::AcclConfig cfg, std::uint64_t seed)
    : FabricHarness(tc, fc), lib(sim, fabric, std::move(cfg), seed)
{
}

std::vector<accl::DeviceInfo>
AcclHarness::fullNodes(std::vector<NodeId> nodes) const
{
    return fullNodeDevices(topo, nodes);
}

CommId
AcclHarness::fullComm(const std::vector<NodeId> &nodes, JobId job)
{
    return lib.createCommunicator(job, fullNodeDevices(topo, nodes));
}

CommId
AcclHarness::fullComm(int nodes, JobId job)
{
    std::vector<NodeId> ids;
    for (NodeId n = 0; n < nodes; ++n)
        ids.push_back(n);
    return fullComm(ids, job);
}

C4dHarness::C4dHarness(c4d::C4dConfig cfg, int nodes,
                       Duration collectPeriod)
    : AcclHarness(nodes), master(sim, cfg),
      agent(sim, lib, master, collectPeriod)
{
    master.start();
    agent.start();
}

void
C4dHarness::pump(CommId comm, Bytes bytes, int remaining,
                 std::vector<Duration> delays)
{
    if (remaining <= 0)
        return;
    lib.postCollective(
        comm, accl::CollOp::AllReduce, bytes,
        [this, comm, bytes, remaining,
         delays](const accl::CollectiveResult &) {
            pump(comm, bytes, remaining - 1, delays);
        },
        delays);
}

} // namespace c4::testutil
