#include "core/experiment.h"

#include <cassert>
#include <stdexcept>

namespace c4::core {

AllreduceTask::AllreduceTask(Cluster &cluster, AllreduceTaskConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg))
{
    assert(!cfg_.nodes.empty());
    assert(cfg_.iterations > 0);

    std::vector<accl::DeviceInfo> devices;
    for (NodeId n : cfg_.nodes) {
        for (int g = 0; g < cluster_.topology().gpusPerNode(); ++g) {
            devices.push_back({n, static_cast<GpuId>(g),
                               static_cast<NicId>(g)});
        }
    }
    comm_ = cluster_.accl().createCommunicator(cfg_.job,
                                               std::move(devices));
}

AllreduceTask::~AllreduceTask()
{
    if (comm_ != kInvalidId && cluster_.accl().hasCommunicator(comm_))
        cluster_.accl().destroyCommunicator(comm_);
}

void
AllreduceTask::start()
{
    postNext();
}

void
AllreduceTask::postNext()
{
    cluster_.accl().postCollective(
        comm_, accl::CollOp::AllReduce, cfg_.bytes,
        [this](const accl::CollectiveResult &res) {
            const double bw = toGbps(res.busBw());
            busBw_.add(bw);
            series_.push_back(bw);
            ++iter_;
            if (cb_)
                cb_(iter_, bw);
            if (iter_ >= cfg_.iterations) {
                done_ = true;
                return;
            }
            postNext();
        });
}

std::vector<std::vector<NodeId>>
crossSegmentPairs(const net::Topology &topo, int numTasks)
{
    const int segments = topo.numSegments();
    if (segments < 2)
        throw std::invalid_argument(
            "crossSegmentPairs needs >= 2 segments");
    const int per_segment = topo.config().nodesPerSegment;

    std::vector<std::vector<NodeId>> tasks;
    std::vector<int> used(static_cast<std::size_t>(segments), 0);
    for (int t = 0; t < numTasks; ++t) {
        const int seg_a = t % segments;
        // Offset in [1, segments-1] keeps the pair cross-segment for
        // any segment count.
        const int offset = 1 + (t / segments) % (segments - 1);
        const int seg_b = (seg_a + offset) % segments;
        const int slot_a = used[static_cast<std::size_t>(seg_a)]++;
        const int slot_b = used[static_cast<std::size_t>(seg_b)]++;
        const NodeId a =
            static_cast<NodeId>(seg_a * per_segment + slot_a);
        const NodeId b =
            static_cast<NodeId>(seg_b * per_segment + slot_b);
        if (slot_a >= per_segment || slot_b >= per_segment ||
            a >= topo.numNodes() || b >= topo.numNodes()) {
            throw std::invalid_argument(
                "not enough nodes for the requested task count");
        }
        tasks.push_back({a, b});
    }
    return tasks;
}

std::vector<NodeId>
spreadAcrossSegments(const net::Topology &topo, int count)
{
    const int segments = topo.numSegments();
    const int per_segment = topo.config().nodesPerSegment;
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const int seg = i % segments;
        const int slot = i / segments;
        const NodeId n = static_cast<NodeId>(seg * per_segment + slot);
        if (slot >= per_segment || n >= topo.numNodes()) {
            throw std::invalid_argument(
                "not enough nodes to spread across segments");
        }
        nodes.push_back(n);
    }
    return nodes;
}

} // namespace c4::core
