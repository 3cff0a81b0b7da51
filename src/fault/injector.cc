#include "fault/injector.h"

#include <cassert>

#include "common/log.h"

namespace c4::fault {

FaultInjector::FaultInjector(Simulator &sim, std::uint64_t seed)
    : sim_(sim), rng_(seed)
{
}

void
FaultInjector::addObserver(Observer observer)
{
    observers_.push_back(std::move(observer));
}

void
FaultInjector::injectAt(Time when, FaultEvent ev)
{
    assert(when >= sim_.now());
    ev.when = when;
    sim_.scheduleAt(when, [this, ev] { fire(ev); });
}

void
FaultInjector::injectNow(FaultEvent ev)
{
    ev.when = sim_.now();
    fire(ev);
}

void
FaultInjector::fire(FaultEvent ev)
{
    logDebug("fault", "inject %s", ev.str().c_str());
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::FaultInjected)) {
        trace::Event tev;
        tev.when = ev.when;
        tev.kind = trace::EventKind::FaultInjected;
        tev.node = ev.node;
        // NIC-scoped faults report the NIC; LinkDown the trunk index.
        tev.a = ev.type == FaultType::LinkDown ? ev.link : ev.nic;
        tev.b = ev.isLocal ? 1 : 0;
        tev.value = ev.severity;
        tev.detail = faultTypeName(ev.type);
        tr.record(std::move(tev));
    }
    history_.push_back(ev);
    if (applier_)
        applier_(ev);
    for (const auto &obs : observers_)
        obs(ev);
}

std::size_t
FaultInjector::startCampaign(const FaultRates &rates,
                             const std::vector<NodeId> &nodes,
                             int nicsPerNode, int gpusPerNode,
                             int numTrunks, Duration duration)
{
    assert(!nodes.empty());
    assert(nicsPerNode >= 1 && gpusPerNode >= 1);

    const double gpu_k =
        static_cast<double>(nodes.size()) * gpusPerNode / 1000.0;
    const double months = toSeconds(duration) / toSeconds(days(30));

    // Arrivals are scheduled in draw order, so equal-time faults fire
    // in that order too (the kernel breaks ties by schedule sequence).
    std::size_t scheduled = 0;
    for (int t = 0; t < kNumFaultTypes; ++t) {
        const auto type = static_cast<FaultType>(t);
        const double mean = rates[type] * gpu_k * months;
        const std::int64_t count = rng_.poisson(mean);
        for (std::int64_t i = 0; i < count; ++i) {
            FaultEvent ev;
            ev.type = type;
            ev.node = nodes[static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<std::int64_t>(nodes.size()) - 1))];
            ev.nic = static_cast<NicId>(
                rng_.uniformInt(0, nicsPerNode - 1));
            if (type == FaultType::LinkDown && numTrunks > 0) {
                // The applier interprets `link` as a trunk index.
                ev.link = static_cast<LinkId>(
                    rng_.uniformInt(0, numTrunks - 1));
            }
            ev.isLocal = rng_.chance(faultLocalityPrior(type));
            switch (type) {
              case FaultType::SlowNode:
                // Stragglers run at 60-95% of nominal compute speed.
                ev.severity = rng_.uniform(0.60, 0.95);
                break;
              case FaultType::SlowNicTx:
              case FaultType::SlowNicRx:
                // Degraded NICs deliver 25-70% of port bandwidth.
                ev.severity = rng_.uniform(0.25, 0.70);
                break;
              default:
                ev.severity = 1.0;
            }
            const Duration delay = static_cast<Duration>(
                rng_.uniform() * static_cast<double>(duration));
            ev.when = sim_.now() + delay;
            sim_.scheduleAfter(delay, [this, ev] { fire(ev); });
            ++scheduled;
        }
    }
    return scheduled;
}

} // namespace c4::fault
