#include "c4d/master.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "accl/accl.h"

namespace c4::c4d {

namespace {

/** Suppress duplicate findings per (comm, kind) for this long. */
constexpr Duration kFindingCooldown = minutes(2);

} // namespace

const char *
c4dEventKindName(C4dEventKind kind)
{
    switch (kind) {
      case C4dEventKind::CommHang:    return "comm-hang";
      case C4dEventKind::NonCommHang: return "non-comm-hang";
      case C4dEventKind::CommSlow:    return "comm-slow";
      case C4dEventKind::NonCommSlow: return "non-comm-slow";
    }
    return "?";
}

bool
c4dEventIsFatal(C4dEventKind kind)
{
    return kind == C4dEventKind::CommHang ||
           kind == C4dEventKind::NonCommHang;
}

std::string
C4dEvent::str() const
{
    std::ostringstream os;
    os << c4dEventKindName(kind) << " job=" << job << " comm=" << comm
       << " nodes=[";
    for (std::size_t i = 0; i < suspectNodes.size(); ++i)
        os << (i ? "," : "") << suspectNodes[i];
    os << "] " << detail;
    return os.str();
}

C4dMaster::C4dMaster(Simulator &sim, C4dConfig cfg)
    : sim_(sim), cfg_(cfg),
      ticker_(sim, cfg.evaluatePeriod, [this] { evaluate(); })
{
}

void
C4dMaster::registerComm(const accl::CommRecord &rec)
{
    assert(rec.comm >= 0);
    const auto id = static_cast<std::size_t>(rec.comm);
    if (id >= comms_.size())
        comms_.resize(id + 1);
    std::unique_ptr<CommHealth> &slot = comms_[id];
    if (!slot) {
        if (retired_.empty()) {
            slot = std::make_unique<CommHealth>(cfg_.connWindow,
                                                cfg_.waitWindow);
        } else {
            slot = std::move(retired_.back());
            retired_.pop_back();
        }
        ++live_;
    }
    CommHealth &health = *slot;
    health.job = rec.job;
    health.nranks = rec.nranks;
    health.rankNodes = rec.rankNodes;
    health.conns.clear();
    health.waits.clear();
    health.progress = {};
    health.heartbeats.assign(static_cast<std::size_t>(rec.nranks),
                             kTimeNever);
    health.flaggedFatal = false;
    health.lastFinding.fill(kTimeNever);
}

void
C4dMaster::deregisterComm(CommId comm)
{
    if (find(comm) == nullptr)
        return;
    retired_.push_back(std::move(comms_[static_cast<std::size_t>(comm)]));
    --live_;
}

C4dMaster::CommHealth *
C4dMaster::find(CommId comm)
{
    const auto id = static_cast<std::size_t>(comm);
    return comm >= 0 && id < comms_.size() ? comms_[id].get() : nullptr;
}

void
C4dMaster::ingest(const std::vector<accl::ConnRecord> &records)
{
    for (const auto &r : records) {
        if (CommHealth *health = find(r.comm))
            health->conns.push(DelaySample::of(r, health->nranks));
    }
}

void
C4dMaster::ingest(const std::vector<accl::RankWaitRecord> &records)
{
    for (const auto &r : records) {
        if (CommHealth *health = find(r.comm))
            health->waits.push(r);
    }
}

void
C4dMaster::refreshProgress(const accl::Accl &lib)
{
    for (std::size_t id = 0; id < comms_.size(); ++id) {
        CommHealth *health = comms_[id].get();
        const auto comm = static_cast<CommId>(id);
        const accl::OpProgress *op =
            health != nullptr ? lib.currentOp(comm) : nullptr;
        if (op == nullptr)
            continue;
        const std::span<const Time> beats = lib.heartbeats(comm);
        health->progress = *op;
        health->heartbeats.assign(beats.begin(), beats.end());
    }
}

void
C4dMaster::start()
{
    ticker_.start();
}

void
C4dMaster::stop()
{
    ticker_.stop();
}

void
C4dMaster::evaluate()
{
    ++evaluations_;
    // Ascending CommId. Index, not iterators: a callback may register a
    // communicator and grow the table; each CommHealth stays put.
    for (std::size_t id = 0; id < comms_.size(); ++id) {
        if (CommHealth *health = comms_[id].get())
            evaluateComm(static_cast<CommId>(id), *health);
    }
}

std::vector<NodeId>
C4dMaster::nodesOf(const CommHealth &health,
                   const std::vector<Rank> &ranks) const
{
    std::vector<NodeId> nodes;
    for (Rank r : ranks) {
        if (r >= 0 &&
            static_cast<std::size_t>(r) < health.rankNodes.size()) {
            const NodeId n = health.rankNodes[static_cast<std::size_t>(r)];
            if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
                nodes.push_back(n);
        }
    }
    return nodes;
}

bool
C4dMaster::cooldownOk(CommHealth &health, C4dEventKind kind)
{
    Time &last = health.lastFinding[static_cast<std::size_t>(kind)];
    if (last != kTimeNever && sim_.now() - last < kFindingCooldown)
        return false;
    last = sim_.now();
    return true;
}

void
C4dMaster::emit(C4dEvent event, CommHealth &health)
{
    event.when = sim_.now();
    if (c4dEventIsFatal(event.kind))
        health.flaggedFatal = true;
    ++emitted_;
    eventLog_.push_back(event);
    for (const auto &cb : callbacks_)
        cb(event);
}

void
C4dMaster::evaluateComm(CommId comm, CommHealth &health)
{
    if (health.flaggedFatal)
        return; // already escalated; steering will tear this job down

    // 1. Hang detection (fatal).
    const HangFinding hang = analyzeHang(
        health.progress, health.heartbeats, sim_.now(),
        cfg_.hangThreshold);
    if (hang.found()) {
        C4dEvent ev;
        ev.kind = hang.kind == HangKind::NonCommHang
                      ? C4dEventKind::NonCommHang
                      : C4dEventKind::CommHang;
        ev.job = health.job;
        ev.comm = comm;
        ev.suspectRanks = hang.suspects;
        ev.suspectNodes = nodesOf(health, hang.suspects);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "seq=%llu",
                      static_cast<unsigned long long>(hang.seq));
        ev.detail = buf;
        emit(std::move(ev), health);
        return;
    }

    // 2. Communication slow (delay-matrix localization, Fig. 7).
    if (!health.conns.empty()) {
        matrix_.reset(health.nranks);
        for (const DelaySample &d : health.conns)
            matrix_.add(d);
        const CommSlowFinding slow =
            analyzeCommSlow(matrix_, cfg_.analyzer, commSlowScratch_);
        if (slow.found() && cooldownOk(health, C4dEventKind::CommSlow)) {
            C4dEvent ev;
            ev.kind = C4dEventKind::CommSlow;
            ev.job = health.job;
            ev.comm = comm;
            switch (slow.kind) {
              case CommSlowKind::SourceTx:
                ev.suspectRanks = {slow.src};
                break;
              case CommSlowKind::DestRx:
                ev.suspectRanks = {slow.dst};
                break;
              default:
                ev.suspectRanks = {slow.src, slow.dst};
            }
            ev.suspectNodes = nodesOf(health, ev.suspectRanks);
            ev.detail = slow.str();
            emit(std::move(ev), health);
        }
    }

    // 3. Non-communication slow (receiver wait chain).
    if (!health.waits.empty()) {
        waitScan_.reset(health.nranks);
        for (const accl::RankWaitRecord &w : health.waits)
            waitScan_.add(w);
        const NonCommSlowFinding straggler =
            waitScan_.judge(cfg_.analyzer);
        if (straggler.found &&
            cooldownOk(health, C4dEventKind::NonCommSlow)) {
            C4dEvent ev;
            ev.kind = C4dEventKind::NonCommSlow;
            ev.job = health.job;
            ev.comm = comm;
            ev.suspectRanks = {straggler.rank};
            ev.suspectNodes = nodesOf(health, ev.suspectRanks);
            ev.detail = straggler.str();
            emit(std::move(ev), health);
        }
    }
}

} // namespace c4::c4d
