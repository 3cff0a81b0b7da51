/**
 * @file
 * Deterministic per-trial event tracing.
 *
 * A TraceRecorder collects typed events — fault injections and
 * recoveries, steering decisions, path (re)allocations, CNP samples,
 * job arrivals/departures, fabric recompute begin/end — from every
 * layer of the stack during one simulated trial. Events carry
 * *simulated* timestamps only (never wall clock), and each trial runs
 * on one thread with its own Simulator, so a trial's trace is
 * byte-identical across `--threads 1` vs `--threads N` and across
 * reruns with the same seed: the same determinism contract the CSV
 * path guarantees, extended to everything that happens *during* the
 * trial.
 *
 * Layers emit through a TraceScope, a nullable handle carried by the
 * Simulator. Detached (the default), wants() is a null-pointer check
 * and no Event is ever constructed — tracing costs nothing unless a
 * recorder is attached:
 *
 *     trace::TraceScope &tr = sim_.tracer();
 *     if (tr.wants(trace::EventKind::FaultInjected)) {
 *         trace::Event ev;
 *         ev.when = sim_.now();
 *         ev.kind = trace::EventKind::FaultInjected;
 *         ...
 *         tr.record(std::move(ev));
 *     }
 */

#ifndef C4_TRACE_TRACE_H
#define C4_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace c4::trace {

/**
 * Event taxonomy. Field semantics per kind (see the README "Tracing"
 * schema table):
 *
 *   FaultInjected     node=victim, a=NIC (or trunk index for
 *                     link_down), b=isLocal, value=severity,
 *                     detail=fault type name
 *   FaultRecovered    node=repaired node
 *   SteeringDecision  job, a=#isolated nodes, b=via C4D (1) or the
 *                     manual/watchdog path (0), value=recovery
 *                     latency in seconds, detail="restart"
 *   PathRealloc       detail=a PathReallocKind label (below).
 *                     C4P QP placement: job, node=src node, a=spine,
 *                     b=1 for a re-pin (0 initial), detail="alloc"/
 *                     "repin"; fabric link events: a=link id, b=up,
 *                     value=#flows rerouted, detail="link_up"/
 *                     "link_down"; capacity scaling: a=link id,
 *                     b=#flows routed over the link, value=scale,
 *                     detail="link_scale"
 *   CnpSample         a=#NICs with a nonzero rate this tick,
 *                     value=mean kp/s over them
 *   JobArrival        job, a=#nodes, detail=job name
 *   JobDeparture      job, a=#nodes
 *   RecomputeBegin    a=#admitted flows, b=#dirty links seeding the
 *                     incremental component search
 *   RecomputeEnd      a=#re-filled (runnable component) flows,
 *                     b=#active component links,
 *                     value=progressive-filling work (ops)
 */
enum class EventKind : std::uint8_t {
    FaultInjected = 0,
    FaultRecovered,
    SteeringDecision,
    PathRealloc,
    CnpSample,
    JobArrival,
    JobDeparture,
    RecomputeBegin,
    RecomputeEnd,
};

constexpr int kNumEventKinds = 9;

/** Stable snake_case name ("fault_injected", ...). */
const char *eventKindName(EventKind kind);

/** @return false when @p name is not a known kind name. */
bool eventKindFromName(std::string_view name, EventKind &out);

/** PathRealloc's sub-kinds. An event carries pathReallocName(kind)
 * as its detail; see the field table above. */
enum class PathReallocKind : std::uint8_t {
    Alloc = 0, ///< C4P's initial QP placement
    Repin,     ///< C4P moved a QP to another spine
    LinkUp,
    LinkDown,
    LinkScale, ///< a link's capacity was scaled
};

constexpr int kNumPathReallocKinds = 5;

/** The sub-kind's wire label ("alloc", ...). */
const char *pathReallocName(PathReallocKind kind);

/** @return false when @p label names no PathRealloc sub-kind. */
bool pathReallocFromName(std::string_view label, PathReallocKind &out);

/** Bitmask over EventKind, for recording filters. */
using KindMask = std::uint32_t;
constexpr KindMask kAllKinds = (KindMask{1} << kNumEventKinds) - 1;

constexpr KindMask
kindBit(EventKind kind)
{
    return KindMask{1} << static_cast<int>(kind);
}

/**
 * Parse a comma-separated kind list ("fault_injected,recompute_end")
 * into a mask. @return "" on success, else an error naming the bad
 * token and the valid kinds.
 */
std::string parseKindFilter(const std::string &list, KindMask &out);

/** One recorded occurrence. Field use is per-kind; see EventKind. */
struct Event
{
    Time when = 0; ///< simulated nanoseconds (never wall clock)
    EventKind kind = EventKind::FaultInjected;
    JobId job = kInvalidId;
    NodeId node = kInvalidId;
    std::int64_t a = 0; ///< kind-specific counter/id
    std::int64_t b = 0; ///< kind-specific counter/flag
    double value = 0.0; ///< kind-specific measurement
    std::string detail; ///< short stable label; never free-form text

    bool operator==(const Event &) const = default;
};

/**
 * Collects one trial's events in emission order (which, per the
 * determinism contract, is a pure function of the trial seed).
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(KindMask filter = kAllKinds)
        : filter_(filter)
    {
    }

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    bool
    wants(EventKind kind) const
    {
        return (filter_ & kindBit(kind)) != 0;
    }

    /** Append @p ev (the caller already checked wants()). */
    void
    record(Event ev)
    {
        events_.push_back(std::move(ev));
    }

    const std::vector<Event> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    KindMask filter() const { return filter_; }

  private:
    KindMask filter_;
    std::vector<Event> events_;
};

/**
 * The nullable handle layers emit through. Copyable and cheap; the
 * recorder (when any) must outlive every scope pointing at it.
 */
class TraceScope
{
  public:
    TraceScope() = default;
    explicit TraceScope(TraceRecorder *recorder) : recorder_(recorder)
    {
    }

    bool attached() const { return recorder_ != nullptr; }

    /** Gate event construction on this: detached = one null check. */
    bool
    wants(EventKind kind) const
    {
        return recorder_ != nullptr && recorder_->wants(kind);
    }

    void
    record(Event ev)
    {
        if (recorder_ != nullptr && recorder_->wants(ev.kind))
            recorder_->record(std::move(ev));
    }

  private:
    TraceRecorder *recorder_ = nullptr;
};

} // namespace c4::trace

#endif // C4_TRACE_TRACE_H
