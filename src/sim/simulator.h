/**
 * @file
 * Discrete-event simulation engine.
 *
 * Every dynamic component of the reproduction (fabric flow completions,
 * collective rounds, fault arrivals, C4D polling, checkpoint timers) is an
 * event on a single Simulator. Events at equal timestamps fire in
 * scheduling order, which keeps runs deterministic for a given seed.
 *
 * The kernel is a pooled, intrusive event store built for zero
 * steady-state allocation:
 *
 *  - Callbacks live in a free-list slab of fixed slots, grown in
 *    never-moved chunks. Each slot has an inline small-buffer
 *    (kInlineCallbackBytes) sized for the codebase's capture patterns
 *    (`[this]`, `[this, id, epoch]`, a std::function plus a few
 *    words); only oversized captures fall back to one heap
 *    allocation.
 *  - An EventId encodes {slot index, generation}; cancel() and
 *    pending() are O(1) array probes, no hash map. The generation
 *    bumps every time a slot is freed, so a stale handle for a reused
 *    slot can never cancel its successor (the 32-bit generation would
 *    have to wrap exactly 2^32 times between issue and use).
 *  - Every pending event sits in one 4-ary min-heap ordered by
 *    (when, seq). The simulations here keep at most a few hundred
 *    events pending, so the heap stays a handful of levels deep.
 *  - Heap entries carry the slot index and its generation, so
 *    tombstone skipping is one integer compare. Cancelled events stay
 *    behind as tombstones; when dead entries exceed half the heap, it
 *    is compacted in one O(n) sweep (amortized O(1) per cancel).
 *  - Callbacks fire in place: the slot is marked dead before the call
 *    (so pending()/cancel() on the firing event read false, and a
 *    clear() from inside the callback skips it) and recycled after,
 *    with no intermediate move of the callable.
 *
 * The external contract is the (when, seq) FIFO tie-break among
 * equal-time events, so every seeded run, golden CSV, and event trace
 * is byte-identical. tests/test_sim.cc checks the kernel against a
 * naive reference model (SimulatorEquivalence) and pins zero
 * steady-state allocation (SteadyScheduleFireDoesNotAllocate).
 */

#ifndef C4_SIM_SIMULATOR_H
#define C4_SIM_SIMULATOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "trace/trace.h"

namespace c4 {

/** Opaque handle identifying a scheduled event, used for cancellation. */
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/**
 * The event-driven simulation kernel.
 *
 * Not thread-safe by design: a simulation run is a single logical timeline.
 */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    /** Inline callback storage per event slot; larger captures take one
     * heap allocation. 80 bytes covers every capture pattern in the
     * tree; the hot ones are far smaller (accl's `[this, channel,
     * node]`, the fabric's `[this]`, a train job's `[this, epoch]`). */
    static constexpr std::size_t kInlineCallbackBytes = 80;

    Simulator() = default;
    ~Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when (>= now; earlier
     * times clamp to now). Accepts any nullary callable; it is moved
     * into pooled storage (inline when it fits kInlineCallbackBytes).
     * @return a handle that can be passed to cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Time when, F fn)
    {
        const std::uint32_t slot = storeCallback(std::move(fn));
        return finishSchedule(when, slot);
    }

    /** Schedule @p fn to run @p delay after now. */
    template <typename F>
    EventId
    scheduleAfter(Duration delay, F fn)
    {
        assert(delay >= 0);
        // Saturate instead of overflowing for "never"-ish delays.
        const Time when =
            delay >= kTimeNever - now_ ? kTimeNever : now_ + delay;
        return scheduleAt(when, std::move(fn));
    }

    /**
     * Cancel a pending event. Cancelling an already-fired, cleared, or
     * invalid handle is a harmless no-op (O(1) either way).
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** True if the event is still pending. */
    bool pending(EventId id) const;

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingCount() const { return liveCount_; }

    /**
     * Run until the queue is empty or @p until is reached. Events scheduled
     * exactly at @p until are executed. Advances now() to the later of the
     * last event time and @p until (when until is bounded).
     * @return number of events executed.
     */
    std::uint64_t run(Time until = kTimeNever);

    /**
     * Execute exactly the next event, if any.
     * @return true if an event was executed.
     */
    bool step();

    /**
     * Drop all pending events without running them; their callbacks are
     * destroyed, never invoked. The clock (now()), executedCount(), and
     * the FIFO sequence counter are all preserved: events scheduled
     * after a clear() fire at their requested times in scheduling
     * order, exactly as if the dropped events had never existed. Safe
     * to call from inside an executing callback (the firing event is
     * already unlinked from the pool and completes normally; anything
     * it schedules after the clear() survives).
     */
    void clear();

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t executedCount() const { return executed_; }

    /** @name Event tracing
     * The simulator carries the run's TraceScope because every layer
     * above already holds a Simulator reference: attaching a recorder
     * here instruments the whole stack without further plumbing.
     * Detached (the default), emitting is a single null check.
     * @{ */
    trace::TraceScope &tracer() { return tracer_; }
    void setTracer(trace::TraceScope scope) { tracer_ = scope; }
    /** @} */

    /** @name Live metrics
     * The simulator carries the run's MetricsScope for the same reason
     * it carries the TraceScope: every instrumented layer already holds
     * a Simulator reference. Detached (the default), emitting is a
     * single null check.
     * @{ */
    obs::MetricsScope &metrics() { return metrics_; }
    void setMetrics(obs::MetricsScope scope) { metrics_ = scope; }
    /** @} */

    /** @name Event-kernel introspection
     * Pure reads over the pooled store, safe to pull from a metrics
     * sampler at any point (no lazy recompute, no RNG).
     * @{ */
    /** Always 0 (there is one queue, so nothing is promoted); kept so
     * that perfbench's `sim.promotes` column still builds. */
    std::uint64_t promoteCount() const { return 0; }
    /** Event slots ever materialized in the pool slab. */
    std::uint32_t poolSlotCount() const { return slotCount_; }
    /** @} */

  private:
    /** Type-erased operations for a stored callback type F. */
    struct CallbackOps
    {
        void (*invoke)(void *p);
        /** ~F() in place, or `delete` when @p onHeap. */
        void (*destroy)(void *p, bool onHeap);
        /** Skip the inline destructor call entirely (most captures). */
        bool trivialDtor;
    };

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint32_t kChunkSlots = 256; // power of two

    /** One pooled event slot. `ops` null <=> slot is on the free list.
     * Metadata leads so it shares a cache line with small captures. */
    struct Slot
    {
        const CallbackOps *ops = nullptr;
        void *heap = nullptr; ///< non-null: callable lives on the heap
        std::uint32_t gen = 1;
        std::uint32_t nextFree = kNoSlot;
        alignas(std::max_align_t)
            unsigned char inlineBuf[kInlineCallbackBytes];

        void *callable() { return heap ? heap : inlineBuf; }
    };

    /** Heap entry; stale (tombstone) iff the slot's generation moved on. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq; // tie-break: FIFO among same-time events
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Strict total order: (when, seq) lexicographic. Because seq is
     * unique, the pop sequence is fully determined by this order — the
     * heap's arity and internal layout cannot affect event ordering. */
    static bool
    entryBefore(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    template <typename F>
    static void
    invokeImpl(void *p)
    {
        (*static_cast<F *>(p))();
    }

    template <typename F>
    static void
    destroyImpl(void *p, bool onHeap)
    {
        if (onHeap)
            delete static_cast<F *>(p);
        else
            static_cast<F *>(p)->~F();
    }

    template <typename F>
    static const CallbackOps &
    opsFor()
    {
        static constexpr CallbackOps table{
            &invokeImpl<F>, &destroyImpl<F>,
            std::is_trivially_destructible_v<F>};
        return table;
    }

    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }
    static constexpr std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }
    static constexpr std::uint32_t
    genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    Slot &slotRef(std::uint32_t idx);
    const Slot &slotRef(std::uint32_t idx) const;
    std::uint32_t allocSlot();

    /** Move @p fn into a freshly allocated slot (inline when it fits)
     * and install its type-erased ops. Returns the slot index. */
    template <typename F>
    std::uint32_t
    storeCallback(F fn)
    {
        static_assert(std::is_invocable_v<F &>,
                      "event callbacks take no arguments");
        if constexpr (std::is_constructible_v<bool, const F &>)
            assert(static_cast<bool>(fn));
        const std::uint32_t slot = allocSlot();
        Slot &s = slotRef(slot);
        constexpr bool fitsInline =
            sizeof(F) <= kInlineCallbackBytes &&
            alignof(F) <= alignof(std::max_align_t);
        if constexpr (fitsInline) {
            ::new (static_cast<void *>(s.inlineBuf)) F(std::move(fn));
            s.heap = nullptr;
        } else {
            s.heap = new F(std::move(fn));
        }
        s.ops = &opsFor<F>();
        return slot;
    }
    /** Bump the slot's generation and clear its vtable, so every
     * outstanding EventId and heap entry for it reads as dead. */
    void markDead(Slot &s);
    /** Put a dead slot on the free list. */
    void pushFree(Slot &s, std::uint32_t idx);
    /** Destroy the callable in @p idx, then mark dead + free. */
    void destroySlot(std::uint32_t idx);
    EventId finishSchedule(Time when, std::uint32_t slot);
    /** @name 4-ary min-heap on entryBefore (half the depth of a binary
     * heap; pop order is layout-independent, see entryBefore) @{ */
    void heapPush(const HeapEntry &e);
    void heapPopTop();
    void siftDown(std::size_t i);
    /** @} */
    /** Drop tombstones, then fire the next event with when <= @p until.
     * Each popped entry is examined exactly once. */
    bool fireNext(Time until);
    /** Sweep stale entries out of the heap and re-heapify. */
    void compact();

    trace::TraceScope tracer_;
    obs::MetricsScope metrics_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint32_t slotCount_ = 0; ///< slots ever materialized
    std::size_t liveCount_ = 0;   ///< pending (schedulable) events

    /** Min-heap over every pending event (live + tombstones). */
    std::vector<HeapEntry> heap_;
    std::size_t deadInHeap_ = 0; ///< tombstones awaiting compaction
};

/**
 * Helper that reschedules itself at a fixed period until stopped; used by
 * the C4 agents (stats export) and the C4D master (health evaluation).
 */
class PeriodicTask
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param sim simulator to schedule on (must outlive the task)
     * @param period interval between invocations
     * @param fn callback invoked every period
     */
    PeriodicTask(Simulator &sim, Duration period, Callback fn);
    ~PeriodicTask();

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    /** Begin firing, first invocation one period from now. */
    void start();

    /** Stop firing; may be restarted. */
    void stop();

    bool running() const { return running_; }
    std::uint64_t invocations() const { return invocations_; }

  private:
    Simulator &sim_;
    Duration period_;
    Callback fn_;
    EventId pendingEvent_ = kInvalidEvent;
    bool running_ = false;
    std::uint64_t invocations_ = 0;

    void fire();
};

} // namespace c4

#endif // C4_SIM_SIMULATOR_H
