/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "perf/perf.h"
#include "sim/simulator.h"

namespace c4 {
namespace {

TEST(Simulator, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleAt(seconds(3), [&] { order.push_back(3); });
    sim.scheduleAt(seconds(1), [&] { order.push_back(1); });
    sim.scheduleAt(seconds(2), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, FifoAmongEqualTimes)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.scheduleAt(seconds(1), [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterAddsToNow)
{
    Simulator sim;
    Time fired = -1;
    sim.scheduleAfter(seconds(1), [&] {
        sim.scheduleAfter(seconds(2), [&] { fired = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(fired, seconds(3));
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    const EventId id = sim.scheduleAt(seconds(1), [&] { fired = true; });
    EXPECT_TRUE(sim.pending(id));
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.pending(id));
    EXPECT_FALSE(sim.cancel(id)); // double-cancel is a no-op
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(seconds(1), [&] { ++fired; });
    sim.scheduleAt(seconds(10), [&] { ++fired; });
    const auto n = sim.run(seconds(5));
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), seconds(5));
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, EventExactlyAtUntilRuns)
{
    Simulator sim;
    bool fired = false;
    sim.scheduleAt(seconds(5), [&] { fired = true; });
    sim.run(seconds(5));
    EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesExactlyOne)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(1, [&] { ++fired; });
    sim.scheduleAt(2, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, PastEventsClampToNow)
{
    Simulator sim;
    sim.scheduleAt(seconds(2), [] {});
    sim.run();
    Time fired = -1;
    sim.scheduleAt(seconds(1), [&] { fired = sim.now(); }); // in the past
    sim.run();
    EXPECT_EQ(fired, seconds(2));
}

TEST(Simulator, EventsScheduledDuringRunExecute)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10)
            sim.scheduleAfter(seconds(1), recurse);
    };
    sim.scheduleAfter(seconds(1), recurse);
    sim.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, ClearDropsPending)
{
    Simulator sim;
    bool fired = false;
    sim.scheduleAt(1, [&] { fired = true; });
    sim.clear();
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, ExecutedCount)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAt(i, [] {});
    sim.run();
    EXPECT_EQ(sim.executedCount(), 7u);
}

TEST(Simulator, HugeDelaySaturates)
{
    Simulator sim;
    sim.scheduleAt(seconds(1), [] {});
    const EventId id = sim.scheduleAfter(kTimeNever, [] {});
    EXPECT_TRUE(sim.pending(id));
    sim.run(seconds(2)); // must not overflow or fire the forever event
    EXPECT_TRUE(sim.pending(id));
}

TEST(PeriodicTask, FiresAtPeriod)
{
    Simulator sim;
    int count = 0;
    PeriodicTask task(sim, seconds(10), [&] { ++count; });
    task.start();
    sim.run(seconds(35));
    EXPECT_EQ(count, 3);
    EXPECT_EQ(task.invocations(), 3u);
}

TEST(PeriodicTask, StopHalts)
{
    Simulator sim;
    int count = 0;
    PeriodicTask task(sim, seconds(10), [&] { ++count; });
    task.start();
    sim.scheduleAt(seconds(25), [&] { task.stop(); });
    sim.run(seconds(100));
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, RestartResumesFromNow)
{
    Simulator sim;
    int count = 0;
    PeriodicTask task(sim, seconds(10), [&] { ++count; });
    task.start();
    sim.run(seconds(15));
    task.stop();
    task.start();
    sim.run(seconds(24)); // next firing at t=25
    EXPECT_EQ(count, 1);
    sim.run(seconds(26));
    EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, SelfStopInsideCallback)
{
    Simulator sim;
    int count = 0;
    PeriodicTask *ptr = nullptr;
    PeriodicTask task(sim, seconds(1), [&] {
        if (++count == 3)
            ptr->stop();
    });
    ptr = &task;
    task.start();
    sim.run(seconds(100));
    EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, DoubleStartIsNoop)
{
    Simulator sim;
    int count = 0;
    PeriodicTask task(sim, seconds(1), [&] { ++count; });
    task.start();
    task.start();
    sim.run(seconds(1));
    EXPECT_EQ(count, 1);
}

TEST(PeriodicTask, RestartAfterStopDoesNotDrift)
{
    // Stop mid-period, restart mid-period: the next firing must be a
    // full period after the restart (not the old phase, not sooner).
    Simulator sim;
    std::vector<Time> fires;
    PeriodicTask task(sim, 10, [&] { fires.push_back(sim.now()); });
    task.start();
    sim.scheduleAt(23, [&] { task.stop(); });
    sim.scheduleAt(27, [&] { task.start(); });
    sim.run(60);
    EXPECT_EQ(fires, (std::vector<Time>{10, 20, 37, 47, 57}));
}

TEST(PeriodicTask, SelfStopLeavesNothingPending)
{
    Simulator sim;
    int count = 0;
    PeriodicTask *ptr = nullptr;
    PeriodicTask task(sim, seconds(1), [&] {
        if (++count == 2)
            ptr->stop();
    });
    ptr = &task;
    task.start();
    sim.run();
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(task.running());
    EXPECT_EQ(sim.pendingCount(), 0u); // no orphaned reschedule
}

TEST(PeriodicTask, RestartInsideCallbackKeepsOneTick)
{
    // A callback that restarts its own task has already scheduled the
    // next tick; fire() must not schedule a second one. An orphaned
    // second tick would double every later tick and, once the task is
    // gone, fire into freed memory.
    Simulator sim;
    std::vector<Time> ticks;
    PeriodicTask *ptr = nullptr;
    auto task = std::make_unique<PeriodicTask>(sim, 10, [&] {
        ticks.push_back(sim.now());
        if (sim.now() == 20) {
            ptr->stop();
            ptr->start();
        }
    });
    ptr = task.get();
    task->start();
    sim.run(60);
    task->stop();
    EXPECT_EQ(ticks, (std::vector<Time>{10, 20, 30, 40, 50, 60}));
    ASSERT_EQ(sim.pendingCount(), 0u);
    task.reset();
    sim.run(200); // nothing may still point at the destroyed task
    EXPECT_EQ(ticks.size(), 6u);
}

// ---------------------------------------------------------------------
// Pooled-kernel internals exercised through the public surface: slot
// reuse, tombstone compaction, clear() semantics, the
// heap-fallback callback path, and a randomized equivalence sweep
// against a naive reference model.
// ---------------------------------------------------------------------

TEST(Simulator, StaleIdCannotCancelSlotSuccessor)
{
    Simulator sim;
    const EventId a = sim.scheduleAt(1, [] {});
    EXPECT_TRUE(sim.cancel(a));
    // The freed slot is reused by the very next schedule; the stale
    // handle must not be able to reach the successor.
    bool fired = false;
    const EventId b = sim.scheduleAt(2, [&] { fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(sim.pending(a));
    EXPECT_FALSE(sim.cancel(a));
    EXPECT_TRUE(sim.pending(b));
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelStormFarBandCompactsAndPreservesOrder)
{
    // 10k not-yet-due events, 99% cancelled before any run: the storm
    // drives repeated tombstone compaction of a heap that has never
    // popped; the survivors must still fire in exact (when, seq) order.
    Simulator sim;
    constexpr int kEvents = 10000;
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    std::vector<int> fired;
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(sim.scheduleAt((i * 7919) % 100000 + 1,
                                     [i, &fired] { fired.push_back(i); }));
    }
    for (int i = 0; i < kEvents; ++i) {
        if (i % 100 != 0) {
            EXPECT_TRUE(sim.cancel(ids[i]));
        }
    }
    EXPECT_EQ(sim.pendingCount(), 100u);
    sim.run();
    EXPECT_EQ(sim.executedCount(), 100u);

    std::vector<int> expected;
    for (int i = 0; i < kEvents; i += 100)
        expected.push_back(i);
    std::stable_sort(expected.begin(), expected.end(),
                     [](int a, int b) {
                         return (a * 7919) % 100000 < (b * 7919) % 100000;
                     });
    EXPECT_EQ(fired, expected);
}

TEST(Simulator, CancelStormNearHeapCompactsAndPreservesOrder)
{
    // Same storm, but fire one event first, so the cancel storm
    // compacts a heap that has already been popped from.
    Simulator sim;
    constexpr int kEvents = 10000;
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    std::vector<int> fired;
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(sim.scheduleAt((i * 7919) % 100000 + 1,
                                     [i, &fired] { fired.push_back(i); }));
    }
    ASSERT_TRUE(sim.step());
    ASSERT_EQ(fired.size(), 1u);
    const int first = fired.front();
    for (int i = 0; i < kEvents; ++i) {
        if (i % 100 != 0) {
            EXPECT_EQ(sim.cancel(ids[i]), i != first);
        }
    }
    sim.run();

    std::vector<int> expected;
    for (int i = 0; i < kEvents; ++i) {
        if (i % 100 == 0 || i == first)
            expected.push_back(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](int a, int b) {
                         return (a * 7919) % 100000 < (b * 7919) % 100000;
                     });
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(Simulator, CancelEntireFarBandThenRun)
{
    // Cancelling every far-future event must not disturb the near one
    // and must leave nothing behind to fire.
    Simulator sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(sim.scheduleAt(seconds(10) + i, [] {}));
    bool nearFired = false;
    sim.scheduleAt(seconds(1), [&] { nearFired = true; });
    for (const EventId id : ids)
        EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(sim.pendingCount(), 1u);
    sim.run();
    EXPECT_TRUE(nearFired);
    EXPECT_EQ(sim.executedCount(), 1u);
    EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(Simulator, SlicedRunsWithFarFutureEvents)
{
    // The watchdog pattern: thousands of tiny run(until) slices while
    // every pending event is far in the future. Nothing may fire
    // early, and the final drain must still be in time order.
    Simulator sim;
    std::vector<Time> fired;
    for (int i = 0; i < 100; ++i)
        sim.scheduleAt(seconds(100) + i,
                       [&fired, &sim] { fired.push_back(sim.now()); });
    for (Time t = seconds(1); t < seconds(100); t += seconds(1)) {
        sim.run(t);
        EXPECT_EQ(sim.now(), t);
    }
    EXPECT_TRUE(fired.empty());
    sim.run();
    ASSERT_EQ(fired.size(), 100u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, ClearPreservesClockAndExecutedCount)
{
    // clear() drops pending work only; now(), executedCount() and the
    // schedule sequence survive (see the header contract).
    Simulator sim;
    sim.scheduleAt(seconds(1), [] {});
    sim.run();
    sim.scheduleAt(seconds(5), [] {});
    sim.scheduleAt(seconds(400), [] {});
    sim.clear();
    EXPECT_EQ(sim.now(), seconds(1));
    EXPECT_EQ(sim.executedCount(), 1u);
    EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(Simulator, ScheduleAfterClearIsDeterministic)
{
    // A fresh schedule sequence after clear() fires in exactly the
    // order a fresh simulator would produce: (when, FIFO-among-ties).
    auto soup = [](bool preload) {
        Simulator sim;
        if (preload) {
            sim.scheduleAt(3, [] {});
            sim.scheduleAt(seconds(300), [] {});
            sim.clear();
        }
        std::vector<int> order;
        for (int i = 0; i < 50; ++i)
            sim.scheduleAt((i * 13) % 7,
                           [i, &order] { order.push_back(i); });
        sim.run();
        return order;
    };
    EXPECT_EQ(soup(true), soup(false));
}

TEST(Simulator, ClearFromInsideCallback)
{
    Simulator sim;
    int firedAfter = 0;
    sim.scheduleAt(1, [&] { sim.clear(); });
    sim.scheduleAt(2, [&] { ++firedAfter; });
    sim.scheduleAt(seconds(400), [&] { ++firedAfter; });
    sim.run();
    EXPECT_EQ(firedAfter, 0);
    EXPECT_EQ(sim.now(), 1);
    EXPECT_EQ(sim.executedCount(), 1u);
    // The engine stays usable afterwards.
    bool again = false;
    sim.scheduleAfter(1, [&] { again = true; });
    sim.run();
    EXPECT_TRUE(again);
}

TEST(Simulator, LargeCaptureUsesHeapFallback)
{
    // A capture past the inline budget must still fire and, when
    // cancelled, still destroy (ASan would flag a leak here).
    Simulator sim;
    std::array<std::uint64_t, 16> payload{}; // 128 B > inline budget
    payload[15] = 42;
    std::uint64_t got = 0;
    sim.scheduleAt(1, [payload, &got] { got = payload[15]; });
    const EventId id =
        sim.scheduleAt(2, [payload, &got] { got = 0; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_EQ(got, 42u);
}

TEST(Simulator, CallbackDestructorsRunOnCancelAndClear)
{
    const auto token = std::make_shared<int>(7);
    Simulator sim;
    const EventId id = sim.scheduleAt(1, [token] {});
    sim.scheduleAt(2, [token] {});
    sim.scheduleAt(seconds(400), [token] {});
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(token.use_count(), 3);
    sim.clear();
    EXPECT_EQ(token.use_count(), 1);
}

// Randomized equivalence: the pooled kernel against a naive reference
// model (a flat vector scanned for the (when, seq) minimum), through
// schedule / cancel / sliced-run soups. Wide soups add step(), clear(),
// delays that saturate at kTimeNever, and callbacks that schedule a
// child or cancel another event while firing. Any divergence in fire
// order, clock, live count or cancel result fails.
namespace equivalence {

/** What a wide-soup event does when it fires, besides recording its
 * tag. Fixed when the event is scheduled, so both sides agree. */
struct Action
{
    enum Kind { None, Spawn, Cancel } kind = None;
    Duration delay = 0; ///< Spawn: the child's delay
    int other = -1;     ///< Spawn: the child's tag; Cancel: the target
};

/** now + d, saturating at kTimeNever as Simulator::scheduleAfter does. */
Time
addSaturating(Time now, Duration d)
{
    return d >= kTimeNever - now ? kTimeNever : now + d;
}

struct RefEvent
{
    Time when;
    std::uint64_t seq;
    int tag;
};

struct RefModel
{
    Time now = 0;
    std::uint64_t seq = 1;
    std::uint64_t executed = 0;
    std::vector<RefEvent> pending;
    std::vector<int> fired;
    const std::vector<Action> *actions = nullptr; ///< by tag
    std::vector<bool> cancels; ///< results of in-callback cancels

    void
    schedule(Time when, int tag)
    {
        if (when < now)
            when = now;
        pending.push_back({when, seq++, tag});
    }

    bool
    cancel(int tag)
    {
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->tag == tag) {
                pending.erase(it);
                return true;
            }
        }
        return false;
    }

    /** Fire the earliest (when, seq) event if it is due by @p until. */
    bool
    fireNext(Time until)
    {
        std::size_t best = pending.size();
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (best == pending.size() ||
                pending[i].when < pending[best].when ||
                (pending[i].when == pending[best].when &&
                 pending[i].seq < pending[best].seq))
                best = i;
        }
        if (best == pending.size() || pending[best].when > until)
            return false;
        const RefEvent ev = pending[best];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
        now = ev.when;
        ++executed;
        fired.push_back(ev.tag);
        const Action a = (*actions)[static_cast<std::size_t>(ev.tag)];
        if (a.kind == Action::Spawn)
            schedule(addSaturating(now, a.delay), a.other);
        else if (a.kind == Action::Cancel)
            cancels.push_back(cancel(a.other));
        return true;
    }

    void
    run(Time until)
    {
        while (fireNext(until)) {
        }
        if (until != kTimeNever && now < until)
            now = until;
    }

    bool step() { return fireNext(kTimeNever); }

    /** Drop pending events; the clock, executed and seq survive. */
    void clear() { pending.clear(); }
};

struct Lcg
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

/** The kernel side of a soup: schedules by tag, records fires, and
 * plays each event's Action from inside its callback. */
struct SimSide
{
    Simulator sim;
    const std::vector<Action> *actions = nullptr; ///< by tag
    std::vector<EventId> ids;     ///< by tag; kInvalidEvent if unscheduled
    std::map<int, EventId> live;  ///< ordered: deterministic pick
    std::vector<int> fired;
    std::vector<bool> cancels;    ///< results of in-callback cancels

    void
    schedule(Duration d, int tag)
    {
        const EventId id =
            sim.scheduleAfter(d, [this, tag] { fire(tag); });
        ids[static_cast<std::size_t>(tag)] = id;
        live[tag] = id;
    }

    void
    fire(int tag)
    {
        fired.push_back(tag);
        const Action a = (*actions)[static_cast<std::size_t>(tag)];
        if (a.kind == Action::Spawn)
            schedule(a.delay, a.other);
        else if (a.kind == Action::Cancel)
            cancels.push_back(
                sim.cancel(ids[static_cast<std::size_t>(a.other)]));
    }
};

enum class Op { Schedule, Cancel, Run, Step, Clear };

/** Narrow soups read only r's low three bits, so widening them leaves
 * the narrow op sequence untouched. */
Op
pickOp(std::uint64_t r, bool wide)
{
    if (wide) {
        const std::uint64_t w = (r >> 3) % 512;
        if (w == 0)
            return Op::Clear;
        if (w <= 32)
            return Op::Step;
    }
    const std::uint64_t k = r % 8;
    return k < 5 ? Op::Schedule : k == 5 ? Op::Cancel : Op::Run;
}

void
soup(std::uint64_t seed, bool wide = false)
{
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    SimSide side;
    RefModel ref;
    std::vector<Action> actions; // by tag; all None in narrow soups
    side.actions = &actions;
    ref.actions = &actions;
    Lcg rng{seed};
    auto newTag = [&] {
        actions.emplace_back();
        side.ids.push_back(kInvalidEvent);
        return static_cast<int>(actions.size()) - 1;
    };

    for (int step = 0; step < 10000; ++step) {
        switch (pickOp(rng.next(), wide)) {
        case Op::Schedule: { // mixed near/far/tie-heavy delays
            const std::uint64_t r = rng.next();
            Duration d;
            if ((r & 3) == 0)
                d = static_cast<Duration>(r % 7); // ties
            else if ((r & 3) == 1)
                d = static_cast<Duration>(r % 100000000); // far
            else
                d = static_cast<Duration>(r % 5000); // near
            if (wide && ((r >> 8) & 15) == 0)
                d = kTimeNever - static_cast<Duration>(r % 4); // saturates
            const int tag = newTag();
            if (wide) {
                const std::uint64_t a = rng.next();
                Action act;
                if (a % 8 == 0) {
                    act = {Action::Spawn, static_cast<Duration>(a % 3000),
                           newTag()};
                } else if (a % 8 == 1) {
                    // A recent tag, so the target is often still live.
                    const int target = tag - 1 - static_cast<int>(a % 64);
                    if (target >= 0)
                        act = {Action::Cancel, 0, target};
                }
                actions[static_cast<std::size_t>(tag)] = act;
            }
            side.schedule(d, tag);
            ref.schedule(addSaturating(ref.now, d), tag);
            break;
        }
        case Op::Cancel: { // a pseudo-random (possibly fired) tag
            if (side.live.empty())
                break;
            auto it = side.live.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.next() % side.live.size()));
            EXPECT_EQ(side.sim.cancel(it->second), ref.cancel(it->first));
            side.live.erase(it);
            break;
        }
        case Op::Run: { // sliced run
            const Time until = addSaturating(
                side.sim.now(), static_cast<Duration>(rng.next() % 20000));
            side.sim.run(until);
            ref.run(until);
            break;
        }
        case Op::Step:
            EXPECT_EQ(side.sim.step(), ref.step());
            break;
        case Op::Clear:
            side.sim.clear();
            ref.clear();
            break;
        }
        ASSERT_EQ(side.sim.now(), ref.now);
        ASSERT_EQ(side.sim.pendingCount(), ref.pending.size());
    }
    side.sim.run();
    ref.run(kTimeNever);
    EXPECT_EQ(side.fired, ref.fired);
    EXPECT_EQ(side.cancels, ref.cancels);
    EXPECT_EQ(side.sim.now(), ref.now);
    EXPECT_EQ(side.sim.executedCount(), ref.executed);
    EXPECT_EQ(side.sim.pendingCount(), ref.pending.size());
}

} // namespace equivalence

// A self-rescheduling ticker with a 32-byte capture: small enough for
// the kernel's inline callback slot, like the codebase's real captures.
struct Ticker
{
    Simulator *sim;
    equivalence::Lcg *rng;
    std::uint64_t *remaining;
    std::uint64_t salt;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        // Mostly near delays (1-17 us), one in eight far (1-17 ms).
        const std::uint64_t r = rng->next();
        const Duration d = (r & 7) != 0
                               ? static_cast<Duration>(r % 16000 + 1000)
                               : static_cast<Duration>(r % 16000000 +
                                                       1000000);
        sim->scheduleAfter(d, *this);
    }
};
static_assert(sizeof(Ticker) == 32);

TEST(Simulator, SteadyScheduleFireDoesNotAllocate)
{
    // After one warm-up pass grows the slot pool and the heap, a pass
    // of the same shape allocates nothing.
    Simulator sim;
    equivalence::Lcg rng{0x2545f4914f6cdd1dull};
    auto pass = [&] {
        std::uint64_t remaining = 100000;
        const Ticker ticker{&sim, &rng, &remaining, 0x5a5a5a5aull};
        for (int i = 0; i < 1024; ++i)
            sim.scheduleAfter(static_cast<Duration>(rng.next() % 1000000),
                              ticker);
        // Watchdog pattern: arm a far timer, run a slice, cancel it.
        int cancelled = 0;
        for (int i = 0; i < 1000; ++i) {
            const EventId id = sim.scheduleAfter(milliseconds(50), [] {});
            sim.run(sim.now() + 2000);
            cancelled += sim.cancel(id) ? 1 : 0;
        }
        sim.run();
        return cancelled;
    };
    ASSERT_EQ(pass(), 1000);
    const std::uint64_t executedBefore = sim.executedCount();
    const std::uint64_t before = perf::allocStatsNow().count;
    const int cancelled = pass();
    const std::uint64_t allocs = perf::allocStatsNow().count - before;
    EXPECT_EQ(cancelled, 1000);
    EXPECT_EQ(sim.executedCount() - executedBefore, 1024u + 100000u);
    EXPECT_EQ(sim.pendingCount(), 0u);
    EXPECT_EQ(allocs, 0u);
}

TEST(SimulatorEquivalence, RandomSoupSeed1)
{
    equivalence::soup(0x9e3779b97f4a7c15ull);
}

TEST(SimulatorEquivalence, RandomSoupSeed2)
{
    equivalence::soup(0xd1b54a32d192ed03ull);
}

TEST(SimulatorEquivalence, RandomSoupSeed3)
{
    equivalence::soup(0x94d049bb133111ebull);
}

// Wide soups. Seed 2's clock reaches kTimeNever early (a step() with
// only saturated events pending), so it covers scheduling and running
// at the end of time; seeds 1 and 3 stay finite until the final drain.
TEST(SimulatorEquivalence, WideSoupSeed1)
{
    equivalence::soup(0xbf58476d1ce4e5b9ull, /*wide=*/true);
}

TEST(SimulatorEquivalence, WideSoupSeed2)
{
    equivalence::soup(0xc2b2ae3d27d4eb4full, /*wide=*/true);
}

TEST(SimulatorEquivalence, WideSoupSeed3)
{
    equivalence::soup(0x6a09e667f3bcc909ull, /*wide=*/true);
}

} // namespace
} // namespace c4
