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

// ---------------------------------------------------------------------
// Pooled-kernel internals exercised through the public surface: slot
// reuse, tombstone compaction in both bands, clear() semantics, the
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
    // lands entirely in the far band (nothing has been promoted yet)
    // and drives repeated far compaction; the survivors must still
    // fire in exact (when, seq) order.
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
    // Same storm, but fire one event first: the initial band width
    // exceeds the whole time spread, so that single step() promotes
    // the entire population into the near heap, and the cancel storm
    // now drives the heap's tombstone compaction instead.
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
    // and must leave nothing to promote.
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
    sim.scheduleAt(seconds(400), [] {}); // lands in the far band
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
    sim.scheduleAt(seconds(400), [token] {}); // far band
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(token.use_count(), 3);
    sim.clear();
    EXPECT_EQ(token.use_count(), 1);
}

// Randomized equivalence: the pooled kernel against a naive reference
// model (a flat vector scanned for the (when, seq) minimum), through
// schedule / cancel / sliced-run soups. Any divergence in fire order,
// clock, or live count fails.
namespace equivalence {

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

    void
    run(Time until)
    {
        for (;;) {
            std::size_t best = pending.size();
            for (std::size_t i = 0; i < pending.size(); ++i) {
                if (best == pending.size() ||
                    pending[i].when < pending[best].when ||
                    (pending[i].when == pending[best].when &&
                     pending[i].seq < pending[best].seq))
                    best = i;
            }
            if (best == pending.size() || pending[best].when > until)
                break;
            now = pending[best].when;
            ++executed;
            fired.push_back(pending[best].tag);
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(best));
        }
        if (until != kTimeNever && now < until)
            now = until;
    }
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

void
soup(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Simulator sim;
    RefModel ref;
    std::vector<int> simFired;
    std::map<int, EventId> live; // ordered: deterministic pick
    Lcg rng{seed};
    int nextTag = 0;

    for (int step = 0; step < 10000; ++step) {
        switch (rng.next() % 8) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4: { // schedule; mixed near/far/tie-heavy delays
            const std::uint64_t r = rng.next();
            Duration d;
            if ((r & 3) == 0)
                d = static_cast<Duration>(r % 7); // ties
            else if ((r & 3) == 1)
                d = static_cast<Duration>(r % 100000000); // far
            else
                d = static_cast<Duration>(r % 5000); // near
            const int tag = nextTag++;
            live[tag] = sim.scheduleAfter(
                d, [tag, &simFired] { simFired.push_back(tag); });
            ref.schedule(ref.now + d, tag);
            break;
        }
        case 5: { // cancel a pseudo-random (possibly fired) tag
            if (live.empty())
                break;
            auto it = live.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.next() % live.size()));
            EXPECT_EQ(sim.cancel(it->second), ref.cancel(it->first));
            live.erase(it);
            break;
        }
        default: { // sliced run
            const Time until =
                sim.now() + static_cast<Duration>(rng.next() % 20000);
            sim.run(until);
            ref.run(until);
            ASSERT_EQ(sim.now(), ref.now);
            ASSERT_EQ(sim.pendingCount(), ref.pending.size());
            break;
        }
        }
    }
    sim.run();
    ref.run(kTimeNever);
    EXPECT_EQ(simFired, ref.fired);
    EXPECT_EQ(sim.now(), ref.now);
    EXPECT_EQ(sim.executedCount(), ref.executed);
    EXPECT_EQ(sim.pendingCount(), ref.pending.size());
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
    // After one warm-up pass grows the slot pool, the near heap and
    // the far band, a pass of the same shape allocates nothing.
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

TEST(SimulatorBatch, MatchesSingleCallFireOrder)
{
    // One scheduleBatchAfter must fire byte-identically to N
    // scheduleAfter calls in the same order — including ties, which
    // resolve by sequence number. Delays span both bands (the +400 s
    // entries land in the unsorted far band).
    const std::vector<Duration> delays = {
        seconds(3),  seconds(1),   seconds(1),  0,
        seconds(2),  seconds(1),   seconds(400), seconds(401),
        seconds(2),  0,            seconds(400), seconds(7)};

    std::vector<int> single, batched;
    Simulator a;
    for (std::size_t i = 0; i < delays.size(); ++i) {
        a.scheduleAfter(delays[i],
                        [&single, i] { single.push_back(static_cast<int>(i)); });
    }
    a.run();

    Simulator b;
    std::vector<std::pair<Duration, std::function<void()>>> items;
    for (std::size_t i = 0; i < delays.size(); ++i) {
        items.emplace_back(delays[i], [&batched, i] {
            batched.push_back(static_cast<int>(i));
        });
    }
    const std::vector<EventId> ids =
        b.scheduleBatchAfter(std::move(items));
    EXPECT_EQ(ids.size(), delays.size());
    b.run();

    EXPECT_EQ(batched, single);
    EXPECT_EQ(a.now(), b.now());
}

TEST(SimulatorBatch, InterleavesWithSinglesBySequence)
{
    // Ties across a batch boundary keep global FIFO order: singles
    // scheduled before the batch fire first, batch entries next (in
    // array order), singles after the batch last.
    Simulator sim;
    std::vector<int> order;
    sim.scheduleAfter(seconds(1), [&] { order.push_back(0); });
    std::vector<std::pair<Duration, std::function<void()>>> items;
    for (int i = 1; i <= 3; ++i)
        items.emplace_back(seconds(1), [&order, i] { order.push_back(i); });
    sim.scheduleBatchAfter(std::move(items));
    sim.scheduleAfter(seconds(1), [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorBatch, IdsCancelIndividually)
{
    Simulator sim;
    std::vector<int> fired;
    std::vector<std::pair<Duration, std::function<void()>>> items;
    for (int i = 0; i < 6; ++i) {
        const Duration d = i < 3 ? seconds(i + 1) : seconds(500 + i);
        items.emplace_back(d, [&fired, i] { fired.push_back(i); });
    }
    const std::vector<EventId> ids =
        sim.scheduleBatchAfter(std::move(items));
    ASSERT_EQ(ids.size(), 6u);
    EXPECT_TRUE(sim.cancel(ids[1])); // near band
    EXPECT_TRUE(sim.cancel(ids[4])); // far band
    EXPECT_FALSE(sim.cancel(ids[1]));
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

TEST(SimulatorBatch, EmptyBatchIsNoop)
{
    Simulator sim;
    std::vector<std::pair<Duration, std::function<void()>>> none;
    EXPECT_TRUE(sim.scheduleBatchAfter(std::move(none)).empty());
    EXPECT_EQ(sim.pendingCount(), 0u);
    sim.run();
    EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorBatch, LargeTiedBatchKeepsArrayOrder)
{
    // Heapify must not be able to reorder ties: 512 entries at one
    // timestamp fire exactly in input order.
    Simulator sim;
    std::vector<int> order;
    std::vector<std::pair<Duration, std::function<void()>>> items;
    for (int i = 0; i < 512; ++i)
        items.emplace_back(seconds(1), [&order, i] { order.push_back(i); });
    sim.scheduleBatchAfter(std::move(items));
    sim.run();
    ASSERT_EQ(order.size(), 512u);
    for (int i = 0; i < 512; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
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

} // namespace
} // namespace c4
