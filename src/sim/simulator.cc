#include "sim/simulator.h"

#include <algorithm>

namespace c4 {

Simulator::~Simulator()
{
    clear();
}

Simulator::Slot &
Simulator::slotRef(std::uint32_t idx)
{
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
}

const Simulator::Slot &
Simulator::slotRef(std::uint32_t idx) const
{
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
}

std::uint32_t
Simulator::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = slotRef(idx).nextFree;
        return idx;
    }
    if (slotCount_ % kChunkSlots == 0)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    return slotCount_++;
}

void
Simulator::markDead(Slot &s)
{
    s.ops = nullptr;
    // Generation 0 is reserved so no valid EventId is ever 0
    // (kInvalidEvent); skip it on wrap.
    if (++s.gen == 0)
        s.gen = 1;
}

void
Simulator::pushFree(Slot &s, std::uint32_t idx)
{
    s.heap = nullptr;
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

void
Simulator::destroySlot(std::uint32_t idx)
{
    Slot &s = slotRef(idx);
    if (s.heap)
        s.ops->destroy(s.heap, true);
    else if (!s.ops->trivialDtor)
        s.ops->destroy(s.inlineBuf, false);
    markDead(s);
    pushFree(s, idx);
}

EventId
Simulator::finishSchedule(Time when, std::uint32_t slot)
{
    if (when < now_)
        when = now_; // clamp: events cannot fire in the past
    const std::uint32_t gen = slotRef(slot).gen;
    heapPush({when, nextSeq_++, slot, gen});
    ++liveCount_;
    return makeId(slot, gen);
}

void
Simulator::heapPush(const HeapEntry &e)
{
    // Sift-up through the 4-ary heap, moving holes instead of swapping.
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!entryBefore(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
Simulator::siftDown(std::size_t i)
{
    const HeapEntry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (entryBefore(heap_[c], heap_[best]))
                best = c;
        }
        if (!entryBefore(heap_[best], e))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

void
Simulator::heapPopTop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

bool
Simulator::cancel(EventId id)
{
    if (!pending(id))
        return false;
    // The entry stays behind as a tombstone; compact once dead entries
    // outnumber live ones (more than half the heap).
    destroySlot(slotOf(id));
    --liveCount_;
    if (++deadInHeap_ * 2 > heap_.size())
        compact();
    return true;
}

bool
Simulator::pending(EventId id) const
{
    const std::uint32_t slot = slotOf(id);
    if (slot >= slotCount_)
        return false;
    const Slot &s = slotRef(slot);
    return s.ops != nullptr && s.gen == genOf(id);
}

void
Simulator::compact()
{
    std::erase_if(heap_, [this](const HeapEntry &e) {
        return slotRef(e.slot).gen != e.gen;
    });
    // Floyd heapify from the last parent, (size-2)/4, down to the
    // root; the pop order is layout-independent (entryBefore is a
    // strict total order), so rebuilding cannot reorder events.
    for (std::size_t i = (heap_.size() + 2) / 4; i-- > 0;)
        siftDown(i);
    deadInHeap_ = 0;
}

bool
Simulator::fireNext(Time until)
{
    while (!heap_.empty()) {
        const HeapEntry top = heap_.front();
        Slot &s = slotRef(top.slot);
        if (s.gen != top.gen) { // cancelled; drop the tombstone
            heapPopTop();
            --deadInHeap_;
            continue;
        }
        if (top.when > until)
            return false;
        heapPopTop();
        // Fire in place. Mark the slot dead first so the callback sees
        // its own event as no longer pending (and a clear() from
        // inside it skips this slot); recycle the slot only after the
        // call returns, so a schedule from the callback cannot reuse
        // the storage the callable still occupies.
        const CallbackOps *ops = s.ops;
        void *heapPtr = s.heap;
        void *p = heapPtr ? heapPtr : s.inlineBuf;
        markDead(s);
        --liveCount_;
        now_ = top.when;
        ++executed_;
        struct FireGuard
        {
            Simulator *sim;
            Slot *s;
            const CallbackOps *ops;
            void *p;
            void *heapPtr;
            std::uint32_t slot;
            ~FireGuard()
            {
                if (heapPtr)
                    ops->destroy(heapPtr, true);
                else if (!ops->trivialDtor)
                    ops->destroy(p, false);
                sim->pushFree(*s, slot);
            }
        } guard{this, &s, ops, p, heapPtr, top.slot};
        ops->invoke(p);
        return true;
    }
    return false;
}

bool
Simulator::step()
{
    return fireNext(kTimeNever);
}

std::uint64_t
Simulator::run(Time until)
{
    std::uint64_t n = 0;
    while (fireNext(until))
        ++n;
    if (until != kTimeNever && now_ < until)
        now_ = until;
    return n;
}

void
Simulator::clear()
{
    // Every live event has exactly one heap entry; destroy those
    // callables, then drop the heap wholesale. now_, executed_ and
    // nextSeq_ survive (see the header contract).
    for (const HeapEntry &e : heap_) {
        if (slotRef(e.slot).gen == e.gen)
            destroySlot(e.slot);
    }
    heap_.clear();
    deadInHeap_ = 0;
    liveCount_ = 0;
}

PeriodicTask::PeriodicTask(Simulator &sim, Duration period, Callback fn)
    : sim_(sim), period_(period), fn_(std::move(fn))
{
    assert(period_ > 0);
    assert(fn_);
}

PeriodicTask::~PeriodicTask()
{
    stop();
}

void
PeriodicTask::start()
{
    if (running_)
        return;
    running_ = true;
    pendingEvent_ = sim_.scheduleAfter(period_, [this] { fire(); });
}

void
PeriodicTask::stop()
{
    if (!running_)
        return;
    running_ = false;
    sim_.cancel(pendingEvent_);
    pendingEvent_ = kInvalidEvent;
}

void
PeriodicTask::fire()
{
    if (!running_)
        return;
    ++invocations_;
    const EventId firing = pendingEvent_;
    fn_();
    // A callback that restarted the task (stop(); start();) has already
    // scheduled the next tick; a second one would orphan an event.
    if (running_ && pendingEvent_ == firing)
        pendingEvent_ = sim_.scheduleAfter(period_, [this] { fire(); });
}

} // namespace c4
