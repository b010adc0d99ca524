#include "sim/simulation.hh"

#include <utility>

namespace microscale::sim
{

std::uint32_t
Simulation::allocSlot()
{
    if (free_head_ != kNoSlot) {
        const std::uint32_t slot = free_head_;
        free_head_ = slots_[slot].next_free;
        slots_[slot].next_free = kNoSlot;
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
Simulation::releaseSlot(std::uint32_t slot)
{
    EventSlot &s = slots_[slot];
    s.fn.reset();
    s.live = false;
    s.cancelled = false;
    s.heap_pos = kNoSlot;
    // Stale handles must observe a different generation from now on.
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
}

bool
Simulation::handlePending(std::uint32_t slot, std::uint32_t gen) const
{
    const EventSlot &s = slots_[slot];
    return s.gen == gen && s.live && !s.cancelled;
}

Tick
Simulation::handleWhen(std::uint32_t slot, std::uint32_t gen) const
{
    const EventSlot &s = slots_[slot];
    return (s.gen == gen && s.live) ? s.when : 0;
}

void
Simulation::cancelEvent(std::uint32_t slot, std::uint32_t gen)
{
    EventSlot &s = slots_[slot];
    if (s.gen != gen || !s.live || s.cancelled)
        return;
    s.cancelled = true;
    // Destroy the callback eagerly so captured resources are freed at
    // cancel time; the heap shell is dropped lazily at pop time.
    s.fn.reset();
    if (!s.background)
        --foreground_pending_;
    --live_events_;
    ++cancelled_shells_;
    maybeCompact();
}

bool
Simulation::rearmAt(const EventHandle &handle, Tick when)
{
    if (handle.sim_ != this ||
        !handlePending(handle.slot_, handle.gen_))
        return false;
    if (when < now_)
        MS_PANIC("rearming event into the past: ", when, " < ", now_);
    EventSlot &s = slots_[handle.slot_];
    const std::size_t pos = s.heap_pos;
    const Tick old_when = s.when;
    s.when = when;
    heap_when_[pos] = when;
    heap_seq_[pos] = next_seq_++;
    // The new seq is larger than any queued one, so the key moved
    // towards the root only if the tick did.
    if (when < old_when)
        siftUp(pos);
    else
        siftDown(pos);
    return true;
}

bool
Simulation::heapConsistent() const
{
    const std::size_t n = heap_when_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (slots_[heap_slot_[i]].heap_pos != i)
            return false;
        if (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (keyLess(heap_when_[i], heap_seq_[i], heap_when_[parent],
                        heap_seq_[parent]))
                return false;
        }
    }
    return true;
}

void
Simulation::heapPush(Tick when, std::uint64_t seq, std::uint32_t slot)
{
    heap_when_.push_back(when);
    heap_seq_.push_back(seq);
    heap_slot_.push_back(slot);
    siftUp(heap_when_.size() - 1);
}

void
Simulation::siftUp(std::size_t i)
{
    // Hole-based: parents move down into the hole, the entry is
    // written once at its final position.
    const Tick when = heap_when_[i];
    const std::uint64_t seq = heap_seq_[i];
    const std::uint32_t slot = heap_slot_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!keyLess(when, seq, heap_when_[parent], heap_seq_[parent]))
            break;
        heapPlace(i, heap_when_[parent], heap_seq_[parent],
                  heap_slot_[parent]);
        i = parent;
    }
    heapPlace(i, when, seq, slot);
}

void
Simulation::siftDown(std::size_t i)
{
    const std::size_t n = heap_when_.size();
    const Tick when = heap_when_[i];
    const std::uint64_t seq = heap_seq_[i];
    const std::uint32_t slot = heap_slot_[i];
    for (;;) {
        const std::size_t l = 2 * i + 1;
        if (l >= n)
            break;
        std::size_t best = l;
        const std::size_t r = l + 1;
        if (r < n && keyLess(heap_when_[r], heap_seq_[r], heap_when_[l],
                             heap_seq_[l]))
            best = r;
        if (!keyLess(heap_when_[best], heap_seq_[best], when, seq))
            break;
        heapPlace(i, heap_when_[best], heap_seq_[best], heap_slot_[best]);
        i = best;
    }
    heapPlace(i, when, seq, slot);
}

void
Simulation::heapPopTop()
{
    const std::size_t last = heap_when_.size() - 1;
    slots_[heap_slot_[0]].heap_pos = kNoSlot;
    if (last > 0) {
        heap_when_[0] = heap_when_[last];
        heap_seq_[0] = heap_seq_[last];
        heap_slot_[0] = heap_slot_[last];
    }
    heap_when_.pop_back();
    heap_seq_.pop_back();
    heap_slot_.pop_back();
    if (!heap_when_.empty())
        siftDown(0);
}

void
Simulation::maybeCompact()
{
    // Rebuild once cancelled shells dominate; the threshold keeps the
    // amortized cost O(1) per cancel, and the trigger depends only on
    // event counts so compaction points are deterministic. Rebuilding
    // cannot change pop order: (when, seq) keys are unique.
    if (cancelled_shells_ < 64 ||
        cancelled_shells_ * 2 < heap_when_.size())
        return;
    std::size_t out = 0;
    for (std::size_t i = 0; i < heap_when_.size(); ++i) {
        const std::uint32_t slot = heap_slot_[i];
        if (slots_[slot].cancelled) {
            releaseSlot(slot);
            continue;
        }
        heapPlace(out, heap_when_[i], heap_seq_[i], heap_slot_[i]);
        ++out;
    }
    heap_when_.resize(out);
    heap_seq_.resize(out);
    heap_slot_.resize(out);
    cancelled_shells_ = 0;
    // Floyd heapify: O(n) bottom-up restoration of the heap property.
    for (std::size_t i = out / 2; i-- > 0;)
        siftDown(i);
}

bool
Simulation::step()
{
    while (!heap_when_.empty()) {
        const std::uint32_t slot = heap_slot_[0];
        EventSlot &s = slots_[slot];
        if (s.cancelled) {
            heapPopTop();
            --cancelled_shells_;
            releaseSlot(slot);
            continue;
        }
        now_ = heap_when_[0];
        heapPopTop();
        if (!s.background)
            --foreground_pending_;
        --live_events_;
        // Move the callback out and release the slot BEFORE invoking:
        // the callback may schedule events, growing slots_ and
        // invalidating `s`.
        EventFn fn = std::move(s.fn);
        releaseSlot(slot);
        ++events_processed_;
        fn();
        return true;
    }
    return false;
}

Tick
Simulation::run()
{
    stopping_ = false;
    while (!stopping_ && foreground_pending_ > 0 && step()) {
    }
    return now_;
}

Tick
Simulation::runUntil(Tick until)
{
    if (until < now_)
        MS_PANIC("runUntil into the past: ", until, " < ", now_);
    stopping_ = false;
    while (!stopping_) {
        // Skip cancelled shells so the time check sees a live event.
        while (!heap_when_.empty()) {
            const std::uint32_t slot = heap_slot_[0];
            if (!slots_[slot].cancelled)
                break;
            heapPopTop();
            --cancelled_shells_;
            releaseSlot(slot);
        }
        if (heap_when_.empty() || heap_when_[0] > until)
            break;
        step();
    }
    if (!stopping_)
        now_ = until;
    return now_;
}

void
PeriodicEvent::start(Simulation &sim, Tick period,
                     std::function<void()> fn, Tick phase)
{
    if (period == 0)
        MS_PANIC("PeriodicEvent with zero period");
    stop();
    sim_ = &sim;
    period_ = period;
    fn_ = std::move(fn);
    active_ = true;
    if (phase == 0)
        phase = period_;
    handle_ = sim_->scheduleAfter(
        phase, [this] { arm(); }, /*background=*/true);
}

void
PeriodicEvent::stop()
{
    active_ = false;
    handle_.cancel();
}

void
PeriodicEvent::arm()
{
    if (!active_)
        return;
    fn_();
    if (active_) {
        handle_ = sim_->scheduleAfter(
            period_, [this] { arm(); }, /*background=*/true);
    }
}

} // namespace microscale::sim
