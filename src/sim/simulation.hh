/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulation owns a time-ordered event queue. Events are arbitrary
 * callbacks scheduled at absolute ticks; ties are broken by insertion
 * order (FIFO), which makes runs fully deterministic. Events can be
 * cancelled in O(1) through the handle returned at scheduling time.
 *
 * Engine internals (see DESIGN.md "engine internals" for the full
 * story): event state lives in a slab of reusable slots (freelist, no
 * per-event heap allocation on the steady path), callbacks are stored
 * in a fixed-size inline buffer (EventFn) instead of std::function,
 * and the ready queue is a flat binary heap over struct-of-arrays
 * (when, seq, slot) keys. The heap is indexed: every slot records its
 * position in the heap, so a pending event can be re-keyed in place
 * (rearmAt). Handles are generation-tagged slot references, so a
 * stale handle to a fired or cancelled event can never touch a
 * recycled slot.
 */

#ifndef MICROSCALE_SIM_SIMULATION_HH
#define MICROSCALE_SIM_SIMULATION_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace microscale::sim
{

/**
 * A non-allocating move-only callable of signature void().
 *
 * Callables up to kInlineBytes that are nothrow-move-constructible are
 * stored inline; anything larger falls back to a single heap box. The
 * dominant event kinds (compute completions, timers, arrivals, network
 * deliveries, context switches) capture a few pointers and integers
 * and always take the inline path, which is what makes the steady
 * state of the event core allocation-free.
 */
class EventFn
{
  public:
    /** Inline capture budget; sized for the hot-path lambdas. */
    static constexpr std::size_t kInlineBytes = 48;

    EventFn() = default;
    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    ~EventFn() { reset(); }

    /** Construct from any void() callable. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        emplace(std::forward<F>(f));
    }

    /** Replace the callable (destroying any current one). */
    template <typename F>
    void emplace(F &&f)
    {
        reset();
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            new (buf_) D(std::forward<F>(f));
            invoke_ = [](void *p) { (*asObj<D>(p))(); };
            if constexpr (!std::is_trivially_copyable_v<D>) {
                move_ = [](void *dst, void *src) {
                    D *s = asObj<D>(src);
                    new (dst) D(std::move(*s));
                    s->~D();
                };
            }
            if constexpr (!std::is_trivially_destructible_v<D>) {
                destroy_ = [](void *p) { asObj<D>(p)->~D(); };
            }
        } else {
            // Oversized or throwing-move capture: one heap box.
            D *box = new D(std::forward<F>(f));
            std::memcpy(buf_, &box, sizeof(box));
            invoke_ = [](void *p) {
                D *b;
                std::memcpy(&b, p, sizeof(b));
                (*b)();
            };
            destroy_ = [](void *p) {
                D *b;
                std::memcpy(&b, p, sizeof(b));
                delete b;
            };
        }
    }

    /** Destroy the callable; the EventFn becomes empty. */
    void reset()
    {
        if (destroy_)
            destroy_(buf_);
        invoke_ = nullptr;
        move_ = nullptr;
        destroy_ = nullptr;
    }

    /** True while a callable is held. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Invoke. The callable stays valid until reset/destruction. */
    void operator()() { invoke_(buf_); }

  private:
    template <typename D>
    static D *asObj(void *p)
    {
        return std::launder(reinterpret_cast<D *>(p));
    }

    void moveFrom(EventFn &o) noexcept
    {
        invoke_ = o.invoke_;
        move_ = o.move_;
        destroy_ = o.destroy_;
        if (invoke_) {
            if (move_)
                move_(buf_, o.buf_);
            else
                std::memcpy(buf_, o.buf_, kInlineBytes);
        }
        o.invoke_ = nullptr;
        o.move_ = nullptr;
        o.destroy_ = nullptr;
    }

    using InvokeFn = void (*)(void *);
    using MoveFn = void (*)(void *, void *);
    using DestroyFn = void (*)(void *);

    InvokeFn invoke_ = nullptr;
    /** Non-null only for inline callables that need a real move. */
    MoveFn move_ = nullptr;
    /** Non-null only when destruction is non-trivial (or heap-boxed). */
    DestroyFn destroy_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

class Simulation;

/**
 * Handle to a scheduled event; allows O(1) cancellation and liveness
 * query. Copies share the underlying event via the (slot, generation)
 * tag: once the event fires or is cancelled the slot's generation
 * moves on and every outstanding handle reports not-pending. A
 * default-constructed handle is inert. Handles do not keep the
 * Simulation alive; do not use one after its Simulation is destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. */
    inline void cancel();

    /** True while the event is scheduled and not cancelled. */
    inline bool pending() const;

    /** Scheduled tick (0 once fired/cancelled or when inert). */
    inline Tick when() const;

  private:
    friend class Simulation;
    EventHandle(Simulation *sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen)
    {
    }

    Simulation *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The event-driven simulation kernel.
 */
class Simulation
{
  public:
    Simulation() = default;
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule `fn` at absolute time `when` (must be >= now).
     * @param background background events (periodic ticks, samplers)
     *        do not keep run() alive: run() returns once only
     *        background events remain.
     */
    template <typename F>
    EventHandle scheduleAt(Tick when, F &&fn, bool background = false)
    {
        if (when < now_)
            MS_PANIC("scheduling event in the past: ", when, " < ", now_);
        if (callableEmpty(fn))
            MS_PANIC("scheduling empty callback");
        const std::uint32_t slot = allocSlot();
        EventSlot &s = slots_[slot];
        // An EventFn argument (call sites that take the callback as a
        // parameter and forward it) moves straight into the slot;
        // nesting it through emplace() would heap-box it.
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
            s.fn = std::move(fn);
        else
            s.fn.emplace(std::forward<F>(fn));
        s.when = when;
        s.background = background;
        s.cancelled = false;
        s.live = true;
        const std::uint32_t gen = s.gen;
        ++live_events_;
        if (!background)
            ++foreground_pending_;
        heapPush(when, next_seq_++, slot);
        return EventHandle(this, slot, gen);
    }

    /** Schedule `fn` after `delay` ticks from now. */
    template <typename F>
    EventHandle scheduleAfter(Tick delay, F &&fn, bool background = false)
    {
        return scheduleAt(now_ + delay, std::forward<F>(fn), background);
    }

    /**
     * Move a pending event to absolute time `when` (must be >= now),
     * keeping its callback and handle. The event takes a fresh seq,
     * exactly as cancel() followed by a new scheduleAt() would, so
     * same-tick ordering is identical to that pair; it only saves the
     * dead shell and the second slot.
     * @return false (and does nothing) when the handle is inert,
     *         stale, fired or cancelled.
     */
    bool rearmAt(const EventHandle &handle, Tick when);

    /**
     * Run until no foreground events remain or stop() is called.
     * Pending background events (periodic ticks) do not keep the
     * simulation alive.
     * @return the final simulated time.
     */
    Tick run();

    /**
     * Process all events with tick <= `until`, then set now to `until`.
     * @return the final simulated time (== until unless stopped).
     */
    Tick runUntil(Tick until);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopping_ = true; }

    /** Number of events executed so far. */
    std::uint64_t eventsProcessed() const { return events_processed_; }

    /**
     * Number of live pending events: scheduled, not yet fired and not
     * cancelled. Cancelled shells still awaiting lazy removal from the
     * heap are NOT counted (they are bookkeeping, not behavior).
     */
    std::size_t queuedEvents() const { return live_events_; }

    /**
     * Live pending foreground events — the ones that keep run() going.
     * Zero after run() returns: the chaos harness asserts this as its
     * drained-world invariant (background timers may still be queued).
     */
    std::uint64_t foregroundQueued() const { return foreground_pending_; }

    /** Event slots currently allocated in the slab (capacity probe). */
    std::size_t slabSlots() const { return slots_.size(); }

    /**
     * Test hook: true when the heap is ordered by (when, seq) and every
     * heap entry's slot records that entry's position.
     */
    bool heapConsistent() const;

  private:
    friend class EventHandle;

    struct EventSlot
    {
        EventFn fn;
        Tick when = 0;
        /** Bumped on release; stale handles compare unequal. */
        std::uint32_t gen = 0;
        std::uint32_t next_free = kNoSlot;
        /** Index of this event's heap entry while it has one. */
        std::uint32_t heap_pos = kNoSlot;
        bool background = false;
        bool cancelled = false;
        /** Scheduled (heap shell exists) and not yet released. */
        bool live = false;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    template <typename F>
    static bool callableEmpty(const F &f)
    {
        if constexpr (std::is_constructible_v<bool, const F &>)
            return !static_cast<bool>(f);
        else
            return false;
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t slot);

    /** Handle plumbing (generation-checked). */
    bool handlePending(std::uint32_t slot, std::uint32_t gen) const;
    Tick handleWhen(std::uint32_t slot, std::uint32_t gen) const;
    void cancelEvent(std::uint32_t slot, std::uint32_t gen);

    /** Flat binary heap over (when, seq) with slot payload. */
    void heapPush(Tick when, std::uint64_t seq, std::uint32_t slot);
    void heapPopTop();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    static bool keyLess(Tick wa, std::uint64_t sa, Tick wb,
                        std::uint64_t sb)
    {
        return wa != wb ? wa < wb : sa < sb;
    }
    /** Write an entry at heap index `i` and record it in its slot. */
    void heapPlace(std::size_t i, Tick when, std::uint64_t seq,
                   std::uint32_t slot)
    {
        heap_when_[i] = when;
        heap_seq_[i] = seq;
        heap_slot_[i] = slot;
        slots_[slot].heap_pos = static_cast<std::uint32_t>(i);
    }

    /**
     * Drop cancelled shells when they dominate the heap, releasing
     * their slots. Triggered by counts only, so it is deterministic;
     * rebuilding cannot reorder pops because (when, seq) keys are
     * unique.
     */
    void maybeCompact();

    /** Pop and run a single event. @return false if queue was empty. */
    bool step();

    /** Event slab. */
    std::vector<EventSlot> slots_;
    std::uint32_t free_head_ = kNoSlot;

    /** Ready queue: struct-of-arrays keys of the binary heap. */
    std::vector<Tick> heap_when_;
    std::vector<std::uint64_t> heap_seq_;
    std::vector<std::uint32_t> heap_slot_;
    /** Cancelled shells still inside the heap (lazy deletion). */
    std::size_t cancelled_shells_ = 0;

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_processed_ = 0;
    std::uint64_t foreground_pending_ = 0;
    std::size_t live_events_ = 0;
    bool stopping_ = false;
};

inline void
EventHandle::cancel()
{
    if (sim_)
        sim_->cancelEvent(slot_, gen_);
    sim_ = nullptr;
}

inline bool
EventHandle::pending() const
{
    return sim_ && sim_->handlePending(slot_, gen_);
}

inline Tick
EventHandle::when() const
{
    return sim_ ? sim_->handleWhen(slot_, gen_) : 0;
}

/**
 * Utility that reschedules a callback at a fixed period until stopped.
 * Used for scheduler ticks, load-balancing passes and samplers.
 */
class PeriodicEvent
{
  public:
    PeriodicEvent() = default;

    /**
     * Start firing `fn` every `period`, with the first firing at
     * now + phase (phase defaults to one full period). Periodic
     * events are background: they do not keep Simulation::run()
     * alive on their own.
     */
    void start(Simulation &sim, Tick period, std::function<void()> fn,
               Tick phase = 0);

    /** Stop firing. Safe to call when not started. */
    void stop();

    /** True while active. */
    bool active() const { return active_; }

  private:
    void arm();

    Simulation *sim_ = nullptr;
    Tick period_ = 0;
    std::function<void()> fn_;
    EventHandle handle_;
    bool active_ = false;
};

} // namespace microscale::sim

#endif // MICROSCALE_SIM_SIMULATION_HH
