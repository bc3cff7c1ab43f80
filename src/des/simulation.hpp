#pragma once

/// \file simulation.hpp
/// Deterministic discrete-event simulation engine.
///
/// A Simulation owns a virtual clock (double seconds) and an event queue.
/// Events with equal timestamps fire in scheduling order (a monotone
/// sequence number breaks ties), which makes every experiment bit-for-bit
/// reproducible regardless of queue internals.
///
/// The queue itself is pluggable (des/event_queue.hpp): the default binary
/// heap, or a calendar queue for very large pending sets, selected via
/// Options. Both backends fire the exact same (time, id) sequence — the
/// golden digests (src/verify/) are backend-invariant by construction, and
/// CI diffs them to prove it.
///
/// Events are plain callbacks, stored in a paged arena indexed by id
/// (des/event_arena.hpp) with small-buffer callable storage
/// (des/small_fn.hpp): schedule and cancel are O(1) with no hashing and,
/// for ordinary captures, no allocation. Scheduling returns an EventId that
/// can cancel the event later. Cancel kills the id in the arena and leaves
/// its queue entry behind; dead entries are skipped when they reach the
/// top, and once the queue holds more than 2 x pending_count() +
/// kCompactionFloor entries, cancel drops them all (EventQueue::drop_dead).
/// Each such compaction removes at least half the entries it scans, so it
/// costs amortized O(1) per cancel, and the queue stays O(pending) even
/// when almost every scheduled event is cancelled before it fires.
///
/// An optional SimObserver receives schedule/fire/cancel notifications —
/// the verification layer (src/verify/) uses this to stream state digests
/// and invariant checks without touching the hot path, and the
/// observability layer chains the event-loop profiler (src/obs/profiler.hpp)
/// and the flight-recorder tracer (src/obs/tracer.hpp) through the same
/// slot. When no observer is registered the hooks cost a single never-taken
/// branch on a pointer the engine already has in cache.

#if defined(__FAST_MATH__)
#error "des/simulation relies on strict IEEE comparisons (event ordering, NaN rejection); build without -ffast-math"
#endif

#include <cstdint>
#include <memory>

#include "des/event_arena.hpp"
#include "des/event_queue.hpp"
#include "des/small_fn.hpp"

namespace ll::des {

/// Identifier of a scheduled event, usable with Simulation::cancel().
/// Id 0 is reserved and never issued (a default EventId is "no event").
/// Ids are issued densely (1, 2, 3, ...) — the digest layer and the event
/// arena both rely on that.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Passive observer of engine activity. Override only the hooks you need;
/// the defaults do nothing. `tag` is the caller-supplied label passed to
/// schedule_at/schedule_in (0 when the caller didn't tag the event) — the
/// verification digests fold (time, id, tag) of every fired event, so tags
/// let digests distinguish event *kinds* across refactors that renumber ids.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_schedule(double when, EventId id, std::uint64_t tag) {
    (void)when, (void)id, (void)tag;
  }
  virtual void on_fire(double time, EventId id, std::uint64_t tag) {
    (void)time, (void)id, (void)tag;
  }
  /// Fires after the event's callback returned (on_fire fires before it).
  /// The pair brackets the callback, which is what lets the event-loop
  /// profiler (src/obs/profiler.hpp) attribute wall-clock time to event
  /// tags. Not called when the callback throws — the digest/invariant
  /// contract of on_fire ("the fire happened") is unaffected either way.
  virtual void on_fire_done(double time, EventId id, std::uint64_t tag) {
    (void)time, (void)id, (void)tag;
  }
  virtual void on_cancel(EventId id, std::uint64_t tag) { (void)id, (void)tag; }
};

class Simulation {
 public:
  using Callback = SmallFn;

  /// Engine construction knobs. Every option preserves observable firing
  /// order — backends differ only in throughput.
  struct Options {
    QueueBackend queue = QueueBackend::kHeap;
  };

  Simulation() : Simulation(Options{}) {}
  explicit Simulation(const Options& options)
      : queue_(make_event_queue(options.queue)) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const { return now_; }

  /// Which queue backend this engine runs on.
  [[nodiscard]] QueueBackend queue_backend() const {
    return queue_->backend();
  }

  /// Schedules `fn` to run at absolute time `when` (>= now). Returns the
  /// event's id. Throws std::invalid_argument for events in the past or
  /// non-finite times. `tag` labels the event for observers (0 = untagged).
  EventId schedule_at(double when, Callback fn, std::uint64_t tag = 0);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0, finite).
  EventId schedule_in(double delay, Callback fn, std::uint64_t tag = 0);

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or kNoEvent id is a harmless no-op (returns false). May compact the
  /// queue (see the file comment); ids, counters, observer calls and the
  /// fire order are unaffected.
  bool cancel(EventId id);

  /// True if `id` is pending (scheduled, not fired, not cancelled).
  [[nodiscard]] bool pending(EventId id) const {
    return id != kNoEvent && arena_.live(id);
  }

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending_count() const { return pending_; }

  /// Runs until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Runs events with time <= horizon, then advances the clock to exactly
  /// `horizon` (even if the queue empties earlier). Returns events fired.
  /// Pinned edge case (tests/des/simulation_test.cpp): a callback firing at
  /// exactly `horizon` may schedule further events at exactly `horizon`;
  /// they fire within the same call (the queue is re-examined after every
  /// fire) and the clock still lands on exactly `horizon`.
  /// Throws std::invalid_argument for non-finite (NaN/±inf) or backward
  /// horizons; horizon == now() is a valid no-op that fires due events.
  std::size_t run_until(double horizon);

  /// Fires the single earliest event, if any. Returns whether one fired.
  bool step();

  /// Total number of events fired so far (monitoring / perf tests).
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Total number of events cancelled while still pending.
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

  /// Total number of events ever scheduled. Conservation invariant:
  /// events_scheduled() == events_fired() + events_cancelled() +
  /// pending_count().
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return next_id_ - 1;
  }

  /// Allocated slot capacity of the callback arena. Monitoring/test hook:
  /// the table must shrink back after a pending-set collapse — whether by
  /// cancel storm or by mass firing — instead of keeping its peak footprint
  /// for the rest of the run. The arena frees a 512-slot page the moment
  /// its last live event dies, so this tracks the pending population with
  /// one-page granularity.
  [[nodiscard]] std::size_t callback_buckets() const {
    return arena_.allocated_slots();
  }

  /// Queue entries held, live and dead. Monitoring/test hook: cancel keeps
  /// it at most 2 x pending_count() + kCompactionFloor, so a reschedule
  /// storm cannot fill the queue with dead entries.
  [[nodiscard]] std::size_t queued_entries() const { return queue_->size(); }

  /// Dead entries the queue may hold beyond 2 x pending_count() before
  /// cancel compacts it. Keeps small queues from compacting on every cancel.
  static constexpr std::size_t kCompactionFloor = 1024;

  /// Slots per arena page; peak callback_buckets() for N simultaneous
  /// events is ceil((N + 1) / kCallbackPageSlots) pages (id 0 is reserved,
  /// shifting ids by one slot). Pinned by the peak-footprint regression
  /// test.
  static constexpr std::size_t kCallbackPageSlots = EventArena::kPageSlots;

  /// Registers (or, with nullptr, detaches) the observer. Returns the
  /// previously registered observer so callers can restore it. The observer
  /// must outlive its registration; the engine does not own it.
  SimObserver* set_observer(SimObserver* observer);

  /// Currently registered observer, or nullptr.
  [[nodiscard]] SimObserver* observer() const { return observer_; }

 private:
  // Drops cancelled entries off the top; returns the earliest live entry,
  // or nullptr when the queue is exhausted. The pointer dies with the next
  // queue mutation, and a callback's schedule or cancel is one (cancel may
  // compact), so it is never held across a fire.
  const QueuedEvent* settle_top();

  double now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t pending_ = 0;
  SimObserver* observer_ = nullptr;
  std::unique_ptr<EventQueue> queue_;
  EventArena arena_;
};

}  // namespace ll::des
