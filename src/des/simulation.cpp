#include "des/simulation.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace ll::des {

EventId Simulation::schedule_at(double when, Callback fn, std::uint64_t tag) {
  if (!std::isfinite(when)) {
    throw std::invalid_argument("schedule_at: non-finite time");
  }
  if (when < now_) {
    throw std::invalid_argument("schedule_at: time " + std::to_string(when) +
                                " is before now " + std::to_string(now_));
  }
  if (!fn) {
    throw std::invalid_argument("schedule_at: empty callback");
  }
  const EventId id = next_id_++;
  queue_->push(when, id);
  arena_.create(id, std::move(fn), tag);
  ++pending_;
  if (observer_) observer_->on_schedule(when, id, tag);
  return id;
}

EventId Simulation::schedule_in(double delay, Callback fn, std::uint64_t tag) {
  if (!std::isfinite(delay) || delay < 0.0) {
    throw std::invalid_argument("schedule_in: negative or non-finite delay");
  }
  return schedule_at(now_ + delay, std::move(fn), tag);
}

bool Simulation::cancel(EventId id) {
  if (id == kNoEvent || !arena_.live(id)) return false;
  std::uint64_t tag = 0;
  (void)arena_.take(id, tag);  // destroys the callback, frees the page
  --pending_;
  ++cancelled_;
  // Every live event has exactly one entry, so past this bound more than
  // half the entries are dead and dropping them all is amortized O(1).
  if (queue_->size() > 2 * pending_ + kCompactionFloor) {
    queue_->drop_dead(arena_);
  }
  if (observer_) observer_->on_cancel(id, tag);
  return true;
}

SimObserver* Simulation::set_observer(SimObserver* observer) {
  return std::exchange(observer_, observer);
}

const QueuedEvent* Simulation::settle_top() {
  const QueuedEvent* top;
  while ((top = queue_->peek()) != nullptr && !arena_.live(top->id)) {
    queue_->pop();  // lazily drop cancelled events
  }
  return top;
}

bool Simulation::step() {
  const QueuedEvent* top = settle_top();
  if (top == nullptr) return false;
  const QueuedEvent entry = *top;
  queue_->pop();
  std::uint64_t tag = 0;
  Callback fn = arena_.take(entry.id, tag);
  --pending_;
  now_ = entry.time;
  ++fired_;
  // Notify before invoking so the digest records the fire even if the
  // callback throws, and so observer state is current for re-entrant
  // schedule/cancel calls made from inside the callback.
  if (observer_) observer_->on_fire(entry.time, entry.id, tag);
  fn();
  // Re-read observer_: the callback may have re-registered or detached it.
  if (observer_) observer_->on_fire_done(entry.time, entry.id, tag);
  return true;
}

std::size_t Simulation::run() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulation::run_until(double horizon) {
  if (!std::isfinite(horizon)) {
    throw std::invalid_argument("run_until: non-finite horizon");
  }
  if (horizon < now_) {
    throw std::invalid_argument("run_until: horizon " +
                                std::to_string(horizon) + " is before now " +
                                std::to_string(now_));
  }
  std::size_t fired = 0;
  const QueuedEvent* top;
  while ((top = settle_top()) != nullptr && top->time <= horizon) {
    step();
    ++fired;
  }
  now_ = horizon;
  return fired;
}

}  // namespace ll::des
