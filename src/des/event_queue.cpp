#include "des/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ll::des {

std::optional<QueueBackend> parse_queue_backend(std::string_view name) {
  if (name == "heap") return QueueBackend::kHeap;
  if (name == "calendar") return QueueBackend::kCalendar;
  return std::nullopt;
}

std::string_view to_string(QueueBackend backend) {
  switch (backend) {
    case QueueBackend::kHeap:
      return "heap";
    case QueueBackend::kCalendar:
      return "calendar";
  }
  return "?";
}

std::unique_ptr<EventQueue> make_event_queue(QueueBackend backend) {
  if (backend == QueueBackend::kCalendar) {
    return std::make_unique<CalendarEventQueue>();
  }
  return std::make_unique<HeapEventQueue>();
}

namespace {

// std::push_heap/pop_heap build a max-heap; invert before() for a min-heap.
struct HeapAfter {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
    return b.before(a);
  }
};

}  // namespace

void HeapEventQueue::push(double time, std::uint64_t id) {
  heap_.push_back(QueuedEvent{time, id});
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
}

const QueuedEvent* HeapEventQueue::peek() {
  return heap_.empty() ? nullptr : &heap_.front();
}

void HeapEventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
  heap_.pop_back();
}

void HeapEventQueue::drop_dead(const EventArena& arena) {
  std::erase_if(heap_,
                [&arena](const QueuedEvent& e) { return !arena.live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), HeapAfter{});
}

CalendarEventQueue::CalendarEventQueue() : buckets_(kMinBuckets) {}

CalendarEventQueue::Bucket& CalendarEventQueue::Bucket::operator=(
    Bucket&& other) noexcept {
  if (this != &other) {
    delete[] spill;
    size = other.size;
    cap = other.cap;
    spill = other.spill;
    for (std::uint32_t i = 0; i < kInline; ++i) inl[i] = other.inl[i];
    other.size = 0;
    other.cap = 0;
    other.spill = nullptr;
  }
  return *this;
}

void CalendarEventQueue::Bucket::append(const QueuedEvent& event) {
  if (cap == 0) {
    if (size < kInline) {
      inl[size++] = event;
      return;
    }
    // First spill: move the inline entries to a heap block.
    cap = 2 * kInline;
    spill = new QueuedEvent[cap];
    for (std::uint32_t i = 0; i < kInline; ++i) spill[i] = inl[i];
  } else if (size == cap) {
    const std::uint32_t new_cap = 2 * cap;
    auto* grown = new QueuedEvent[new_cap];
    for (std::uint32_t i = 0; i < size; ++i) grown[i] = spill[i];
    delete[] spill;
    spill = grown;
    cap = new_cap;
  }
  spill[size++] = event;
}

std::uint64_t CalendarEventQueue::virtual_bucket(double time) const {
  // Times are finite and non-negative (the engine rejects everything else
  // before pushing). The day mapping multiplies by the cached reciprocal —
  // any monotone mapping works as long as push and settle use the *same*
  // one, and a multiply is ~15ns cheaper than a divide on the hot path.
  // Far-future days that would overflow the 64-bit day index collapse into
  // one saturated day: the due-scan's min selection and the direct-scan
  // fallback keep pops correct, just not O(1), for that pathological tail.
  const double day = time * inv_width_;
  constexpr double kSaturate = 9.0e18;
  if (day >= kSaturate) return static_cast<std::uint64_t>(kSaturate);
  return static_cast<std::uint64_t>(day);
}

void CalendarEventQueue::push(double time, std::uint64_t id) {
  const QueuedEvent event{time, id};
  const std::uint64_t day = virtual_bucket(time);
  if (count_ == 0) {
    cursor_ = day;
  } else if (day < cursor_) {
    // Rewind: the new event is due before the scan position. Without this
    // the cursor would lap the whole calendar before noticing it.
    cursor_ = day;
    head_valid_ = false;
  } else if (head_valid_ && event.before(head_)) {
    // Earlier than the cached minimum but not before the cursor: same day,
    // same bucket — it becomes the new head, appended at the back.
    head_ = event;
    head_index_ = buckets_[static_cast<std::size_t>(day) & mask_].size;
  }
  // Unsorted append into the day's cache line (rarely, its spill block).
  buckets_[static_cast<std::size_t>(day) & mask_].append(event);
  ++count_;
  if (count_ > 2 * buckets_.size()) rebuild(2 * buckets_.size());
}

void CalendarEventQueue::settle_head() {
  // Walk days from the cursor; scan each bucket for its minimum entry that
  // is due on (or before) the current day. Buckets hold a couple of events
  // by construction, so the scan is one or two cache lines. One full lap
  // without a hit means the next event is at least a calendar year away —
  // find it directly and teleport the cursor to its day.
  for (std::size_t step = 0; step <= mask_; ++step) {
    const Bucket& bucket = buckets_[static_cast<std::size_t>(cursor_) & mask_];
    const QueuedEvent* entries = bucket.data();
    const QueuedEvent* best = nullptr;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < bucket.size; ++i) {
      const QueuedEvent& e = entries[i];
      if (virtual_bucket(e.time) <= cursor_ &&
          (best == nullptr || e.before(*best))) {
        best = &e;
        best_index = i;
      }
    }
    if (best != nullptr) {
      head_ = *best;
      head_index_ = best_index;
      head_valid_ = true;
      return;
    }
    ++cursor_;
  }
  const QueuedEvent* best = nullptr;
  std::size_t best_index = 0;
  for (const Bucket& bucket : buckets_) {
    const QueuedEvent* entries = bucket.data();
    for (std::size_t i = 0; i < bucket.size; ++i) {
      if (best == nullptr || entries[i].before(*best)) {
        best = &entries[i];
        best_index = i;
      }
    }
  }
  head_ = *best;  // count_ > 0 guarantees best != nullptr
  head_index_ = best_index;  // pop resolves the bucket via the new cursor
  head_valid_ = true;
  cursor_ = virtual_bucket(best->time);
}

const QueuedEvent* CalendarEventQueue::peek() {
  if (count_ == 0) return nullptr;
  if (!head_valid_) settle_head();
  return &head_;
}

void CalendarEventQueue::pop() {
  if (!head_valid_) settle_head();
  // Remove the settled head by swap-with-back: buckets are unsorted, and
  // pushes since the settle only appended (head_index_ stays valid; on an
  // append that beat the head, push re-pointed head_index_ at it).
  buckets_[static_cast<std::size_t>(cursor_) & mask_].remove(head_index_);
  --count_;
  head_valid_ = false;
  if (count_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
    rebuild(buckets_.size() / 2);
  }
}

void CalendarEventQueue::drop_dead(const EventArena& arena) {
  for (Bucket& bucket : buckets_) {
    QueuedEvent* entries = bucket.data();
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < bucket.size; ++i) {
      if (arena.live(entries[i].id)) entries[kept++] = entries[i];
    }
    count_ -= bucket.size - kept;
    bucket.size = kept;
  }
  std::size_t bucket_count = buckets_.size();
  while (count_ < bucket_count / 2 && bucket_count > kMinBuckets) {
    bucket_count /= 2;
  }
  rebuild(bucket_count);
}

void CalendarEventQueue::rebuild(std::size_t new_bucket_count) {
  std::vector<QueuedEvent> all;
  all.reserve(count_);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Bucket& bucket : buckets_) {
    const QueuedEvent* entries = bucket.data();
    for (std::size_t i = 0; i < bucket.size; ++i) {
      const QueuedEvent& e = entries[i];
      lo = std::min(lo, e.time);
      hi = std::max(hi, e.time);
      all.push_back(e);
    }
  }
  buckets_ = std::vector<Bucket>(new_bucket_count);
  mask_ = new_bucket_count - 1;
  // Width ~= the mean inter-event gap: ~1 event per day, so the common
  // push stays inside one inline cache line and the day scan meets work on
  // nearly every step. A degenerate span (all events simultaneous) keeps
  // the previous width.
  if (count_ > 1 && hi > lo) {
    const double span = hi - lo;
    width_ = std::max(span / static_cast<double>(count_),
                      hi / 9.0e15);  // keep day indices within 64 bits
    inv_width_ = 1.0 / width_;
  }
  if (count_ > 0) {
    cursor_ = virtual_bucket(lo);
  }
  head_valid_ = false;
  for (const QueuedEvent& e : all) {
    buckets_[static_cast<std::size_t>(virtual_bucket(e.time)) & mask_].append(
        e);
  }
}

}  // namespace ll::des
