#pragma once

/// \file event_queue.hpp
/// Pluggable priority-queue backends for the DES engine.
///
/// The Simulation (simulation.hpp) defines *what* fires — events in
/// (time, id) order, id monotone so equal timestamps fire FIFO — and the
/// EventQueue interface defines *how* the pending set is stored. Two
/// backends implement it:
///
///  * HeapEventQueue — the classic binary heap. O(log n) push/pop, no
///    tuning, the reference implementation every other backend must match
///    event-for-event.
///  * CalendarEventQueue — Brown's calendar queue: an array of bucketed
///    "days" of width w; an event at time t hashes to bucket
///    floor(t/w) mod nbuckets. With the bucket count and width tracking the
///    pending population, push and pop are amortized O(1), which is what
///    makes 100k-node scenarios with millions of pending events feasible.
///
/// Determinism contract (both backends, pinned by tests/des/ and the golden
/// digests): pops yield the exact (time, id)-sorted sequence of pushes.
/// Every structural decision in the calendar queue — bucket width, resize
/// thresholds, scan cursor — depends only on the sequence of push/pop calls,
/// never on wall-clock time or addresses, so reruns are byte-identical.
///
/// Cancellation: the engine cancels in O(1) by killing the id in its arena
/// (event_arena.hpp) and leaves the entry queued. A dead entry is dropped
/// either when it reaches the top (the engine skips it at pop time) or by
/// drop_dead(), which the engine calls once dead entries outnumber live
/// ones. drop_dead() removes only dead ids and keeps the (time, id) order
/// of the rest, so the pop sequence of live events is unchanged. Without
/// it, reschedule-heavy models would leave the calendar sizing its day
/// width from a mostly-dead population (DESIGN.md §12).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "des/event_arena.hpp"

namespace ll::des {

/// Which EventQueue implementation a Simulation uses. Selectable per
/// engine via Simulation::Options and per run via the `--queue` CLI flag.
enum class QueueBackend : std::uint8_t {
  kHeap,      ///< binary heap (reference backend)
  kCalendar,  ///< auto-resizing calendar queue
};

/// Parses "heap" / "calendar"; nullopt on anything else.
[[nodiscard]] std::optional<QueueBackend> parse_queue_backend(
    std::string_view name);

[[nodiscard]] std::string_view to_string(QueueBackend backend);

/// One pending entry. The tag travels in the event arena, not the queue:
/// keeping entries at 16 bytes doubles how many fit a cache line during
/// heap sift / bucket scans.
struct QueuedEvent {
  double time;
  std::uint64_t id;

  /// Min-first total order: (time, id) with id monotone, so FIFO among
  /// equal timestamps. Written as two strict comparisons (not `!=`) so the
  /// order stays total even under compilers that relax floating-point
  /// equality (the engine additionally rejects NaN before any push).
  [[nodiscard]] bool before(const QueuedEvent& other) const {
    if (time < other.time) return true;
    if (time > other.time) return false;
    return id < other.id;
  }
};

/// Minimal min-queue interface the engine drives. Implementations must be
/// deterministic functions of the push/pop call sequence.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(double time, std::uint64_t id) = 0;

  /// Earliest entry, or nullptr when empty. The pointer is invalidated by
  /// the next push/pop. Non-const: backends may settle internal cursors.
  [[nodiscard]] virtual const QueuedEvent* peek() = 0;

  /// Removes the earliest entry. Precondition: peek() != nullptr.
  virtual void pop() = 0;

  /// Removes every entry whose id is no longer live in `arena` (cancelled
  /// events), in O(size()). Surviving entries keep their (time, id) order.
  /// Invalidates the pointer peek() returned, like push/pop.
  virtual void drop_dead(const EventArena& arena) = 0;

  /// Entries held, live and dead.
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual QueueBackend backend() const = 0;
};

[[nodiscard]] std::unique_ptr<EventQueue> make_event_queue(
    QueueBackend backend);

/// Binary heap over QueuedEvent. The reference backend.
class HeapEventQueue final : public EventQueue {
 public:
  void push(double time, std::uint64_t id) override;
  [[nodiscard]] const QueuedEvent* peek() override;
  void pop() override;
  void drop_dead(const EventArena& arena) override;
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }
  [[nodiscard]] QueueBackend backend() const override {
    return QueueBackend::kHeap;
  }

 private:
  std::vector<QueuedEvent> heap_;  // min-heap via before()
};

/// Auto-resizing calendar queue.
///
/// Layout: nbuckets (power of two) buckets; an event at time t lives in
/// bucket floor(t/width) & (nbuckets-1). Each bucket is one UNSORTED
/// cache-line-sized day (up to 3 inline events, rare spills to a heap
/// block), so the common push touches exactly one line. A virtual-bucket
/// cursor walks "days"; settling scans the cursor's bucket for its minimum
/// due entry — ~1-2 events by the width policy — and pop removes it by
/// swap-with-back. The (time, id) order is strictly total, so the minimum
/// is unique and the pop sequence is identical to a sorted layout's.
/// Pushing an event earlier than the cursor rewinds the cursor (the
/// classic missed-bucket bug); a full lap without finding a due event
/// falls back to a direct min scan and teleports the cursor (handles
/// sparse far-future tails).
///
/// Resize policy keeps amortized O(1): grow (double) when the population
/// exceeds 2x nbuckets, shrink (halve) when it drops under nbuckets/2,
/// with the width re-estimated from the population's time span at each
/// rebuild — all pure functions of the operation sequence (drop_dead
/// calls included), so deterministic.
///
/// Known worst case (documented, accepted): a population where nearly all
/// pending events share one timestamp lands in one bucket, degrading the
/// due-day scan to O(bucket). Real simulations schedule on continuous
/// doubles where exact collisions are rare; the heap backend is the right
/// tool for adversarial collision-heavy workloads.
class CalendarEventQueue final : public EventQueue {
 public:
  CalendarEventQueue();

  void push(double time, std::uint64_t id) override;
  [[nodiscard]] const QueuedEvent* peek() override;
  void pop() override;
  /// Filters each bucket in place, then rebuilds at the bucket count the
  /// resize policy implies for the survivors, which re-estimates the width
  /// from their span.
  void drop_dead(const EventArena& arena) override;
  [[nodiscard]] std::size_t size() const override { return count_; }
  [[nodiscard]] QueueBackend backend() const override {
    return QueueBackend::kCalendar;
  }

  /// Structure introspection for tests (resize determinism, bucket policy).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] double bucket_width() const { return width_; }

  static constexpr std::size_t kMinBuckets = 16;

 private:
  /// One calendar day, sized and aligned to a single cache line: up to
  /// kInline events live inline, so the common push touches exactly one
  /// line (the sorted vector-of-vectors layout paid 3-4 dependent far
  /// loads per push and lost to the heap at 1M pending). Overcrowded days
  /// spill to a heap block; the width policy targets ~1 event per day, so
  /// spills are the tail, not the norm.
  struct alignas(64) Bucket {
    static constexpr std::uint32_t kInline = 3;

    std::uint32_t size = 0;
    std::uint32_t cap = 0;        // heap capacity; 0 => inline storage
    QueuedEvent* spill = nullptr;  // valid iff cap > 0
    QueuedEvent inl[kInline];

    Bucket() = default;
    Bucket(Bucket&& other) noexcept { *this = std::move(other); }
    Bucket& operator=(Bucket&& other) noexcept;
    Bucket(const Bucket&) = delete;
    Bucket& operator=(const Bucket&) = delete;
    ~Bucket() { delete[] spill; }

    [[nodiscard]] const QueuedEvent* data() const {
      return cap != 0 ? spill : inl;
    }
    [[nodiscard]] QueuedEvent* data() { return cap != 0 ? spill : inl; }

    void append(const QueuedEvent& event);
    /// Swap-with-back removal (buckets are unsorted).
    void remove(std::size_t index) {
      QueuedEvent* d = data();
      d[index] = d[size - 1];
      --size;
    }
  };
  static_assert(sizeof(Bucket) == 64, "Bucket must stay one cache line");

  [[nodiscard]] std::uint64_t virtual_bucket(double time) const;
  void settle_head();
  void rebuild(std::size_t new_bucket_count);

  std::vector<Bucket> buckets_;
  std::size_t mask_ = kMinBuckets - 1;  // buckets_.size() - 1
  double width_ = 1.0;
  double inv_width_ = 1.0;  // 1/width_: day mapping multiplies, never divides
  std::uint64_t cursor_ = 0;  // virtual bucket the scan is positioned on
  std::size_t count_ = 0;
  QueuedEvent head_{};        // cached minimum, valid iff head_valid_
  std::size_t head_index_ = 0;  // head_'s slot in the cursor's bucket
  bool head_valid_ = false;
};

}  // namespace ll::des
