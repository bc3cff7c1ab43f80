/// Calendar-queue edge cases and heap/calendar equivalence.
///
/// The calendar backend must be observationally identical to the heap
/// backend: same fire sequence (time, id, tag), same throw behavior, same
/// counters — only throughput may differ. These tests pin the edge cases
/// where calendar queues classically go wrong: equal-timestamp ordering,
/// events pushed into a bucket "behind" the scan cursor, cancellations of
/// such events, and mid-run bucket resizes.

#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "rng/rng.hpp"

namespace ll::des {
namespace {

Simulation::Options with_backend(QueueBackend backend) {
  Simulation::Options options;
  options.queue = backend;
  return options;
}

TEST(QueueBackendName, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_queue_backend("heap"), QueueBackend::kHeap);
  EXPECT_EQ(parse_queue_backend("calendar"), QueueBackend::kCalendar);
  EXPECT_EQ(parse_queue_backend("splay"), std::nullopt);
  EXPECT_EQ(parse_queue_backend(""), std::nullopt);
  EXPECT_EQ(to_string(QueueBackend::kHeap), "heap");
  EXPECT_EQ(to_string(QueueBackend::kCalendar), "calendar");
}

TEST(QueueBackendName, SimulationReportsItsBackend) {
  Simulation heap;
  EXPECT_EQ(heap.queue_backend(), QueueBackend::kHeap);
  Simulation calendar(with_backend(QueueBackend::kCalendar));
  EXPECT_EQ(calendar.queue_backend(), QueueBackend::kCalendar);
}

// Records the full fire sequence of a simulation run, (time, id)-tagged.
struct FireLog final : SimObserver {
  struct Rec {
    double time;
    EventId id;
    std::uint64_t tag;
    bool operator==(const Rec&) const = default;
  };
  std::vector<Rec> recs;
  void on_fire(double time, EventId id, std::uint64_t tag) override {
    recs.push_back({time, id, tag});
  }
};

// Replays one deterministic random schedule/cancel/advance script against a
// backend and returns the complete fire sequence.
std::vector<FireLog::Rec> replay_script(QueueBackend backend,
                                        std::uint64_t seed) {
  Simulation sim(with_backend(backend));
  FireLog log;
  sim.set_observer(&log);
  rng::Stream rng(seed);
  std::vector<EventId> live;
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.6) {
      // Coarse time grid (quarter steps over a short range) forces heavy
      // timestamp collisions — the equal-time FIFO tiebreak must hold.
      const double t =
          sim.now() + static_cast<double>(rng.uniform_index(40)) * 0.25;
      live.push_back(sim.schedule_at(t, [] {}, rng.uniform_index(5)));
    } else if (roll < 0.75 && !live.empty()) {
      sim.cancel(live[rng.uniform_index(live.size())]);
    } else {
      sim.run_until(sim.now() +
                    static_cast<double>(rng.uniform_index(20)) * 0.25);
    }
  }
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.events_scheduled(),
            sim.events_fired() + sim.events_cancelled());
  return log.recs;
}

TEST(CalendarQueue, PropertyFullFireSequenceMatchesHeap) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto heap = replay_script(QueueBackend::kHeap, seed);
    const auto calendar = replay_script(QueueBackend::kCalendar, seed);
    ASSERT_EQ(heap, calendar) << "backends diverged at seed " << seed;
  }
}

TEST(CalendarQueue, EqualTimestampsFireInScheduleOrder) {
  Simulation sim(with_backend(QueueBackend::kCalendar));
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(CalendarQueue, PushIntoPastBucketStillFiresFirst) {
  // Settling the scan cursor on a far-future day and then pushing an
  // earlier event exercises the cursor rewind: without it the queue would
  // lap the whole calendar (or worse, fire out of order).
  Simulation sim(with_backend(QueueBackend::kCalendar));
  std::vector<double> fired;
  sim.schedule_at(1000.0, [&] { fired.push_back(sim.now()); });
  sim.run_until(900.0);  // peeks: cursor advances toward day(1000)
  sim.schedule_at(950.0, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{950.0, 1000.0}));
}

TEST(CalendarQueue, CancelOfPendingInPastBucketIsHonored) {
  Simulation sim(with_backend(QueueBackend::kCalendar));
  bool late_fired = false;
  bool victim_fired = false;
  sim.schedule_at(1000.0, [&] { late_fired = true; });
  sim.run_until(900.0);
  const EventId victim = sim.schedule_at(950.0, [&] { victim_fired = true; });
  EXPECT_TRUE(sim.pending(victim));
  EXPECT_TRUE(sim.cancel(victim));
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1000.0);
}

TEST(CalendarQueue, NanAndInfRejectionMatchesHeap) {
  for (const QueueBackend backend :
       {QueueBackend::kHeap, QueueBackend::kCalendar}) {
    Simulation sim(with_backend(backend));
    EXPECT_THROW(
        sim.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
        std::invalid_argument);
    EXPECT_THROW(
        sim.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
        std::invalid_argument);
    EXPECT_THROW(
        sim.schedule_at(-std::numeric_limits<double>::infinity(), [] {}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sim.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sim.run_until(std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
    // Rejection happens before the queue sees anything: state is untouched.
    EXPECT_EQ(sim.events_scheduled(), 0u);
    EXPECT_EQ(sim.pending_count(), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  }
}

TEST(CalendarQueue, ResizesWhilePopulationGrowsAndDrains) {
  CalendarEventQueue q;
  const std::size_t initial = q.bucket_count();
  EXPECT_EQ(initial, CalendarEventQueue::kMinBuckets);
  for (std::uint64_t id = 1; id <= 10000; ++id) {
    q.push(static_cast<double>(id % 997), id);
  }
  EXPECT_GT(q.bucket_count(), initial);  // grew with the population
  const std::size_t peak_buckets = q.bucket_count();
  double last = -1.0;
  std::uint64_t last_id = 0;
  while (const QueuedEvent* top = q.peek()) {
    // Strict (time, id) order across every grow/shrink boundary.
    ASSERT_TRUE(top->time > last || (top->time == last && top->id > last_id));
    last = top->time;
    last_id = top->id;
    q.pop();
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_LT(q.bucket_count(), peak_buckets);  // shrank back on the drain
  EXPECT_EQ(q.bucket_count(), CalendarEventQueue::kMinBuckets);
}

TEST(CalendarQueue, BucketResizeMidRunIsDeterministic) {
  // Two identical runs through grow and shrink thresholds must produce the
  // same fire sequence AND the same final structure: resize decisions are a
  // pure function of the operation sequence.
  auto run_once = [](QueueBackend backend) {
    Simulation sim(with_backend(backend));
    FireLog log;
    sim.set_observer(&log);
    rng::Stream rng(7);
    std::vector<EventId> ids;
    // Grow: a burst far above the 2x-buckets threshold.
    for (int i = 0; i < 5000; ++i) {
      ids.push_back(sim.schedule_at(
          static_cast<double>(rng.uniform_index(2000)) * 0.5, [] {}));
    }
    // Drain halfway (shrink threshold crossings), then burst again.
    sim.run_until(500.0);
    for (int i = 0; i < 2000; ++i) {
      ids.push_back(sim.schedule_at(
          500.0 + static_cast<double>(rng.uniform_index(1000)) * 0.25, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run();
    return log.recs;
  };
  const auto first = run_once(QueueBackend::kCalendar);
  const auto second = run_once(QueueBackend::kCalendar);
  EXPECT_EQ(first, second);
  // And the heap backend agrees on the same script.
  EXPECT_EQ(run_once(QueueBackend::kHeap), first);
}

TEST(CalendarQueue, DropDeadRebuildsAtThePolicyBucketCount) {
  // Compaction leaves the survivors within the resize policy's band
  // [buckets/2, 2 x buckets], so the calendar shrinks with them, and they
  // still pop in (time, id) order.
  CalendarEventQueue q;
  EventArena arena;
  std::vector<std::uint64_t> survivors;
  for (std::uint64_t id = 1; id <= 20000; ++id) {
    q.push(static_cast<double>((id * 7919) % 4000) * 0.25, id);
    arena.create(id, [] {}, 0);
  }
  const std::size_t peak_buckets = q.bucket_count();
  for (std::uint64_t id = 1; id <= 20000; ++id) {
    std::uint64_t tag = 0;
    if (id % 50 == 0) {
      survivors.push_back(id);
    } else {
      (void)arena.take(id, tag);
    }
  }
  q.drop_dead(arena);
  EXPECT_EQ(q.size(), survivors.size());
  EXPECT_LT(q.bucket_count(), peak_buckets);
  EXPECT_GE(q.size(), q.bucket_count() / 2);
  EXPECT_LE(q.size(), 2 * q.bucket_count());
  std::vector<std::uint64_t> popped;
  double last = -1.0;
  std::uint64_t last_id = 0;
  while (const QueuedEvent* top = q.peek()) {
    ASSERT_TRUE(top->time > last || (top->time == last && top->id > last_id));
    last = top->time;
    last_id = top->id;
    popped.push_back(top->id);
    q.pop();
  }
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, survivors);
}

TEST(CalendarQueue, SparseFarFutureTailUsesDirectScanCorrectly) {
  // Events many calendar years apart force the full-lap fallback: the scan
  // gives up after one lap and teleports to the true minimum.
  Simulation sim(with_backend(QueueBackend::kCalendar));
  std::vector<double> fired;
  for (const double t : {1e6, 3.0, 7e4, 0.5, 42.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 3.0, 42.0, 7e4, 1e6}));
}

TEST(EventArena, PeakFootprintIsPinnedAndPagesFreeOnDeath) {
  // Satellite regression: peak callback capacity for N pending events is
  // exactly ceil((N + 1) / page) pages — and collapses page-by-page as
  // events die, whether by firing or cancelling.
  constexpr std::size_t kPage = Simulation::kCallbackPageSlots;
  Simulation sim;
  constexpr int kEvents = 100000;
  for (int i = 0; i < kEvents; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  const std::size_t expected_pages = kEvents / kPage + 1;  // ids 1..N
  EXPECT_EQ(sim.callback_buckets(), expected_pages * kPage);
  sim.run();
  EXPECT_EQ(sim.callback_buckets(), 0u);
}

TEST(EventArena, SteadyChurnNeverAccumulatesPages) {
  // Mass fires interleaved with fresh schedules: the footprint must track
  // the (small) pending population, not the (huge) total event count.
  Simulation sim;
  std::size_t peak = 0;
  for (int wave = 0; wave < 200; ++wave) {
    for (int i = 0; i < 500; ++i) {
      sim.schedule_in(static_cast<double>(i) * 1e-3, [] {});
    }
    sim.run();
    peak = std::max(peak, sim.callback_buckets());
  }
  EXPECT_EQ(sim.events_fired(), 100000u);
  // 500 pending events span at most two pages, plus one page of slack for
  // a wave straddling a boundary.
  EXPECT_LE(peak, 3 * Simulation::kCallbackPageSlots);
  EXPECT_EQ(sim.callback_buckets(), 0u);
}

}  // namespace
}  // namespace ll::des
