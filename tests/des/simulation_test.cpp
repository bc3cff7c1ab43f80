#include "des/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace ll::des {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, TiesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleInUsesRelativeTime) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, RejectsPastAndInvalidTimes) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW((void)(sim.schedule_at(5.0, [] {})), std::invalid_argument);
  EXPECT_THROW((void)(sim.schedule_in(-1.0, [] {})), std::invalid_argument);
  EXPECT_THROW(
      sim.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(
      sim.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
}

TEST(Simulation, RejectsEmptyCallback) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(1.0, Simulation::Callback{}),
               std::invalid_argument);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotent) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(kNoEvent));
}

TEST(Simulation, CancelFiredEventIsNoOp) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, PendingCountTracksCancellation) {
  Simulation sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulation, StepFiresOneEvent) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  const std::size_t n = sim.run_until(2.5);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending_count(), 2u);
}

TEST(Simulation, RunUntilIncludesEventsAtHorizon) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulation, RunUntilEmptyQueueStillAdvances) {
  Simulation sim;
  sim.run_until(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
}

TEST(Simulation, RunUntilRejectsBackwardHorizon) {
  Simulation sim;
  sim.run_until(5.0);
  EXPECT_THROW((void)(sim.run_until(4.0)), std::invalid_argument);
}

TEST(Simulation, RunUntilFiresExactHorizonSelfSchedules) {
  // Pinned edge case: a callback firing at exactly the horizon may schedule
  // further events at exactly the horizon; they fire within the SAME
  // run_until call (the queue is re-examined after every fire) and the
  // clock still lands on exactly the horizon.
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(5.0, [&] {
    fired.push_back(1);
    sim.schedule_at(5.0, [&] {
      fired.push_back(2);
      sim.schedule_at(5.0, [&] { fired.push_back(3); });
    });
  });
  const std::size_t n = sim.run_until(5.0);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulation, RunUntilHorizonEqualsNowFiresDueEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(0.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(0.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 0.0);
  // And again: horizon == now() with an empty queue is a valid no-op.
  EXPECT_EQ(sim.run_until(0.0), 0u);
}

TEST(Simulation, CancelStormShrinksCallbackTable) {
  // A cancel storm (the recheck/completion pattern in the cluster sim
  // schedules tentative completions and cancels most of them) used to leave
  // the callback table at its peak bucket count forever; erase() never
  // shrinks. The table must rehash down once occupancy collapses.
  Simulation sim;
  std::vector<EventId> ids;
  ids.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    ids.push_back(sim.schedule_at(1e6 + i, [] {}));
  }
  const std::size_t peak = sim.callback_buckets();
  EXPECT_GE(peak, 100000u / 8);  // sanity: the table actually grew
  for (std::size_t i = 10; i < ids.size(); ++i) sim.cancel(ids[i]);
  EXPECT_EQ(sim.pending_count(), 10u);
  EXPECT_LT(sim.callback_buckets(), 1024u);
  EXPECT_LT(sim.callback_buckets(), peak / 64);
  // The queue drops the dead entries too, instead of holding all 99,990
  // until the clock reaches them.
  EXPECT_LE(sim.queued_entries(),
            2 * sim.pending_count() + Simulation::kCompactionFloor);
  // The surviving events still fire normally after the rehash.
  EXPECT_EQ(sim.run(), 10u);
}

TEST(Simulation, CompactionInsideCallbackKeepsFireOrder) {
  // A callback that cancels enough to compact the queue runs while step()
  // is mid-fire; the events around it must still fire in (time, id) order.
  for (const QueueBackend backend :
       {QueueBackend::kHeap, QueueBackend::kCalendar}) {
    Simulation sim(Simulation::Options{backend});
    std::vector<int> order;
    std::vector<EventId> doomed;
    sim.schedule_at(1.0, [&] {
      order.push_back(1);
      for (const EventId id : doomed) sim.cancel(id);
      sim.schedule_at(1.0, [&] { order.push_back(2); });
    });
    sim.schedule_at(1.0, [&] { order.push_back(3); });
    for (int i = 0; i < 5000; ++i) {
      doomed.push_back(sim.schedule_at(1e4 + i, [&] { order.push_back(-1); }));
    }
    sim.schedule_at(2.0, [&] { order.push_back(4); });
    EXPECT_EQ(sim.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
    EXPECT_EQ(sim.events_cancelled(), 5000u);
    EXPECT_EQ(sim.queued_entries(), 0u);
  }
}

TEST(Simulation, DrainByFiringAlsoShrinksCallbackTable) {
  Simulation sim;
  for (int i = 0; i < 100000; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  const std::size_t peak = sim.callback_buckets();
  sim.run();
  EXPECT_LT(sim.callback_buckets(), peak);
  EXPECT_LT(sim.callback_buckets(), 1024u);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulation, EventsCanCancelLaterEvents) {
  Simulation sim;
  bool fired = false;
  const EventId victim = sim.schedule_at(2.0, [&] { fired = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, EventsFiredCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

TEST(Simulation, ZeroDelaySelfScheduleFiresAtSameTime) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(0.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
}

TEST(Simulation, RunUntilRejectsNonFiniteHorizon) {
  Simulation sim;
  EXPECT_THROW((void)sim.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_until(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_until(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // Bad horizons leave the clock and queue untouched.
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.run_until(1.0), 0u);
}

TEST(Simulation, ScheduleInRejectsNonFiniteDelay) {
  Simulation sim;
  EXPECT_THROW(
      (void)sim.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)sim.schedule_in(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
}

TEST(Simulation, CountersPartitionEveryEvent) {
  Simulation sim;
  const EventId doomed = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  sim.cancel(doomed);
  sim.run_until(2.5);
  EXPECT_EQ(sim.events_scheduled(), 3u);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.events_scheduled(),
            sim.events_fired() + sim.events_cancelled() + sim.pending_count());
}

// Recording observer used by the hook tests below.
struct RecordingObserver final : SimObserver {
  struct Rec {
    char kind;  // 's' schedule, 'f' fire, 'c' cancel
    double time;
    EventId id;
    std::uint64_t tag;
  };
  std::vector<Rec> recs;
  void on_schedule(double when, EventId id, std::uint64_t tag) override {
    recs.push_back({'s', when, id, tag});
  }
  void on_fire(double time, EventId id, std::uint64_t tag) override {
    recs.push_back({'f', time, id, tag});
  }
  void on_cancel(EventId id, std::uint64_t tag) override {
    recs.push_back({'c', 0.0, id, tag});
  }
};

TEST(SimulationObserver, SeesScheduleFireAndCancelWithTags) {
  Simulation sim;
  RecordingObserver obs;
  EXPECT_EQ(sim.set_observer(&obs), nullptr);
  EXPECT_EQ(sim.observer(), &obs);

  const EventId kept = sim.schedule_at(1.0, [] {}, 7);
  const EventId doomed = sim.schedule_at(2.0, [] {}, 9);
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();

  ASSERT_EQ(obs.recs.size(), 4u);
  EXPECT_EQ(obs.recs[0].kind, 's');
  EXPECT_EQ(obs.recs[0].id, kept);
  EXPECT_EQ(obs.recs[0].tag, 7u);
  EXPECT_DOUBLE_EQ(obs.recs[0].time, 1.0);
  EXPECT_EQ(obs.recs[1].kind, 's');
  EXPECT_EQ(obs.recs[1].tag, 9u);
  EXPECT_EQ(obs.recs[2].kind, 'c');
  EXPECT_EQ(obs.recs[2].id, doomed);
  EXPECT_EQ(obs.recs[2].tag, 9u);
  EXPECT_EQ(obs.recs[3].kind, 'f');
  EXPECT_EQ(obs.recs[3].id, kept);
  EXPECT_EQ(obs.recs[3].tag, 7u);
}

TEST(SimulationObserver, UntaggedEventsReportTagZero) {
  Simulation sim;
  RecordingObserver obs;
  sim.set_observer(&obs);
  sim.schedule_at(1.0, [] {});
  sim.run();
  ASSERT_EQ(obs.recs.size(), 2u);
  EXPECT_EQ(obs.recs[0].tag, 0u);
  EXPECT_EQ(obs.recs[1].tag, 0u);
}

TEST(SimulationObserver, SetObserverReturnsPreviousAndDetaches) {
  Simulation sim;
  RecordingObserver first;
  RecordingObserver second;
  sim.set_observer(&first);
  EXPECT_EQ(sim.set_observer(&second), &first);
  sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.set_observer(nullptr), &second);
  sim.run();  // no observer attached: the fire goes unrecorded
  EXPECT_TRUE(first.recs.empty());
  ASSERT_EQ(second.recs.size(), 1u);
  EXPECT_EQ(second.recs[0].kind, 's');
}

TEST(SimulationObserver, FireNotifiedBeforeCallbackRuns) {
  Simulation sim;
  RecordingObserver obs;
  sim.set_observer(&obs);
  std::size_t seen_at_callback = 0;
  sim.schedule_at(1.0, [&] { seen_at_callback = obs.recs.size(); });
  sim.run();
  // schedule + fire both already recorded when the callback executes.
  EXPECT_EQ(seen_at_callback, 2u);
}

TEST(SimulationObserver, CancelOfFiredOrUnknownIdDoesNotNotify) {
  Simulation sim;
  RecordingObserver obs;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  sim.set_observer(&obs);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(kNoEvent));
  EXPECT_TRUE(obs.recs.empty());
}

TEST(SimulationObserver, SelfSchedulingCallbacksAreObserved) {
  Simulation sim;
  RecordingObserver obs;
  sim.set_observer(&obs);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 4) sim.schedule_in(1.0, chain, static_cast<std::uint64_t>(depth));
  };
  sim.schedule_at(0.0, chain, 99);
  sim.run();
  std::size_t schedules = 0;
  std::size_t fires = 0;
  for (const auto& r : obs.recs) {
    if (r.kind == 's') ++schedules;
    if (r.kind == 'f') ++fires;
  }
  EXPECT_EQ(schedules, 4u);
  EXPECT_EQ(fires, 4u);
}

}  // namespace
}  // namespace ll::des
