/// Randomized differential test of the DES engine against a trivially
/// correct reference model (sorted multiset of (time, id) pairs with a
/// cancellation set), on both queue backends. Any divergence in firing
/// order, count, or clock is a scheduler bug.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "rng/rng.hpp"

namespace ll::des {
namespace {

struct ReferenceModel {
  // (time, id) ordered exactly like the engine's tie-break rule.
  std::map<std::pair<double, EventId>, bool> events;  // value: cancelled?
  std::map<EventId, double> time_of;  // finds an id's entry without a scan

  void schedule(double t, EventId id) {
    events[{t, id}] = false;
    time_of[id] = t;
  }
  bool cancel(EventId id) {
    const auto when = time_of.find(id);
    if (when == time_of.end()) return false;
    const auto it = events.find({when->second, id});
    if (it == events.end() || it->second) return false;
    it->second = true;
    return true;
  }
  /// Pops fired events up to and including `horizon`, in order.
  std::vector<EventId> run_until(double horizon) {
    std::vector<EventId> fired;
    auto it = events.begin();
    while (it != events.end() && it->first.first <= horizon) {
      if (!it->second) fired.push_back(it->first.second);
      it = events.erase(it);
    }
    return fired;
  }
};

constexpr QueueBackend kBackends[] = {QueueBackend::kHeap,
                                      QueueBackend::kCalendar};

std::string label(QueueBackend backend, std::uint64_t seed) {
  return std::string(to_string(backend)) + " seed=" + std::to_string(seed);
}

TEST(DesFuzz, MatchesReferenceModelAcrossRandomOperations) {
  for (const QueueBackend backend : kBackends) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(label(backend, seed));
      rng::Stream rng(seed);
      Simulation sim(Simulation::Options{backend});
      ReferenceModel ref;
      std::vector<EventId> fired;
      std::vector<EventId> live;  // ids that may still be pending

      for (int step = 0; step < 400; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.55) {
          // Schedule at a random future time (coarse grid to force ties).
          // The callback records its own id via a shared box filled in after
          // scheduling.
          const double t =
              sim.now() + static_cast<double>(rng.uniform_index(50)) * 0.5;
          auto id_box = std::make_shared<EventId>(kNoEvent);
          const EventId id = sim.schedule_at(
              t, [&fired, id_box] { fired.push_back(*id_box); });
          *id_box = id;
          ref.schedule(t, id);
          live.push_back(id);
        } else if (roll < 0.75 && !live.empty()) {
          const EventId victim =
              live[rng.uniform_index(live.size())];
          const bool engine_ok = sim.cancel(victim);
          const bool ref_ok = ref.cancel(victim);
          EXPECT_EQ(engine_ok, ref_ok) << "seed=" << seed << " step=" << step;
        } else {
          // Advance to a random horizon and compare fired sequences.
          const double horizon =
              sim.now() + static_cast<double>(rng.uniform_index(30)) * 0.5;
          fired.clear();
          sim.run_until(horizon);
          const std::vector<EventId> expected = ref.run_until(horizon);
          ASSERT_EQ(fired, expected) << "seed=" << seed << " step=" << step;
          EXPECT_DOUBLE_EQ(sim.now(), horizon);
        }
      }
      // Drain both completely.
      fired.clear();
      sim.run();
      const std::vector<EventId> expected = ref.run_until(1e18);
      EXPECT_EQ(fired, expected) << "seed=" << seed;
      EXPECT_EQ(sim.pending_count(), 0u);
    }
  }
}

TEST(DesFuzz, RescheduleChurnMatchesReferenceModel) {
  // The cluster engines' shape: a standing set of far-future completions,
  // each cancelled and re-armed at every sample, so over 99% of them die
  // unfired and the engine compacts its queue many times between horizons.
  // About 1% of re-arms land inside the next horizon (on a coarse grid, to
  // force ties) and fire.
  constexpr std::size_t kHolds = 300;
  constexpr int kRounds = 200;
  for (const QueueBackend backend : kBackends) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(label(backend, seed));
      rng::Stream rng(seed);
      Simulation sim(Simulation::Options{backend});
      ReferenceModel ref;
      std::vector<EventId> fired;
      std::vector<EventId> holds;
      const auto schedule = [&](double t) {
        auto id_box = std::make_shared<EventId>(kNoEvent);
        const EventId id = sim.schedule_at(
            t, [&fired, id_box] { fired.push_back(*id_box); });
        *id_box = id;
        ref.schedule(t, id);
        return id;
      };
      std::uint64_t far_scheduled = 0;
      const auto far = [&] {
        ++far_scheduled;
        return sim.now() + 1e3 + rng.uniform01() * 1e5;
      };
      for (std::size_t k = 0; k < kHolds; ++k) holds.push_back(schedule(far()));

      int compactions = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (EventId& hold : holds) {
          if (sim.pending(hold)) {
            const std::size_t before = sim.queued_entries();
            ASSERT_TRUE(sim.cancel(hold));
            ASSERT_TRUE(ref.cancel(hold));
            if (sim.queued_entries() < before) ++compactions;
            ASSERT_LE(sim.queued_entries(),
                      2 * sim.pending_count() + Simulation::kCompactionFloor);
          }
          const bool fires_soon = rng.uniform01() < 0.01;
          hold = schedule(
              fires_soon
                  ? sim.now() + static_cast<double>(rng.uniform_index(8)) * 0.5
                  : far());
        }
        const double horizon = sim.now() + 4.0;
        fired.clear();
        sim.run_until(horizon);
        ASSERT_EQ(fired, ref.run_until(horizon)) << "round=" << round;
      }
      EXPECT_GE(compactions, 20);
      // Near re-arms all fire within their round, so every cancel hit a
      // far-future hold.
      EXPECT_GE(100 * sim.events_cancelled(), 99 * far_scheduled);

      fired.clear();
      sim.run();
      EXPECT_EQ(fired, ref.run_until(1e18));
      EXPECT_EQ(sim.pending_count(), 0u);
      EXPECT_EQ(sim.queued_entries(), 0u);
    }
  }
}

TEST(DesFuzz, HeavyCancellationLeavesQueueConsistent) {
  rng::Stream rng(99);
  Simulation sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(sim.schedule_at(
        static_cast<double>(rng.uniform_index(1000)), [&fired] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 != 0 && sim.cancel(ids[i])) ++cancelled;
  }
  sim.run();
  EXPECT_EQ(fired + cancelled, 5000);
  EXPECT_EQ(sim.pending_count(), 0u);
}

}  // namespace
}  // namespace ll::des
