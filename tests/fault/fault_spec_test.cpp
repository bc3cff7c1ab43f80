#include "fault/fault_spec.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ll::fault {
namespace {

TEST(ArrivalProcess, DefaultIsEmptyAndDrawsNothing) {
  const ArrivalProcess p = ArrivalProcess::none();
  EXPECT_TRUE(p.empty());
  rng::Stream a(7);
  rng::Stream b(7);
  EXPECT_TRUE(p.draw(1000.0, a).empty());
  // Drawing from an empty process consumes no entropy.
  EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(ArrivalProcess, ExponentialDrawsSortedTimesWithinHorizon) {
  const ArrivalProcess p = ArrivalProcess::exponential(0.01);
  rng::Stream stream(11);
  const auto times = p.draw(10000.0, stream);
  ASSERT_FALSE(times.empty());
  double prev = 0.0;
  for (double t : times) {
    EXPECT_GE(t, prev);
    EXPECT_LT(t, 10000.0);
    prev = t;
  }
  // ~100 expected arrivals; a wide statistical guard.
  EXPECT_GT(times.size(), 40u);
  EXPECT_LT(times.size(), 250u);
}

TEST(ArrivalProcess, FixedTimesFilteredByHorizon) {
  const ArrivalProcess p = ArrivalProcess::fixed({5.0, 50.0, 500.0});
  rng::Stream stream(1);
  const auto times = p.draw(100.0, stream);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
  EXPECT_DOUBLE_EQ(times[1], 50.0);
}

TEST(ArrivalProcess, ValidationRejectsNonsense) {
  EXPECT_THROW(ArrivalProcess::exponential(0.0).validate("x"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::exponential(-1.0).validate("x"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::hyperexp2(1.5, 1.0, 1.0).validate("x"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::fixed({-2.0}).validate("x"),
               std::invalid_argument);
  EXPECT_NO_THROW(ArrivalProcess::exponential(0.5).validate("x"));
  EXPECT_NO_THROW(ArrivalProcess::hyperexp2(0.3, 2.0, 0.1).validate("x"));
}

TEST(FaultSpec, EmptyMeansNoArrivalsAnywhereAndNoLinkDrops) {
  FaultSpec spec;
  EXPECT_TRUE(spec.empty());
  spec.link.drop_probability = 0.1;
  EXPECT_FALSE(spec.empty());
  spec.link.drop_probability = 0.0;
  spec.storm.arrivals = ArrivalProcess::fixed({10.0});
  EXPECT_FALSE(spec.empty());
}

TEST(FaultSpec, ValidateNamesTheBadField) {
  FaultSpec spec;
  spec.crash.arrivals = ArrivalProcess::exponential(0.01);
  spec.crash.mean_downtime = -1.0;
  try {
    spec.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("downtime"), std::string::npos)
        << e.what();
  }

  FaultSpec link_bad;
  link_bad.link.drop_probability = 1.0;  // must stay below 1
  EXPECT_THROW(link_bad.validate(), std::invalid_argument);

  FaultSpec storm_bad;
  storm_bad.storm.arrivals = ArrivalProcess::fixed({1.0});
  storm_bad.storm.node_fraction = 0.0;
  EXPECT_THROW(storm_bad.validate(), std::invalid_argument);

  FaultSpec ok;
  ok.crash.arrivals = ArrivalProcess::exponential(0.001);
  ok.link.drop_probability = 0.2;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FaultSpec, ValidateCapsExpectedArrivalsPerCategory) {
  // The cap counts the mean arrivals over the horizon, for every kind.
  EXPECT_DOUBLE_EQ(ArrivalProcess::exponential(0.5).expected_count(100.0),
                   50.0);
  EXPECT_DOUBLE_EQ(
      ArrivalProcess::hyperexp2(0.5, 1.0, 0.25).expected_count(250.0), 100.0);
  EXPECT_DOUBLE_EQ(
      ArrivalProcess::fixed({1.0, 2.0, 300.0}).expected_count(100.0), 2.0);

  const double at_cap = FaultSpec::kMaxExpectedArrivals / 86400.0;
  FaultSpec ok;
  ok.crash.arrivals = ArrivalProcess::exponential(at_cap);
  EXPECT_NO_THROW(ok.validate());

  // 4e4 arrivals per second: llsim faults --mtbf=1e-4 on 4 nodes.
  FaultSpec crash;
  crash.crash.arrivals = ArrivalProcess::exponential(4e4);
  FaultSpec storm;
  storm.storm.arrivals = ArrivalProcess::exponential(4e4);
  FaultSpec pressure;
  pressure.pressure.arrivals = ArrivalProcess::exponential(4e4);
  for (const auto& [category, spec] :
       {std::pair{"crash", &crash}, std::pair{"storm", &storm},
        std::pair{"pressure", &pressure}}) {
    try {
      spec->validate();
      FAIL() << category << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(category) +
                                           " arrivals expect"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultSchedule, EmptySpecCompilesToEmptySchedule) {
  const FaultSchedule sched =
      FaultSchedule::compile(FaultSpec{}, 8, rng::Stream(3));
  EXPECT_TRUE(sched.empty());
  EXPECT_TRUE(sched.events().empty());
}

TEST(FaultSchedule, CompileIsDeterministicInSeed) {
  FaultSpec spec;
  spec.crash.arrivals = ArrivalProcess::exponential(1.0 / 600.0);
  spec.storm.arrivals = ArrivalProcess::hyperexp2(0.2, 1.0 / 200.0,
                                                  1.0 / 5000.0);
  spec.pressure.arrivals = ArrivalProcess::fixed({100.0, 9000.0});
  spec.horizon = 20000.0;

  const FaultSchedule a = FaultSchedule::compile(spec, 16, rng::Stream(42));
  const FaultSchedule b = FaultSchedule::compile(spec, 16, rng::Stream(42));
  const FaultSchedule c = FaultSchedule::compile(spec, 16, rng::Stream(43));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].nodes, b.events()[i].nodes);
    EXPECT_DOUBLE_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  // A different seed produces a different timeline.
  bool differs = a.events().size() != c.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].time != c.events()[i].time;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, TimelineSortedAndNodesInRange) {
  FaultSpec spec;
  spec.crash.arrivals = ArrivalProcess::exponential(1.0 / 300.0);
  spec.storm.arrivals = ArrivalProcess::exponential(1.0 / 2000.0);
  spec.storm.node_fraction = 0.5;
  spec.horizon = 20000.0;
  const FaultSchedule sched = FaultSchedule::compile(spec, 6, rng::Stream(9));
  ASSERT_FALSE(sched.empty());
  double prev = 0.0;
  for (const FaultEvent& ev : sched.events()) {
    EXPECT_GE(ev.time, prev);
    prev = ev.time;
    EXPECT_GT(ev.duration, 0.0);
    ASSERT_FALSE(ev.nodes.empty());
    std::size_t last = 0;
    for (std::size_t i = 0; i < ev.nodes.size(); ++i) {
      EXPECT_LT(ev.nodes[i], 6u);
      if (i > 0) {
        EXPECT_GT(ev.nodes[i], last);  // distinct, ascending
      }
      last = ev.nodes[i];
    }
    if (ev.kind == FaultKind::NodeCrash) {
      EXPECT_EQ(ev.nodes.size(), 1u);
    }
    if (ev.kind == FaultKind::Storm) {
      EXPECT_EQ(ev.nodes.size(), 3u);
    }
  }
}

TEST(FaultSchedule, CompileRejectsZeroNodes) {
  FaultSpec spec;
  spec.crash.arrivals = ArrivalProcess::fixed({1.0});
  EXPECT_THROW(FaultSchedule::compile(spec, 0, rng::Stream(1)),
               std::invalid_argument);
}

TEST(FaultSchedule, WriteTimelineRendersEventsAndLinkLine) {
  FaultSpec spec;
  spec.crash.arrivals = ArrivalProcess::fixed({12.5});
  spec.crash.exponential_downtime = false;
  spec.crash.mean_downtime = 30.0;
  spec.link.drop_probability = 0.25;
  const FaultSchedule sched = FaultSchedule::compile(spec, 4, rng::Stream(5));
  std::ostringstream out;
  sched.write_timeline(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("12.5"), std::string::npos);
  EXPECT_NE(text.find("30.0"), std::string::npos);
  EXPECT_NE(text.find("drop probability"), std::string::npos);
}

TEST(FaultKindNames, AreStable) {
  EXPECT_EQ(to_string(FaultKind::NodeCrash), "crash");
  EXPECT_EQ(to_string(FaultKind::Storm), "storm");
  EXPECT_EQ(to_string(FaultKind::Pressure), "pressure");
}

}  // namespace
}  // namespace ll::fault
