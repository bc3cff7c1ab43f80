#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "rng/rng.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace ll::exp {
namespace {

namespace json = util::json;

/// Parses `args` through the field table's flags.
ClusterScenario from_flags(const std::vector<std::string>& args) {
  util::Flags flags("scenario_test", "field table flags");
  const auto read = ClusterScenario::add_flags(flags);
  std::vector<const char*> argv{"scenario_test"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  flags.parse(static_cast<int>(argv.size()), argv.data());
  return read();
}

ClusterScenario from_text(const std::string& params) {
  return ClusterScenario::from_json(json::parse(params));
}

TEST(ScenarioTable, FaultFreeDigestsKeepTheirServeV1Values) {
  // serve_mix pins digests folded from these keys, so a fault-free
  // scenario's digest may never move.
  EXPECT_EQ(ClusterScenario{}.config_digest(), 0xa113fa196dfefd29ull);
  ClusterScenario mix;
  mix.nodes = 64;
  mix.jobs = 96;
  mix.machines = 4;
  mix.days = 0.25;
  EXPECT_EQ(mix.config_digest(), 0x9a5badb090ed1985ull);
}

TEST(ScenarioTable, EachFaultFieldOffItsDefaultMovesTheDigest) {
  const std::uint64_t base = ClusterScenario{}.config_digest();
  ClusterScenario same;
  same.downtime = 120.0;  // its default
  same.seed = 7;          // not part of the config
  EXPECT_EQ(same.config_digest(), base);
  std::vector<std::uint64_t> seen{base};
  for (double ClusterScenario::*field :
       {&ClusterScenario::mtbf, &ClusterScenario::downtime,
        &ClusterScenario::drop, &ClusterScenario::checkpoint,
        &ClusterScenario::storm_every, &ClusterScenario::pressure_every}) {
    ClusterScenario sc;
    sc.*field = 0.25;
    for (const std::uint64_t other : seen) EXPECT_NE(sc.config_digest(), other);
    seen.push_back(sc.config_digest());
  }
}

TEST(ScenarioTable, FlagDefaultsAreTheInitializersAndTheEmptyParams) {
  EXPECT_EQ(from_flags({}), ClusterScenario{});
  EXPECT_EQ(ClusterScenario::from_json(json::Value()), ClusterScenario{});
  EXPECT_EQ(from_text("{}"), ClusterScenario{});
  EXPECT_FALSE(ClusterScenario{}.faulty());
}

TEST(ScenarioTable, ToJsonRoundTripsBitForBit) {
  ClusterScenario sc;
  sc.policy = core::PolicyKind::PauseAndMigrate;
  sc.nodes = 8;
  sc.jobs = 12;
  sc.demand = 0.1;
  sc.machines = 3;
  sc.days = 1.0 / 24.0;
  sc.closed = 1234.5;
  sc.pause = 30.25;
  sc.reps = 2;
  sc.seed = 0xffffffffffffffffull;
  sc.mtbf = 900.0 / 7.0;
  sc.downtime = 60.5;
  sc.drop = 0.05;
  sc.checkpoint = 300.0;
  sc.storm_every = 7200.0;
  sc.pressure_every = 1e4 / 3.0;
  const ClusterScenario back = from_text(sc.to_json());
  EXPECT_EQ(back, sc) << sc.to_json();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.days),
            std::bit_cast<std::uint64_t>(sc.days));
  EXPECT_EQ(back.config_digest(), sc.config_digest());
  // 1/24 goes out as its shortest round-trip text, which the flags read
  // back to the same bits too.
  EXPECT_NE(sc.to_json().find("\"days\": 0.041666666666666664,"),
            std::string::npos);
  EXPECT_EQ(from_flags({"--days=0.041666666666666664"}).days, sc.days);
}

TEST(ScenarioTable, EachBoundIsRefusedAlikeByFlagsAndByParams) {
  struct Case {
    std::string flag;
    std::string key;
    std::string value;
  };
  const std::vector<Case> cases = {
      {"nodes", "nodes", "0"},
      {"jobs", "jobs", "0"},
      {"machines", "machines", "0"},
      {"reps", "reps", "0"},
      {"demand", "demand", "0"},
      {"days", "days", "0"},
      {"closed", "closed", "-1"},
      {"pause-time", "pause", "-1"},
      {"mtbf", "mtbf", "-1"},
      {"downtime", "downtime", "0"},
      {"drop", "drop", "-0.5"},
      {"checkpoint", "checkpoint", "-1"},
      {"storm-every", "storm_every", "-1"},
      {"pressure-every", "pressure_every", "-1"},
  };
  for (const Case& c : cases) {
    try {
      (void)from_flags({"--" + c.flag + "=" + c.value});
      ADD_FAILURE() << "--" << c.flag << "=" << c.value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("--" + c.flag + " must be ", 0),
                0u)
          << e.what();
    }
    try {
      (void)from_text("{\"" + c.key + "\": " + c.value + "}");
      ADD_FAILURE() << c.key << "=" << c.value << " was served";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("params." + c.key + " must be ", 0),
                0u)
          << e.what();
    }
  }
  // The compiled plan's own checks run on both paths too.
  EXPECT_THROW((void)from_flags({"--drop=1"}), std::invalid_argument);
  EXPECT_THROW((void)from_text(R"({"drop": 1})"), std::invalid_argument);
  EXPECT_THROW((void)from_flags({"--mtbf=1e-4"}), std::invalid_argument);
  EXPECT_THROW((void)from_text(R"({"mtbf": 1e-4})"), std::invalid_argument);
}

TEST(ScenarioTable, ServeAdmitsOnlyBoundedWork) {
  // Caps apply to served params, never to flags.
  EXPECT_THROW((void)from_text(R"({"nodes": 4097})"), std::invalid_argument);
  EXPECT_EQ(from_flags({"--nodes=4097"}).nodes, 4097u);
  EXPECT_THROW((void)from_text(R"({"demand": 1e999})"), std::invalid_argument);
  EXPECT_THROW((void)from_text(R"({"mtbf": 1e999})"), std::invalid_argument);
  EXPECT_EQ(from_flags({"--mtbf=300"}).mtbf, 300.0);  // serve refuses it
  // So does a served floor.
  EXPECT_THROW((void)from_text(R"({"demand": 1e-7})"), std::invalid_argument);
  EXPECT_EQ(from_flags({"--demand=1e-7"}).demand, 1e-7);
  // A checkpoint interval below 1 s would run a job as billions of
  // checkpoints.
  EXPECT_THROW((void)from_text(R"({"checkpoint": 0.5})"),
               std::invalid_argument);
  EXPECT_EQ(from_text(R"({"checkpoint": 1})").checkpoint, 1.0);
}

TEST(ScenarioTable, ClosedFaultPlansCoverTheWholeRun) {
  ClusterScenario sc;
  sc.nodes = 4;
  sc.mtbf = 20000.0;
  ASSERT_TRUE(sc.faulty());
  // An open run keeps the one-day horizon every timeline was drawn over.
  EXPECT_EQ(sc.fault_plan().horizon, 86400.0);
  sc.closed = 3600.0;
  EXPECT_EQ(sc.fault_plan().horizon, 86400.0);
  sc.closed = 2.0 * 86400.0;
  const fault::FaultSpec plan = sc.fault_plan();
  EXPECT_EQ(plan.horizon, 2.0 * 86400.0);
  const auto schedule =
      fault::FaultSchedule::compile(plan, sc.nodes, rng::Stream(42));
  ASSERT_FALSE(schedule.empty());
  EXPECT_GT(schedule.events().back().time, 86400.0);
}

}  // namespace
}  // namespace ll::exp
