#include "cli/driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "trace/trace_io.hpp"
#include "util/json.hpp"
#include "workload/fine_generator.hpp"
#include "workload/table_io.hpp"

namespace ll::cli {
namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("llsim_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST(CliBasics, NoArgsPrintsUsageAndFails) {
  const CliResult r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("Subcommands"), std::string::npos);
}

TEST(CliBasics, HelpSucceeds) {
  const CliResult r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("llsim"), std::string::npos);
}

TEST(CliBasics, UnknownSubcommandFails) {
  const CliResult r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown subcommand"), std::string::npos);
}

TEST(CliBasics, ParseWidthPolicyNames) {
  EXPECT_EQ(parse_width_policy("reconfigure"),
            parallel::WidthPolicy::Reconfigure);
  EXPECT_EQ(parse_width_policy("fixed-linger"),
            parallel::WidthPolicy::FixedLinger);
  EXPECT_EQ(parse_width_policy("hybrid"), parallel::WidthPolicy::Hybrid);
  EXPECT_FALSE(parse_width_policy("wide").has_value());
}

TEST_F(CliTest, TracesWritesFilesAndAnalyzeReadsThem) {
  const CliResult gen = run({"traces", "--machines=3", "--days=0.25",
                             "--out=" + path("pool"), "--seed=7"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 3 traces"), std::string::npos);
  EXPECT_TRUE(fs::exists(path("pool/machine0.coarse")));
  EXPECT_TRUE(fs::exists(path("pool/machine2.coarse")));

  const CliResult ana = run({"analyze", "--dir=" + path("pool")});
  ASSERT_EQ(ana.code, 0) << ana.err;
  EXPECT_NE(ana.out.find("non-idle fraction"), std::string::npos);
  EXPECT_NE(ana.out.find("traces"), std::string::npos);
}

TEST_F(CliTest, TracesRequiresOutDir) {
  const CliResult r = run({"traces", "--machines=2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out is required"), std::string::npos);
}

TEST_F(CliTest, AnalyzeFailsOnEmptyDir) {
  fs::create_directories(path("empty"));
  const CliResult r = run({"analyze", "--dir=" + path("empty")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no .coarse traces"), std::string::npos);
}

TEST_F(CliTest, FitProducesLoadableTable) {
  // Synthesize a dispatch trace at 40% and fit a table from it.
  const auto fine = workload::generate_fine_trace(
      workload::default_burst_table(), 0.4, 2000.0, rng::Stream(3));
  trace::save_fine(fine, path("dispatch.fine"));

  const CliResult r = run({"fit", "--fine=" + path("dispatch.fine"),
                           "--out=" + path("site.bursts")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fitted"), std::string::npos);

  const workload::BurstTable table = workload::load_table(path("site.bursts"));
  const auto truth = workload::default_burst_table().moments_at(0.4);
  EXPECT_NEAR(table.level(8).run_mean, truth.run_mean, truth.run_mean * 0.3);
}

TEST_F(CliTest, FitRequiresArguments) {
  const CliResult r = run({"fit"});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, FitHonoursCustomWindow) {
  const auto fine = workload::generate_fine_trace(
      workload::default_burst_table(), 0.5, 1000.0, rng::Stream(4));
  trace::save_fine(fine, path("d.fine"));
  const CliResult r = run({"fit", "--fine=" + path("d.fine"),
                           "--out=" + path("w.bursts"), "--window=1.0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NO_THROW((void)workload::load_table(path("w.bursts")));
}

TEST_F(CliTest, FitFailsOnMissingTrace) {
  const CliResult r = run({"fit", "--fine=" + path("nope.fine"),
                           "--out=" + path("x.bursts")});
  EXPECT_EQ(r.code, 1);
  EXPECT_FALSE(r.err.empty());
}

TEST_F(CliTest, UnknownFlagIsReportedNotCrashed) {
  const CliResult r = run({"cluster", "--frobnicate=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, ClusterOpenRunReportsMetrics) {
  const CliResult r =
      run({"cluster", "--policy=LL", "--nodes=8", "--jobs=8", "--demand=60",
           "--machines=4", "--days=0.2", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("avg job"), std::string::npos);
  EXPECT_NE(r.out.find("family time"), std::string::npos);
  EXPECT_NE(r.out.find("LL"), std::string::npos);
}

TEST_F(CliTest, ClusterClosedRunReportsThroughput) {
  const CliResult r =
      run({"cluster", "--policy=IE", "--nodes=8", "--jobs=16", "--demand=120",
           "--machines=4", "--days=0.2", "--closed=600", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
  EXPECT_NE(r.out.find("closed (600 s)"), std::string::npos);
}

TEST_F(CliTest, ClusterWritesJobLog) {
  const CliResult r =
      run({"cluster", "--policy=LL", "--nodes=4", "--jobs=4", "--demand=60",
           "--machines=2", "--days=0.2", "--job-log=" + path("jobs.csv")});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream log(path("jobs.csv"));
  ASSERT_TRUE(log.good());
  std::string header;
  std::getline(log, header);
  EXPECT_EQ(header, "job,time,state");
  std::string line;
  std::size_t lines = 0;
  bool saw_done = false;
  while (std::getline(log, line)) {
    ++lines;
    if (line.find(",done") != std::string::npos) saw_done = true;
  }
  EXPECT_GE(lines, 8u);  // 4 jobs x (submit + >= 1 transition)
  EXPECT_TRUE(saw_done);
}

TEST_F(CliTest, ClusterRejectsUnknownPolicy) {
  const CliResult r = run({"cluster", "--policy=condor"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown policy"), std::string::npos);
}

TEST_F(CliTest, ClusterUsesTraceDirectory) {
  ASSERT_EQ(run({"traces", "--machines=2", "--days=0.25",
                 "--out=" + path("pool")})
                .code,
            0);
  const CliResult r =
      run({"cluster", "--policy=LF", "--nodes=4", "--jobs=4", "--demand=60",
           "--traces=" + path("pool"), "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("LF"), std::string::npos);
}

TEST_F(CliTest, ClusterRefusesTinyTracePeriodPromptly) {
  // A run replaying a 1e-300 s period used to tick without end.
  fs::create_directories(path("pool"));
  {
    std::ofstream file(path("pool") + "/machine0.coarse");
    file << "# ll-coarse-trace v1 period=1e-300\n";
    for (int i = 0; i < 100; ++i) file << "0.05 30000 0\n";
  }
  const auto start = std::chrono::steady_clock::now();
  const CliResult r =
      run({"cluster", "--nodes=4", "--jobs=4", "--demand=60",
           "--traces=" + path("pool")});
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("coarse trace: bad period '1e-300'"), std::string::npos)
      << r.err;
  EXPECT_LT(took.count(), 1.0);
}

TEST_F(CliTest, ClusterAcceptsCustomBurstTable) {
  workload::save_table(workload::default_burst_table(), path("t.bursts"));
  const CliResult r =
      run({"cluster", "--policy=LL", "--nodes=4", "--jobs=4", "--demand=60",
           "--machines=2", "--days=0.2", "--burst-table=" + path("t.bursts")});
  ASSERT_EQ(r.code, 0) << r.err;
}

TEST_F(CliTest, ParallelRunReportsThroughput) {
  const CliResult r =
      run({"parallel", "--policy=hybrid", "--nodes=8", "--jobs=2",
           "--work=40", "--duration=600", "--machines=4", "--days=0.2",
           "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("work delivered"), std::string::npos);
  EXPECT_NE(r.out.find("hybrid"), std::string::npos);
}

TEST_F(CliTest, ParallelRejectsUnknownPolicy) {
  const CliResult r = run({"parallel", "--policy=wide"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown policy"), std::string::npos);
}

TEST_F(CliTest, ClusterReplicationsReportCi) {
  const CliResult r =
      run({"cluster", "--policy=LL", "--nodes=8", "--jobs=8", "--demand=60",
           "--machines=4", "--days=0.2", "--seed=5", "--reps=3",
           "--workers=2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("replications"), std::string::npos);
  EXPECT_NE(r.out.find("avg job"), std::string::npos);
  EXPECT_NE(r.out.find("±"), std::string::npos);
}

TEST_F(CliTest, ClusterJsonEmitsSweep) {
  const CliResult r =
      run({"cluster", "--policy=LL", "--nodes=8", "--jobs=8", "--demand=60",
           "--machines=4", "--days=0.2", "--seed=5", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"avg_job\""), std::string::npos);
  EXPECT_NE(r.out.find("\"summary\""), std::string::npos);

  // The printed bytes are the scenario's own run(), which is what
  // `llsim serve` answers for the same fields — checked with every field
  // away from its default.
  const CliResult closed =
      run({"cluster", "--policy=PM", "--nodes=8", "--jobs=8", "--demand=60",
           "--machines=4", "--days=0.2", "--seed=5", "--pause-time=30",
           "--closed=600", "--reps=3", "--json"});
  ASSERT_EQ(closed.code, 0) << closed.err;
  exp::ClusterScenario sc;
  sc.policy = core::PolicyKind::PauseAndMigrate;
  sc.nodes = 8;
  sc.jobs = 8;
  sc.demand = 60.0;
  sc.machines = 4;
  sc.days = 0.2;
  sc.seed = 5;
  sc.pause = 30.0;
  sc.closed = 600.0;
  sc.reps = 3;
  EXPECT_EQ(closed.out, sc.run(nullptr));
}

TEST_F(CliTest, ClusterShardedJsonIsShardCountInvariantAndWritesJobLog) {
  const auto sharded = [&](const std::string& shards,
                           const std::string& workers = "--workers=0") {
    return run({"cluster", shards, workers, "--nodes=8", "--jobs=8",
                "--demand=60", "--machines=4", "--days=0.2", "--seed=5",
                "--reps=2", "--json"});
  };
  const CliResult one = sharded("--shards=1");
  const CliResult three = sharded("--shards=3");
  // Two sweep workers run both replications at once, each submitting its
  // shard windows to the shared runner.
  const CliResult concurrent = sharded("--shards=3", "--workers=2");
  ASSERT_EQ(one.code, 0) << one.err;
  ASSERT_EQ(three.code, 0) << three.err;
  ASSERT_EQ(concurrent.code, 0) << concurrent.err;
  EXPECT_EQ(one.out.front(), '{');
  EXPECT_EQ(one.out, three.out);
  EXPECT_EQ(one.out, concurrent.out);

  const CliResult logged =
      run({"cluster", "--shards=2", "--nodes=4", "--jobs=4", "--demand=60",
           "--machines=2", "--days=0.2", "--job-log=" + path("jobs.csv")});
  ASSERT_EQ(logged.code, 0) << logged.err;
  std::ifstream log(path("jobs.csv"));
  ASSERT_TRUE(log.good());
  std::string header;
  std::getline(log, header);
  EXPECT_EQ(header, "job,time,state");
  std::string line;
  std::size_t done = 0;
  while (std::getline(log, line)) {
    if (line.find(",done") != std::string::npos) ++done;
  }
  EXPECT_EQ(done, 4u);  // every job of the open run finished
}

TEST_F(CliTest, BenchListShowsRegisteredBenches) {
  const CliResult r = run({"bench", "--list"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fig07"), std::string::npos);
  EXPECT_NE(r.out.find("fig11"), std::string::npos);
  EXPECT_NE(r.out.find("abl_pause_time"), std::string::npos);
  // Every name stands apart from its summary, however long the name.
  for (const exp::Bench* bench : exp::BenchRegistry::instance().list()) {
    EXPECT_NE(r.out.find("  " + bench->name + "  "), std::string::npos)
        << bench->name;
  }
}

TEST_F(CliTest, BenchEveryRegisteredBenchRuns) {
  // Small flags for every registered bench. `engine` marks the sweeps moved
  // onto the engine from standalone programs, whose --json output must not
  // depend on --jobs.
  struct Row {
    std::vector<std::string> flags;
    bool engine = false;
  };
  const std::map<std::string, Row> rows = {
      {"fig02", {{"--trace-seconds=2000"}}},
      {"fig03", {{"--trace-seconds=100"}}},
      {"fig04", {{"--machines=2", "--days=0.1"}}},
      {"fig05", {{"--duration=20"}}},
      {"sec32", {{"--machines=2", "--days=0.1"}}},
      {"fig07", {{"--nodes=8", "--machines=4", "--reps=1"}}},
      {"fig08", {{"--nodes=8", "--machines=4"}}},
      {"fig09", {{"--phases=3"}}},
      {"fig10", {{"--work-per-point=0.1"}}},
      {"fig11", {{"--reps=1"}}},
      {"fig12", {{"--seed=3"}}},
      {"fig13", {{"--util=0.3"}}},
      {"abl_burst_model", {{"--seed=3"}}},
      {"abl_ctx_switch", {{"--nodes=8", "--machines=4"}}},
      {"abl_memory_priority", {{"--nodes=4"}, true}},
      {"abl_migration_cost", {{"--nodes=8", "--machines=4"}}},
      {"abl_multi_occupancy", {{"--nodes=4"}, true}},
      {"abl_owner_restore", {{"--nodes=8", "--machines=4"}, true}},
      {"abl_pause_time", {{"--nodes=8", "--machines=4"}}},
      {"abl_predictor", {{"--nodes=8", "--machines=4"}}},
      {"ext_fault_robustness", {{"--nodes=8", "--machines=4"}}},
      {"ext_parallel_throughput",
       {{"--nodes=8", "--duration=600", "--work=60"}, true}},
      {"ext_scale",
       {{"--nodes=500", "--machines=8", "--closed-duration=300"}}},
      {"ext_scale_sharded",
       {{"--nodes=500", "--machines=8", "--closed-duration=300",
         "--min-speedup=0"}}},
      {"ext_trace_sensitivity", {{"--nodes=4"}, true}},
  };
  std::set<std::string> registered;
  for (const exp::Bench* bench : exp::BenchRegistry::instance().list()) {
    registered.insert(bench->name);
    const auto row = rows.find(bench->name);
    if (row == rows.end()) {
      ADD_FAILURE() << "registered bench " << bench->name << " has no row";
      continue;
    }
    std::vector<std::string> args = {"bench", bench->name};
    args.insert(args.end(), row->second.flags.begin(),
                row->second.flags.end());
    const CliResult r = run(args);
    EXPECT_EQ(r.code, 0) << bench->name << ": " << r.err;
    EXPECT_EQ(r.out.rfind("=== ", 0), 0u) << bench->name << ": " << r.out;
    if (!row->second.engine) continue;
    auto json_with_jobs = [&args](const std::string& jobs) {
      std::vector<std::string> json_args = args;
      json_args.push_back("--json");
      json_args.push_back("--jobs=" + jobs);
      return run(json_args);
    };
    const CliResult one = json_with_jobs("1");
    EXPECT_EQ(one.code, 0) << bench->name << ": " << one.err;
    EXPECT_EQ(one.out, json_with_jobs("4").out) << bench->name;
  }
  for (const auto& [name, row] : rows) {
    EXPECT_EQ(registered.count(name), 1u) << "row " << name
                                          << " names no registered bench";
  }
}

TEST_F(CliTest, BenchMetricsOutTakesEitherFlagForm) {
  const std::vector<std::string> base = {"bench", "fig07", "--nodes=8",
                                         "--machines=4", "--reps=1"};
  auto with = [&base](const std::vector<std::string>& extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  const CliResult space = with({"--metrics-out", path("space.json")});
  ASSERT_EQ(space.code, 0) << space.err;
  const CliResult equals = with({"--metrics-out=" + path("equals.json")});
  ASSERT_EQ(equals.code, 0) << equals.err;
  for (const std::string& file : {path("space.json"), path("equals.json")}) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"tool\": \"llsim bench fig07\""),
              std::string::npos)
        << file;
  }
  const CliResult dangling = with({"--metrics-out"});
  EXPECT_EQ(dangling.code, 1);
  EXPECT_NE(dangling.err.find("--metrics-out expects a value"),
            std::string::npos)
      << dangling.err;
}

TEST_F(CliTest, BenchUnknownNameFails) {
  for (const std::string name : {"nonesuch", "--report"}) {
    const CliResult r = run({"bench", name});
    EXPECT_EQ(r.code, 2) << name;
    EXPECT_NE(r.err.find("unknown bench"), std::string::npos) << name;
  }
}

TEST_F(CliTest, BenchFig09SmokeRun) {
  const CliResult r = run({"bench", "fig09", "--phases=3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("slowdown"), std::string::npos);
}

TEST_F(CliTest, BenchThreadCountInvariance) {
  const std::vector<std::string> base = {"bench",     "fig09", "--phases=3",
                                         "--reps=2",  "--json"};
  auto with_jobs = [&base](const std::string& jobs) {
    std::vector<std::string> args = base;
    args.push_back("--jobs=" + jobs);
    return args;
  };
  const CliResult one = run(with_jobs("1"));
  ASSERT_EQ(one.code, 0) << one.err;
  EXPECT_EQ(one.out, run(with_jobs("4")).out);
  EXPECT_EQ(one.out, run(with_jobs("16")).out);
}

TEST_F(CliTest, FaultsPrintsTimelineAndGoodput) {
  const CliResult r =
      run({"faults", "--policy=LL", "--nodes=4", "--jobs=6", "--demand=120",
           "--mtbf=600", "--downtime=60", "--checkpoint=120", "--machines=2",
           "--days=0.2", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("compiled fault timeline"), std::string::npos);
  EXPECT_NE(r.out.find("crash"), std::string::npos);
  EXPECT_NE(r.out.find("goodput"), std::string::npos);
  EXPECT_NE(r.out.find("work lost"), std::string::npos);
}

TEST_F(CliTest, FaultsEmptyPlanIsBaseline) {
  const CliResult r =
      run({"faults", "--policy=LL", "--nodes=4", "--jobs=4", "--demand=60",
           "--mtbf=0", "--drop=0", "--checkpoint=0", "--machines=2",
           "--days=0.2", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fault plan is empty"), std::string::npos);
  // Fault-free: identity metrics.
  EXPECT_NE(r.out.find("goodput"), std::string::npos);
  EXPECT_NE(r.out.find("100.00%"), std::string::npos);
}

TEST_F(CliTest, FaultsWritesManifestWithGoodput) {
  const CliResult r =
      run({"faults", "--policy=IE", "--nodes=4", "--jobs=4", "--demand=60",
           "--mtbf=300", "--machines=2", "--days=0.2", "--seed=6",
           "--metrics-out=" + path("faults.json")});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream in(path("faults.json"));
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"tool\": \"llsim faults\""), std::string::npos);
  EXPECT_NE(json.find("\"goodput\""), std::string::npos);
  EXPECT_NE(json.find("\"work_lost\""), std::string::npos);
  EXPECT_NE(json.find("fault.crashes"), std::string::npos);
}

TEST_F(CliTest, FaultsDeterministicAcrossInvocations) {
  const std::vector<std::string> args = {
      "faults",      "--policy=LL",  "--nodes=4",  "--jobs=6",
      "--demand=90", "--mtbf=400",   "--drop=0.2", "--checkpoint=60",
      "--machines=2", "--days=0.2",  "--seed=9"};
  EXPECT_EQ(run(args).out, run(args).out);
}

TEST_F(CliTest, FaultsRejectsUnknownPolicy) {
  const CliResult r = run({"faults", "--policy=condor"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown policy"), std::string::npos);
}

TEST_F(CliTest, FaultsRejectsUnboundedTimelines) {
  // Each asked ArrivalProcess::draw for 1e9-1e10 arrival times and died in
  // the allocator; now the plan is refused, naming its category, before
  // the trace pool is built.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--mtbf=1e-4", "crash"},
      {"--storm-every=1e-4", "storm"},
      {"--pressure-every=1e-4", "pressure"},
  };
  for (const auto& [flag, category] : cases) {
    const auto start = std::chrono::steady_clock::now();
    const CliResult r = run({"faults", "--nodes=4", flag});
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_NE(r.err.find(category + " arrivals expect"), std::string::npos)
        << flag << ": " << r.err;
    EXPECT_LT(took.count(), 1.0) << flag;
  }
}

TEST_F(CliTest, TraceScenarioWritesValidChromeJson) {
  const std::string trace_path = path("scenario.json");
  const CliResult r =
      run({"trace", "--scenario=cluster-open-ll", "--out=" + trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("digest"), std::string::npos);
  EXPECT_NE(r.out.find("wrote"), std::string::npos);

  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto doc = util::json::parse(buffer.str());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind(), util::json::Kind::kArray);
  EXPECT_GT(events->as_array().size(), 3u);  // metadata + fire spans
}

TEST_F(CliTest, TraceSweepCoversAllInstrumentedLayers) {
  const std::string trace_path = path("sweep.json");
  const std::string manifest_path = path("manifest.json");
  const CliResult r = run({"trace", "--policy=LL", "--nodes=8", "--jobs=8",
                           "--demand=60", "--machines=4", "--days=0.2",
                           "--reps=2", "--workers=2", "--seed=11",
                           "--out=" + trace_path,
                           "--metrics-out=" + manifest_path});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  // DES fire spans, engine cell spans, and runner batch spans all present.
  EXPECT_NE(text.find("fire:"), std::string::npos);
  EXPECT_NE(text.find("cell:"), std::string::npos);
  EXPECT_NE(text.find("runner.batch"), std::string::npos);

  std::ifstream mf(manifest_path);
  ASSERT_TRUE(mf.good());
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  const auto doc = util::json::parse(mbuf.str());
  const auto* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->find("tracer_recorded")->as_number(), 0.0);
}

TEST_F(CliTest, TraceRequiresOut) {
  const CliResult r = run({"trace", "--scenario=cluster-open-ll"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST_F(CliTest, ProfileReportsWallClockTotals) {
  const CliResult r =
      run({"profile", "--policy=LL", "--nodes=4", "--jobs=6", "--demand=60",
           "--machines=2", "--days=0.2", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("run total (ms)"), std::string::npos);
  EXPECT_NE(r.out.find("event callbacks (ms)"), std::string::npos);
  EXPECT_NE(r.out.find("callback share"), std::string::npos);
}

TEST_F(CliTest, ProfileTimelinePrintsLastTracerRecords) {
  const std::string manifest_path = path("profile.json");
  const CliResult r =
      run({"profile", "--policy=LL", "--nodes=4", "--jobs=6", "--demand=60",
           "--machines=2", "--days=0.2", "--seed=5", "--timeline=5",
           "--metrics-out=" + manifest_path});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string header = "timeline (last 5 of ";
  const auto at = r.out.find(header);
  ASSERT_NE(at, std::string::npos) << r.out;
  std::istringstream lines(r.out.substr(at + header.size()));
  std::uint64_t recorded = 0;
  std::string line;
  lines >> recorded;
  std::getline(lines, line);
  EXPECT_EQ(line, " tracer records):");
  ASSERT_GT(recorded, 5u);
  std::getline(lines, line);
  EXPECT_EQ(line, "(" + std::to_string(recorded - 5) +
                      " earlier records dropped)");

  // Exactly five records, oldest first: "<time>[ .. <end>]  <label>  <id>",
  // ordered by when each was recorded (a span's end).
  double last = 0.0;
  bool done = false;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    std::istringstream fields(line);
    double when = 0.0;
    std::string label;
    std::uint64_t id = 0;
    fields >> when >> label;
    if (label == "..") fields >> when >> label;
    EXPECT_TRUE(fields >> id) << line;
    EXPECT_GE(when, last) << line;
    last = when;
    done |= label == "cluster.job.done";
  }
  EXPECT_TRUE(done) << "no job-done record among the last five";
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "") << "more than five records printed";

  std::ifstream mf(manifest_path);
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  const auto doc = util::json::parse(mbuf.str());
  const auto* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->find("tracer_recorded")->as_number(),
            static_cast<double>(recorded));
  EXPECT_EQ(trace->find("tracer_dropped")->as_number(),
            static_cast<double>(recorded - 5));
}

TEST_F(CliTest, NegativeCountsAndDurationsAreRejected) {
  // Each of these used to wrap a negative count to SIZE_MAX (or cast a
  // negative trace length to an unsigned sample count) and then stall or
  // die inside the standard library.
  const std::vector<std::vector<std::string>> cases = {
      {"cluster", "--jobs=-1"},     {"profile", "--jobs=-1"},
      {"faults", "--jobs=-1"},      {"parallel", "--jobs=-1"},
      {"cluster", "--nodes=-1"},    {"cluster", "--reps=-1"},
      {"cluster", "--machines=-1"}, {"cluster", "--workers=-1"},
      {"bench", "fig07", "--reps=-1"},
      {"bench", "fig07", "--jobs=-1"},
      {"bench", "fig07", "--nodes=-1"},
      {"bench", "fig07", "--machines=-4"},
      {"bench", "fig09", "--phases=-1"},
      {"bench", "ext_scale", "--jobs-per-knode=-1"},
      {"cluster", "--days=-1"},
      {"traces", "--out=" + path("t"), "--days=-1"},
      // "0 = off" durations: these used to run as off and exit 0.
      {"cluster", "--closed=-1"},
      {"profile", "--closed=-5"},
      {"faults", "--closed=-5"},
      {"faults", "--mtbf=-1"},
      {"faults", "--storm-every=-1"},
      {"faults", "--pressure-every=-10"},
  };
  for (const auto& args : cases) {
    const CliResult r = run(args);
    const std::string& flag = args.back();
    EXPECT_EQ(r.code, 1) << args[0] << " " << flag;
    EXPECT_EQ(r.err.rfind("llsim: ", 0), 0u) << args[0] << " " << flag;
    // Counts are refused by the flag parser, --days by the generator, and
    // "0 = off" durations by the subcommand, naming the flag.
    const std::string name = flag.substr(0, flag.find('='));
    if (name == "--days") continue;
    const bool count = name != "--closed" && name != "--mtbf" &&
                       name != "--storm-every" && name != "--pressure-every";
    const std::string expected =
        count ? "expected unsigned integer" : name + " must be >= 0";
    EXPECT_NE(r.err.find(expected), std::string::npos)
        << args[0] << " " << flag << ": " << r.err;
  }
}

TEST_F(CliTest, DeterministicAcrossInvocations) {
  const std::vector<std::string> args = {
      "cluster", "--policy=LL",     "--nodes=8",  "--jobs=8",
      "--demand=60", "--machines=4", "--days=0.2", "--seed=11"};
  EXPECT_EQ(run(args).out, run(args).out);
}

}  // namespace
}  // namespace ll::cli
