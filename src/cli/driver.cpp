#include "cli/driver.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>

#include "cluster/experiment.hpp"
#include "exp/drivers.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "serve/server.hpp"
#include "verify/scenarios.hpp"
#include "exp/engine.hpp"
#include "exp/pool_cache.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "exp/spec.hpp"
#include "trace/coarse_analysis.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/fit.hpp"
#include "workload/table_io.hpp"

namespace ll::cli {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kUsage =
    "llsim — Linger-Longer cluster-scheduling simulator\n"
    "\n"
    "Usage: llsim <subcommand> [flags]   (each subcommand accepts --help)\n"
    "\n"
    "Subcommands:\n"
    "  traces    synthesize workstation trace files\n"
    "  analyze   availability/memory statistics of a trace directory\n"
    "  fit       fit a 21-level burst table from a fine dispatch trace\n"
    "  cluster   run sequential foreign jobs under a scheduling policy\n"
    "  parallel  run parallel jobs under a width policy\n"
    "  profile   instrumented cluster run: event-loop profile + metrics\n"
    "  trace     flight-recorder capture: Chrome trace-event JSON "
    "(Perfetto)\n"
    "  faults    compile a fault plan, print its timeline, run one faulty "
    "scenario\n"
    "  bench     run a registered experiment sweep (try: bench --list)\n"
    "  serve     long-running sweep service: NDJSON requests over TCP,\n"
    "            batched onto the shared runner, results cached by config "
    "digest\n";

std::vector<const char*> to_argv(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"llsim"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return argv;
}

/// Loads every .coarse file in a directory, sorted by name for determinism.
exp::TracePoolCache::PoolPtr load_trace_dir(const std::string& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".coarse") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  auto pool = std::make_shared<std::vector<trace::CoarseTrace>>();
  pool->reserve(paths.size());
  for (const fs::path& p : paths) pool->push_back(trace::load_coarse(p.string()));
  if (pool->empty()) {
    throw std::runtime_error("no .coarse traces found in " + dir);
  }
  return pool;
}

/// Builds the pool either from --traces DIR or synthetically. Synthetic
/// pools come from the process-wide cache, so repeated runs (and registered
/// benches using the same dimensions) build each pool exactly once.
exp::TracePoolCache::PoolPtr pool_from_flags(const std::string& dir,
                                             std::size_t machines,
                                             double days, std::uint64_t seed) {
  if (!dir.empty()) return load_trace_dir(dir);
  return exp::TracePoolCache::shared().standard(machines, days * 24.0, seed);
}

/// Formats a replication-count metric: exact for single runs, one decimal
/// for means across replications.
std::string count_metric(double mean, std::size_t reps) {
  return util::fixed(mean, reps > 1 ? 1 : 0);
}

constexpr std::string_view kQueueFlagHelp =
    "event-queue backend: heap or calendar (identical results either way; "
    "calendar is faster at very large node counts)";

/// Parses a --queue flag value, throwing the subcommand's usage-style error.
des::QueueBackend parse_queue_flag(std::string_view subcommand,
                                   const std::string& value) {
  const auto backend = des::parse_queue_backend(value);
  if (!backend) {
    throw std::invalid_argument(std::string(subcommand) + ": unknown queue '" +
                                value + "' (heap, calendar)");
  }
  return *backend;
}

/// Rejects a negative value for a "0 = off" duration flag, which would
/// otherwise run silently as off.
void require_nonnegative(std::string_view subcommand, std::string_view flag,
                         double value) {
  if (!(value >= 0.0)) {
    throw std::invalid_argument(std::string(subcommand) + ": --" +
                                std::string(flag) + " must be >= 0");
  }
}

// ---- observability helpers ------------------------------------------------

/// Names the cluster engines' event tags on a profiler or tracing observer.
template <class Target>
void name_cluster_tags(Target& target) {
  target.name_tag(cluster::ClusterSim::kTagTick, "tick");
  target.name_tag(cluster::ClusterSim::kTagCompletion, "completion");
  target.name_tag(cluster::ClusterSim::kTagRecheck, "recheck");
  target.name_tag(cluster::ClusterSim::kTagMigration, "migration");
  target.name_tag(cluster::ClusterSim::kTagFault, "fault");
  target.name_tag(cluster::ClusterSim::kTagCheckpoint, "checkpoint");
}

/// Instruments one cluster run on either engine and records it into
/// `manifest` while the simulator is still alive. Both engines get a
/// metrics registry. The monolithic engine also gets the event-loop
/// profiler (with named tags) and an optional flight-recorder tracer; the
/// sharded one reports its barrier/mailbox accounting as the manifest's
/// "shards" section.
class RunInstruments {
 public:
  explicit RunInstruments(obs::RunManifest& manifest,
                          obs::Tracer* tracer = nullptr) {
    name_cluster_tags(profiler_);
    hooks_.monolithic.on_start = [this, tracer](cluster::ClusterSim& sim) {
      sim.set_metrics(&registry_);
      sim.set_tracer(tracer);
      sim.set_sim_observer(&profiler_);
    };
    hooks_.monolithic.on_finish = [this, &manifest](cluster::ClusterSim& sim) {
      // require_conserved: a profiled run double-checks the engine's event
      // conservation invariant (scheduled == fired + cancelled + pending).
      manifest.profile =
          profiler_.snapshot(sim.engine(), /*require_conserved=*/true);
      profile_table = profiler_.render_table(sim.engine());
      manifest.metrics = registry_.snapshot(sim.now());
      sim.set_sim_observer(nullptr);
      sim.set_metrics(nullptr);
      sim.set_tracer(nullptr);
    };
    hooks_.sharded.on_start = [this](shard::ShardedClusterSim& sim) {
      sim.set_metrics(&registry_);
    };
    hooks_.sharded.on_finish = [this, &manifest](shard::ShardedClusterSim& sim) {
      manifest.metrics = registry_.snapshot(sim.now());
      const shard::ShardStats& stats = sim.stats();
      obs::ShardSection section;
      section.count = stats.shards;
      section.windows = stats.windows;
      section.mailbox_sent = stats.mailbox_sent;
      section.mailbox_delivered = stats.mailbox_delivered;
      section.max_barrier_wait_ns = stats.max_barrier_wait_ns;
      manifest.shards = section;
      sim.set_metrics(nullptr);
    };
  }
  RunInstruments(const RunInstruments&) = delete;
  RunInstruments& operator=(const RunInstruments&) = delete;

  [[nodiscard]] const exp::ClusterHooks& hooks() const { return hooks_; }

  std::string profile_table;  ///< the profiler's table (monolithic runs)

 private:
  obs::MetricRegistry registry_;
  obs::EventLoopProfiler profiler_;
  exp::ClusterHooks hooks_;
};

void write_manifest_file(const obs::RunManifest& manifest,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path + " for writing");
  obs::write_manifest_json(manifest, file);
}

int cmd_traces(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim traces", "Synthesize workstation trace files.");
  auto machines = flags.add_uint64("machines", 16, "machines to synthesize");
  auto days = flags.add_double("days", 1.0, "days per machine");
  auto out_dir = flags.add_string("out", "", "output directory (required)");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  if (out_dir->empty()) {
    throw std::invalid_argument("traces: --out is required\n" + flags.usage());
  }
  fs::create_directories(*out_dir);
  trace::CoarseGenConfig gen;
  gen.duration = *days * 86400.0;
  const auto pool =
      trace::generate_machine_pool(gen, *machines, rng::Stream(*seed));
  for (std::size_t m = 0; m < pool.size(); ++m) {
    trace::save_coarse(pool[m], *out_dir + "/machine" + std::to_string(m) +
                                    ".coarse");
  }
  const auto stats = trace::analyze_coarse(pool);
  out << "wrote " << pool.size() << " traces (" << *days
      << " day(s) each) to " << *out_dir << "\n"
      << "non-idle " << util::percent(stats.nonidle_fraction, 1)
      << ", mean cpu " << util::percent(stats.mean_cpu_overall, 1) << "\n";
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim analyze", "Availability statistics of traces.");
  auto dir = flags.add_string("dir", "", "directory of .coarse traces");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  if (dir->empty()) {
    throw std::invalid_argument("analyze: --dir is required\n" + flags.usage());
  }
  const auto pool = load_trace_dir(*dir);
  const auto stats = trace::analyze_coarse(*pool);
  util::Table table({"metric", "value"});
  table.add_row({"traces", std::to_string(pool->size())});
  table.add_row({"samples", std::to_string(stats.sample_count)});
  table.add_row({"non-idle fraction", util::percent(stats.nonidle_fraction, 1)});
  table.add_row({"non-idle below 10% cpu",
                 util::percent(stats.nonidle_below_10pct, 1)});
  table.add_row({"mean cpu overall", util::percent(stats.mean_cpu_overall, 1)});
  table.add_row({"mean cpu idle (l)", util::percent(stats.mean_cpu_idle, 1)});
  table.add_row({"mean cpu non-idle (h)",
                 util::percent(stats.mean_cpu_nonidle, 1)});
  table.add_row({"mean idle episode",
                 util::format("%.0f s", stats.mean_idle_episode)});
  table.add_row({"mean non-idle episode",
                 util::format("%.0f s", stats.mean_nonidle_episode)});
  const auto mem = trace::memory_availability(*pool);
  table.add_row({">= 14 MB free",
                 util::percent(
                     trace::fraction_with_at_least(mem.all_kb, 14 * 1024), 1)});
  table.add_row({">= 10 MB free",
                 util::percent(
                     trace::fraction_with_at_least(mem.all_kb, 10 * 1024), 1)});
  out << table.render();
  return 0;
}

int cmd_fit(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim fit",
                    "Fit a 21-level burst table from a fine dispatch trace.");
  auto fine = flags.add_string("fine", "", "fine trace file (required)");
  auto out_path = flags.add_string("out", "", "burst-table output (required)");
  auto window = flags.add_double("window", 2.0, "bucketing window (s)");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  if (fine->empty() || out_path->empty()) {
    throw std::invalid_argument("fit: --fine and --out are required\n" +
                                flags.usage());
  }
  const trace::FineTrace dispatch = trace::load_fine(*fine);
  const auto analysis = workload::analyze_fine_trace(dispatch, *window);
  const workload::BurstTable table = analysis.to_table();
  workload::save_table(table, *out_path);
  std::size_t run_samples = 0;
  for (const auto& level : analysis.levels) run_samples += level.run.size();
  out << "fitted " << *out_path << " from " << dispatch.size()
      << " bursts (" << run_samples << " run samples), trace utilization "
      << util::percent(dispatch.utilization(), 1) << "\n";
  return 0;
}

int cmd_cluster(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim cluster",
                    "Run sequential foreign jobs under a scheduling policy.");
  const exp::ClusterScenario defaults;
  auto policy_name = flags.add_string("policy", core::to_string(defaults.policy),
                                      "LL, LF, IE, PM, or LL-oracle");
  auto nodes = flags.add_uint64("nodes", defaults.nodes, "cluster size");
  auto jobs = flags.add_uint64("jobs", defaults.jobs, "foreign jobs");
  auto demand = flags.add_double("demand", defaults.demand,
                                 "CPU-seconds per job");
  auto traces_dir = flags.add_string("traces", "", "trace directory (optional)");
  auto machines = flags.add_uint64("machines", defaults.machines,
                                   "synthetic machines if no dir");
  auto days = flags.add_double("days", defaults.days, "synthetic trace days");
  auto table_path = flags.add_string("burst-table", "",
                                     "burst table file (default: built-in)");
  auto closed = flags.add_double("closed", defaults.closed,
                                 "if > 0: closed-system run of this many "
                                 "seconds (throughput mode)");
  auto pause = flags.add_double("pause-time", defaults.pause,
                                "PM grace period");
  auto job_log = flags.add_string("job-log", "",
                                  "write per-job state transitions as CSV "
                                  "(open mode only)");
  auto metrics_out = flags.add_string(
      "metrics-out", "",
      "write a run manifest (JSON) from an instrumented re-run of the "
      "first replication");
  auto seed = flags.add_uint64("seed", defaults.seed, "RNG seed");
  auto reps = flags.add_uint64("reps", defaults.reps,
                               "replications (report means with 95% CIs)");
  auto workers = flags.add_uint64("workers", 0,
                                  "worker threads (0 = hardware concurrency)");
  auto json = flags.add_bool("json", false, "emit the sweep as JSON");
  auto queue_name = flags.add_string("queue", "heap", kQueueFlagHelp);
  auto shards = flags.add_uint64(
      "shards", 0,
      "run on the conservative time-windowed sharded engine with this many "
      "shards (0 = monolithic engine); results are shard-count invariant");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  require_nonnegative("cluster", "closed", *closed);

  exp::ClusterScenario sc;
  sc.policy = core::parse_policy_name(*policy_name);
  sc.nodes = *nodes;
  sc.jobs = *jobs;
  sc.demand = *demand;
  sc.machines = *machines;
  sc.days = *days;
  sc.closed = *closed;
  sc.pause = *pause;
  sc.reps = *reps;
  sc.seed = *seed;
  exp::ClusterEngine engine;
  engine.shards = *shards;
  engine.queue = parse_queue_flag("cluster", *queue_name);
  const auto pool = traces_dir->empty() ? sc.pool() : load_trace_dir(*traces_dir);
  const workload::BurstTable table = table_path->empty()
                                         ? workload::default_burst_table()
                                         : workload::load_table(*table_path);

  // The sweep `llsim serve` and `llsim trace` run too. The first
  // replication also reports its shard accounting for the table below.
  const std::uint64_t first_seed = exp::replication_seed(sc.seed, 0, 0);
  shard::ShardStats shard_stats;
  double shard_window = 0.0;
  const auto first_run_hooks = [&](std::uint64_t s) {
    exp::ClusterHooks hooks;
    if (s == first_seed) {
      hooks.sharded.on_finish = [&](shard::ShardedClusterSim& sim) {
        shard_stats = sim.stats();
        shard_window = sim.window_length();
      };
    }
    return hooks;
  };
  exp::EngineOptions options;
  options.jobs = *workers;
  const exp::SweepResult sweep =
      exp::run_sweep(sc.spec(engine, pool, table, first_run_hooks), options);
  const exp::CellResult& cell = sweep.cells.front();
  const std::size_t n = sc.reps;
  const auto mean = [&cell](std::string_view metric) {
    const auto* ci = cell.summary(metric);
    return ci ? ci->mean : 0.0;
  };

  // The job log and the manifest each document one concrete run: the first
  // replication, re-run alone with its sweep-derived seed (top-level, so
  // shard windows may use the shared runner).
  exp::ClusterEngine rerun = engine;
  rerun.runner = &util::TaskRunner::shared();
  if (sc.closed <= 0.0 && !job_log->empty()) {
    cluster::JobStore job_records;
    (void)sc.run_one(first_seed, rerun, *pool, table, nullptr, &job_records);
    cluster::write_job_log(job_records, *job_log);
    out << "wrote job log to " << *job_log << "\n";
  }
  if (!metrics_out->empty()) {
    obs::RunManifest manifest;
    manifest.tool = "llsim cluster";
    manifest.version = obs::current_git_describe();
    manifest.seed = first_seed;
    manifest.config = {
        {"policy", std::string(core::to_string(sc.policy))},
        {"nodes", std::to_string(*nodes)},
        {"jobs", std::to_string(*jobs)},
        {"demand", util::format("%g", *demand)},
        {"closed", util::format("%g", *closed)},
        {"master_seed", std::to_string(*seed)},
    };
    if (engine.shards > 0) {
      manifest.config.emplace_back("shards", std::to_string(engine.shards));
    }
    RunInstruments instruments(manifest);
    (void)sc.run_one(first_seed, rerun, *pool, table, &instruments.hooks());
    write_manifest_file(manifest, *metrics_out);
    out << "wrote run manifest to " << *metrics_out << "\n";
  }
  if (*json) {
    exp::write_json(sweep, out);
    return 0;
  }

  util::Table report({"metric", "value"});
  report.add_row({"policy", std::string(core::to_string(sc.policy))});
  if (engine.shards > 0) {
    report.add_row({"shards", std::to_string(engine.shards)});
    report.add_row({"window (s)", util::format("%g", shard_window)});
    report.add_row({"windows run", std::to_string(shard_stats.windows)});
    report.add_row(
        {"mailbox sent / delivered",
         util::format(
             "%llu / %llu",
             static_cast<unsigned long long>(shard_stats.mailbox_sent),
             static_cast<unsigned long long>(shard_stats.mailbox_delivered))});
    report.add_row(
        {"max barrier wait (us)",
         util::format("%.1f",
                      static_cast<double>(shard_stats.max_barrier_wait_ns) /
                          1e3)});
  }
  if (n > 1) report.add_row({"replications", std::to_string(n)});
  if (sc.closed > 0.0) {
    report.add_row({"mode", util::format("closed (%.0f s)", sc.closed)});
    std::string throughput = util::fixed(mean("throughput"), 2);
    if (n > 1) {
      throughput +=
          util::format(" ± %.2f", cell.summary("throughput")->half_width);
    }
    report.add_row({"throughput (cpu-s/s)", throughput});
    report.add_row({"completions", count_metric(mean("completed"), n)});
    report.add_row({"migrations", count_metric(mean("migrations"), n)});
    report.add_row({"foreground delay", util::percent(mean("fg_delay"), 2)});
  } else {
    report.add_row({"mode", "open (family)"});
    std::string avg_job = util::fixed(mean("avg_job"), 1);
    if (n > 1) {
      avg_job += util::format(" ± %.1f", cell.summary("avg_job")->half_width);
    }
    report.add_row({"avg job (s)", avg_job});
    report.add_row({"p50 / p90 (s)",
                    util::format("%.1f / %.1f", mean("p50"), mean("p90"))});
    report.add_row({"variation", util::percent(mean("variation"), 1)});
    report.add_row({"family time (s)", util::fixed(mean("family"), 1)});
    report.add_row({"migrations", count_metric(mean("migrations"), n)});
    report.add_row({"foreground delay", util::percent(mean("fg_delay"), 2)});
    report.add_row({"avg queued/running/lingering (s)",
                    util::format("%.0f / %.0f / %.0f", mean("queued"),
                                 mean("running"), mean("lingering"))});
  }
  out << report.render();
  return 0;
}

int cmd_parallel(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim parallel",
                    "Run parallel jobs under a width policy.");
  auto policy_name = flags.add_string(
      "policy", "hybrid", "reconfigure, fixed-linger, or hybrid");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto jobs = flags.add_uint64("jobs", 4, "jobs held in the system");
  auto work = flags.add_double("work", 300.0, "cpu-seconds per job");
  auto granularity = flags.add_double("granularity", 0.5,
                                      "sync granularity (s)");
  auto duration = flags.add_double("duration", 3600.0, "simulated seconds");
  auto traces_dir = flags.add_string("traces", "", "trace directory (optional)");
  auto machines =
      flags.add_uint64("machines", 32, "synthetic machines if no dir");
  auto days = flags.add_double("days", 1.0, "synthetic trace days");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto reps = flags.add_uint64("reps", 1,
                               "replications (report means with 95% CIs)");
  auto workers = flags.add_uint64("workers", 0,
                                  "worker threads (0 = hardware concurrency)");
  auto metrics_out = flags.add_string(
      "metrics-out", "",
      "write a run manifest (JSON) from an instrumented re-run of the "
      "first replication");
  auto json = flags.add_bool("json", false, "emit the sweep as JSON");
  auto queue_name = flags.add_string("queue", "heap", kQueueFlagHelp);
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());

  const auto policy = parse_width_policy(*policy_name);
  if (!policy) {
    throw std::invalid_argument(
        "parallel: unknown policy '" + *policy_name +
        "' (reconfigure, fixed-linger, hybrid)");
  }
  const auto pool = pool_from_flags(*traces_dir, *machines, *days, *seed + 1);

  exp::ParallelCellSpec cell_spec;
  cell_spec.cluster.node_count = *nodes;
  cell_spec.cluster.queue = parse_queue_flag("parallel", *queue_name);
  cell_spec.cluster.policy = *policy;
  cell_spec.cluster.fixed_width = cell_spec.cluster.node_count;
  cell_spec.job.total_work = *work;
  cell_spec.job.bsp.granularity = *granularity;
  cell_spec.job.max_width = cell_spec.cluster.node_count;
  cell_spec.jobs_in_system = *jobs;
  cell_spec.duration = *duration;

  exp::ExperimentSpec spec;
  spec.name = "parallel";
  spec.seed = *seed;
  spec.replications = *reps;
  spec.axes = {"policy"};
  spec.add_cell({{"policy", std::string(parallel::to_string(*policy))}},
                [cell_spec, pool](std::uint64_t s) {
                  return exp::parallel_cell(cell_spec, pool,
                                            workload::default_burst_table(),
                                            s);
                });
  exp::EngineOptions options;
  options.jobs = *workers;
  const exp::SweepResult sweep = exp::run_sweep(spec, options);
  if (!metrics_out->empty()) {
    obs::MetricRegistry registry;
    obs::EventLoopProfiler profiler;
    profiler.name_tag(parallel::ParallelClusterSim::kTagPhase, "phase");
    profiler.name_tag(parallel::ParallelClusterSim::kTagRetry, "retry");
    obs::RunManifest manifest;
    exp::ParallelRunHooks hooks;
    hooks.on_start = [&](parallel::ParallelClusterSim& sim) {
      sim.set_metrics(&registry);
      sim.set_sim_observer(&profiler);
    };
    hooks.on_finish = [&](parallel::ParallelClusterSim& sim) {
      manifest.profile =
          profiler.snapshot(sim.engine(), /*require_conserved=*/true);
      manifest.metrics = registry.snapshot(sim.now());
      sim.set_sim_observer(nullptr);
      sim.set_metrics(nullptr);
    };
    const std::uint64_t rep_seed = exp::replication_seed(*seed, 0, 0);
    (void)exp::parallel_cell(cell_spec, pool,
                             workload::default_burst_table(), rep_seed,
                             &hooks);
    manifest.tool = "llsim parallel";
    manifest.version = obs::current_git_describe();
    manifest.seed = rep_seed;
    manifest.config = {
        {"policy", std::string(parallel::to_string(*policy))},
        {"nodes", std::to_string(*nodes)},
        {"jobs", std::to_string(*jobs)},
        {"work", util::format("%g", *work)},
        {"granularity", util::format("%g", *granularity)},
        {"duration", util::format("%g", *duration)},
        {"master_seed", std::to_string(*seed)},
    };
    write_manifest_file(manifest, *metrics_out);
    out << "wrote run manifest to " << *metrics_out << "\n";
  }
  if (*json) {
    exp::write_json(sweep, out);
    return 0;
  }
  const exp::CellResult& cell = sweep.cells.front();
  const std::size_t n = spec.replications;
  const auto mean = [&cell](std::string_view metric) {
    const auto* ci = cell.summary(metric);
    return ci ? ci->mean : 0.0;
  };

  util::Table report({"metric", "value"});
  report.add_row({"policy", std::string(parallel::to_string(*policy))});
  if (n > 1) report.add_row({"replications", std::to_string(n)});
  std::string delivered = util::fixed(mean("work_per_s"), 2);
  if (n > 1) {
    delivered +=
        util::format(" ± %.2f", cell.summary("work_per_s")->half_width);
  }
  report.add_row({"work delivered (cpu-s/s)", delivered});
  report.add_row({"jobs completed", count_metric(mean("completed"), n)});
  if (mean("completed") > 0.0) {
    report.add_row({"mean turnaround (s)",
                    util::fixed(mean("mean_turnaround"), 1)});
    report.add_row({"mean width", util::fixed(mean("mean_width"), 1)});
  }
  out << report.render();
  return 0;
}

int cmd_profile(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags(
      "llsim profile",
      "Run one instrumented cluster simulation and report where it goes: "
      "per-tag event-loop profile, sim-time metrics, optional timeline of "
      "the last tracer records.");
  const exp::ClusterScenario defaults;
  auto policy_name = flags.add_string("policy", core::to_string(defaults.policy),
                                      "LL, LF, IE, PM, or LL-oracle");
  auto nodes = flags.add_uint64("nodes", defaults.nodes, "cluster size");
  auto jobs = flags.add_uint64("jobs", defaults.jobs, "foreign jobs");
  auto demand = flags.add_double("demand", defaults.demand,
                                 "CPU-seconds per job");
  auto closed = flags.add_double("closed", defaults.closed,
                                 "if > 0: closed-system run of this many "
                                 "seconds");
  auto traces_dir = flags.add_string("traces", "", "trace directory (optional)");
  auto machines = flags.add_uint64("machines", defaults.machines,
                                   "synthetic machines if no dir");
  auto days = flags.add_double("days", defaults.days, "synthetic trace days");
  auto timeline = flags.add_uint64(
      "timeline", 0,
      "if > 0: trace the run and print its last N job/node transitions");
  auto metrics_out = flags.add_string("metrics-out", "",
                                      "also write a run manifest (JSON)");
  auto seed = flags.add_uint64("seed", defaults.seed, "RNG seed");
  auto json = flags.add_bool("json", false,
                             "emit the manifest JSON to stdout instead of "
                             "tables");
  auto queue_name = flags.add_string("queue", "heap", kQueueFlagHelp);
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  require_nonnegative("profile", "closed", *closed);

  exp::ClusterScenario sc;
  sc.policy = core::parse_policy_name(*policy_name);
  sc.nodes = *nodes;
  sc.jobs = *jobs;
  sc.demand = *demand;
  sc.machines = *machines;
  sc.days = *days;
  sc.closed = *closed;
  sc.seed = *seed;
  exp::ClusterEngine engine;
  engine.queue = parse_queue_flag("profile", *queue_name);
  const auto pool = traces_dir->empty() ? sc.pool() : load_trace_dir(*traces_dir);

  // --timeline=N: a flight recorder whose ring keeps the last N records
  // (at least 2: the tracer clamps its ring).
  std::optional<obs::Tracer> tracer;
  if (*timeline > 0) tracer.emplace(*timeline);
  obs::RunManifest manifest;
  manifest.tool = "llsim profile";
  manifest.version = obs::current_git_describe();
  manifest.seed = *seed;
  manifest.config = {
      {"policy", std::string(core::to_string(sc.policy))},
      {"nodes", std::to_string(*nodes)},
      {"jobs", std::to_string(*jobs)},
      {"demand", util::format("%g", *demand)},
      {"closed", util::format("%g", *closed)},
  };
  RunInstruments instruments(manifest, tracer ? &*tracer : nullptr);
  const auto wall_start = std::chrono::steady_clock::now();
  (void)sc.run_one(sc.seed, engine, *pool, workload::default_burst_table(),
                   &instruments.hooks());
  const double run_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const obs::ProfileSnapshot& profile = *manifest.profile;

  obs::Tracer::Snapshot snap;
  if (tracer) {
    snap = tracer->snapshot();
    manifest.trace = obs::TraceStats{snap.recorded, snap.dropped};
  }
  if (!metrics_out->empty()) {
    write_manifest_file(manifest, *metrics_out);
  }
  if (*json) {
    obs::write_manifest_json(manifest, out);
    return 0;
  }

  out << "event-loop profile (" << *policy_name << ", " << *nodes
      << " nodes, " << *jobs << " jobs"
      << (*closed > 0.0 ? util::format(", closed %.0f s", *closed)
                        : std::string(", open"))
      << "):\n"
      << instruments.profile_table << "\n";
  // Wall-clock bracket of the whole run vs the callback share the profiler
  // attributed — the difference is engine/queue overhead plus setup.
  util::Table wall_table({"wall clock", "value"});
  wall_table.add_row({"run total (ms)", util::format("%.2f", run_wall * 1e3)});
  wall_table.add_row({"event callbacks (ms)",
                      util::format("%.2f", profile.total_wall_seconds *
                                               1e3)});
  wall_table.add_row(
      {"callback share",
       util::percent(run_wall > 0.0
                         ? profile.total_wall_seconds / run_wall
                         : 0.0,
                     1)});
  wall_table.add_row(
      {"events per wall second",
       util::format("%.0f",
                    run_wall > 0.0
                        ? static_cast<double>(profile.total_fired) /
                              run_wall
                        : 0.0)});
  out << wall_table.render() << "\n";
  util::Table metrics_table({"metric", "kind", "value", "mean"});
  for (const obs::MetricSample& s : manifest.metrics) {
    metrics_table.add_row(
        {s.name, std::string(obs::to_string(s.kind)),
         util::format("%.6g", s.value),
         s.kind == obs::MetricKind::kTimeWeighted ? util::format("%.6g", s.mean)
                                                  : std::string()});
  }
  out << metrics_table.render();
  if (tracer) {
    // One thread recorded every record, so the snapshot is in emission
    // order: oldest first, by virtual time (a span's end).
    const std::size_t shown =
        std::min<std::size_t>(*timeline, snap.records.size());
    out << "\ntimeline (last " << shown << " of " << snap.recorded
        << " tracer records):\n";
    if (snap.recorded > shown) {
      out << "(" << snap.recorded - shown << " earlier records dropped)\n";
    }
    for (auto it = snap.records.end() - static_cast<std::ptrdiff_t>(shown);
         it != snap.records.end(); ++it) {
      const obs::TraceRecord& r = it->rec;
      std::string when = util::format("%12.6f", r.v0);
      if (r.kind == obs::TraceKind::kVirtualSpan) {
        when += util::format(" .. %.6f", r.v1);
      }
      out << util::format("%-28s  %-23s  %llu\n", when.c_str(),
                          snap.labels[r.label].c_str(),
                          static_cast<unsigned long long>(r.arg));
    }
  }
  if (!metrics_out->empty()) {
    out << "\nwrote run manifest to " << *metrics_out << "\n";
  }
  return 0;
}

int cmd_trace(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags(
      "llsim trace",
      "Capture a flight-recorder trace as Chrome trace-event JSON "
      "(loadable in Perfetto / chrome://tracing; summarize with lltrace). "
      "With --scenario, traces one pinned verify scenario and reports its "
      "digest; otherwise runs an instrumented cluster sweep covering all "
      "four instrumented layers (DES fires, runner, cluster, exp cells).");
  auto scenario = flags.add_string(
      "scenario", "", "pinned verify scenario to trace (llverify --list)");
  auto out_path = flags.add_string("out", "",
                                   "trace JSON output path (required)");
  auto ring = flags.add_uint64("ring", 1 << 16,
                               "per-thread ring capacity in records "
                               "(flight recorder: oldest overwritten)");
  auto policy_name = flags.add_string("policy", "LL",
                                      "LL, LF, IE, PM, or LL-oracle");
  auto nodes = flags.add_uint64("nodes", 16, "cluster size (sweep mode)");
  auto jobs = flags.add_uint64("jobs", 32, "foreign jobs (sweep mode)");
  auto demand = flags.add_double("demand", 600.0, "CPU-seconds per job");
  auto machines = flags.add_uint64("machines", 16, "synthetic trace machines");
  auto days = flags.add_double("days", 1.0, "synthetic trace days");
  auto reps = flags.add_uint64("reps", 2, "replications (sweep mode)");
  auto workers = flags.add_uint64("workers", 2,
                                  "worker threads (0 = hardware concurrency)");
  auto seed = flags.add_uint64("seed", 42, "RNG seed (sweep mode)");
  auto metrics_out = flags.add_string(
      "metrics-out", "", "also write a run manifest with trace accounting");
  auto queue_name = flags.add_string("queue", "heap", kQueueFlagHelp);
  auto shards = flags.add_uint64(
      "shards", 0,
      "sweep mode: trace the sharded engine with this many shards "
      "(shard:<k> spans + shard.barrier instants; 0 = monolithic)");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  if (out_path->empty()) {
    throw std::invalid_argument("trace: --out is required\n" + flags.usage());
  }
  if (*ring < 2) {
    throw std::invalid_argument("trace: --ring must be >= 2");
  }

  obs::Tracer tracer(*ring);
  std::vector<std::pair<std::string, std::string>> config;

  if (!scenario->empty()) {
    // Scenario mode: the pinned verify scenario with the tracer's observer
    // chained in front of the digest/invariant chain — the digest printed
    // here must equal the committed golden (tracing is observational only).
    const verify::Scenario* sc = verify::find_scenario(*scenario);
    if (!sc) {
      throw std::invalid_argument("trace: unknown scenario '" + *scenario +
                                  "' (see llverify --list)");
    }
    verify::ScenarioOptions options;
    options.queue = parse_queue_flag("trace", *queue_name);
    std::vector<std::unique_ptr<obs::TracingObserver>> observers;
    options.wrap_observer = [&](des::SimObserver* inner) {
      observers.push_back(
          std::make_unique<obs::TracingObserver>(&tracer, inner));
      return observers.back().get();
    };
    options.cluster_hook = [&](cluster::ClusterSim& sim) {
      sim.set_tracer(&tracer);
    };
    const verify::ScenarioResult result = sc->run(options);
    config = {{"scenario", *scenario},
              {"ring", std::to_string(*ring)}};
    out << "scenario " << sc->name << ": digest " << result.digest.hex()
        << ", " << result.events << " events, " << result.checks
        << " invariant checks\n";
  } else {
    // Sweep mode: the `llsim cluster` sweep with every instrumented layer
    // attached — per-tag fire spans and cluster virtual-time spans (or
    // shard:<k> window spans and shard.barrier instants on the sharded
    // engine), per-cell spans, and the work-stealing runner's
    // batch/steal/suspend spans.
    exp::ClusterScenario sc;
    sc.policy = core::parse_policy_name(*policy_name);
    sc.nodes = *nodes;
    sc.jobs = *jobs;
    sc.demand = *demand;
    sc.machines = *machines;
    sc.days = *days;
    sc.reps = *reps;
    sc.seed = *seed;
    exp::ClusterEngine engine;
    engine.shards = *shards;
    engine.queue = parse_queue_flag("trace", *queue_name);
    const auto traced_run = [&tracer](std::uint64_t) {
      // Per-replication fire-span observer, confined to the task running
      // it and detached before the simulator dies.
      auto observer = std::make_shared<obs::TracingObserver>(&tracer);
      name_cluster_tags(*observer);
      exp::ClusterHooks hooks;
      hooks.monolithic.on_start = [&tracer,
                                   observer](cluster::ClusterSim& sim) {
        sim.set_tracer(&tracer);
        sim.set_sim_observer(observer.get());
      };
      hooks.monolithic.on_finish = [](cluster::ClusterSim& sim) {
        sim.set_sim_observer(nullptr);
        sim.set_tracer(nullptr);
      };
      hooks.sharded.on_start = [&tracer](shard::ShardedClusterSim& sim) {
        sim.set_tracer(&tracer);
      };
      hooks.sharded.on_finish = [](shard::ShardedClusterSim& sim) {
        sim.set_tracer(nullptr);
      };
      return hooks;
    };
    exp::EngineOptions options;
    options.jobs = *workers;
    options.tracer = &tracer;
    // run_sweep destroys its local runner before returning, so the tracer
    // is quiescent here and safe to export.
    (void)exp::run_sweep(
        sc.spec(engine, sc.pool(), workload::default_burst_table(),
                traced_run),
        options);
    config = {
        {"policy", std::string(core::to_string(sc.policy))},
        {"nodes", std::to_string(*nodes)},
        {"jobs", std::to_string(*jobs)},
        {"reps", std::to_string(*reps)},
        {"workers", std::to_string(*workers)},
        {"ring", std::to_string(*ring)},
        {"master_seed", std::to_string(*seed)},
    };
    if (*shards > 0) {
      config.emplace_back("shards", std::to_string(*shards));
    }
  }

  const obs::Tracer::Snapshot snap = tracer.snapshot();
  {
    std::ofstream file(*out_path);
    if (!file) {
      throw std::runtime_error("cannot open " + *out_path + " for writing");
    }
    obs::Tracer::write_chrome_json(snap, file);
  }
  out << "wrote " << (snap.recorded - snap.dropped) << " of " << snap.recorded
      << " records (" << snap.dropped << " dropped, " << snap.threads
      << " thread ring(s)) to " << *out_path << "\n";

  if (!metrics_out->empty()) {
    obs::RunManifest manifest;
    manifest.tool = "llsim trace";
    manifest.version = obs::current_git_describe();
    manifest.seed = scenario->empty() ? *seed : verify::kGoldenSeed;
    manifest.config = std::move(config);
    obs::TraceStats trace_stats;
    trace_stats.tracer_recorded = snap.recorded;
    trace_stats.tracer_dropped = snap.dropped;
    manifest.trace = trace_stats;
    write_manifest_file(manifest, *metrics_out);
    out << "wrote run manifest to " << *metrics_out << "\n";
  }
  return 0;
}

int cmd_faults(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim faults",
                    "Compile a fault plan, print its pre-drawn timeline, and "
                    "run one faulty cluster scenario.");
  auto policy_name = flags.add_string("policy", "LL",
                                      "LL, LF, IE, PM, or LL-oracle");
  auto nodes = flags.add_uint64("nodes", 16, "cluster size");
  auto jobs = flags.add_uint64("jobs", 32, "foreign jobs");
  auto demand = flags.add_double("demand", 600.0, "CPU-seconds per job");
  auto mtbf = flags.add_double(
      "mtbf", 1800.0, "per-node mean time between crashes (s, 0 = none)");
  auto downtime = flags.add_double("downtime", 120.0,
                                   "mean crash downtime (s)");
  auto drop = flags.add_double("drop", 0.05,
                               "migration-link drop probability");
  auto checkpoint = flags.add_double("checkpoint", 600.0,
                                     "checkpoint interval (s, 0 = off)");
  auto storm_every = flags.add_double(
      "storm-every", 0.0, "mean s between reclamation storms (0 = off)");
  auto pressure_every = flags.add_double(
      "pressure-every", 0.0,
      "mean s between memory-pressure spikes (0 = off)");
  auto closed = flags.add_double("closed", 0.0,
                                 "if > 0: closed-system run of this many "
                                 "seconds (throughput mode)");
  auto traces_dir = flags.add_string("traces", "", "trace directory (optional)");
  auto machines =
      flags.add_uint64("machines", 16, "synthetic machines if no dir");
  auto days = flags.add_double("days", 1.0, "synthetic trace days");
  auto metrics_out = flags.add_string("metrics-out", "",
                                      "also write a run manifest (JSON)");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto queue_name = flags.add_string("queue", "heap", kQueueFlagHelp);
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  require_nonnegative("faults", "mtbf", *mtbf);
  require_nonnegative("faults", "storm-every", *storm_every);
  require_nonnegative("faults", "pressure-every", *pressure_every);
  require_nonnegative("faults", "closed", *closed);

  const core::PolicyKind policy = core::parse_policy_name(*policy_name);

  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = *nodes;
  cfg.cluster.queue = parse_queue_flag("faults", *queue_name);
  cfg.cluster.policy = policy;
  cfg.workload = cluster::WorkloadSpec{*jobs, *demand};
  cfg.seed = *seed;
  if (*mtbf > 0.0) {
    cfg.cluster.faults.crash.arrivals = fault::ArrivalProcess::exponential(
        static_cast<double>(cfg.cluster.node_count) / *mtbf);
    cfg.cluster.faults.crash.mean_downtime = *downtime;
  }
  cfg.cluster.faults.link.drop_probability = *drop;
  if (*storm_every > 0.0) {
    cfg.cluster.faults.storm.arrivals =
        fault::ArrivalProcess::exponential(1.0 / *storm_every);
  }
  if (*pressure_every > 0.0) {
    cfg.cluster.faults.pressure.arrivals =
        fault::ArrivalProcess::exponential(1.0 / *pressure_every);
  }
  cfg.cluster.checkpoint.interval = *checkpoint;
  // Refuse an unbounded fault plan before spending time on the pool.
  cfg.cluster.faults.validate();
  const auto pool = pool_from_flags(*traces_dir, *machines, *days, *seed + 1);

  obs::MetricRegistry registry;
  std::vector<obs::MetricSample> metrics;
  cluster::RunHooks hooks;
  hooks.on_start = [&](cluster::ClusterSim& sim) {
    if (cfg.cluster.faults.empty()) {
      out << "fault plan is empty — this is the fault-free baseline run\n\n";
    } else {
      out << "compiled fault timeline (seed " << *seed << "):\n";
      sim.fault_schedule().write_timeline(out);
      out << "\n";
    }
    sim.set_metrics(&registry);
  };
  hooks.on_finish = [&](cluster::ClusterSim& sim) {
    metrics = registry.snapshot(sim.now());
    sim.set_metrics(nullptr);
  };
  const cluster::ClusterReport report =
      *closed > 0.0
          ? cluster::run_closed(cfg, *pool, workload::default_burst_table(),
                                *closed, &hooks)
          : cluster::run_open(cfg, *pool, workload::default_burst_table(),
                              nullptr, &hooks);

  util::Table table({"metric", "value"});
  table.add_row({"policy", std::string(core::to_string(policy))});
  table.add_row({"mode", *closed > 0.0
                             ? util::format("closed (%.0f s)", *closed)
                             : std::string("open (family)")});
  if (*closed > 0.0) {
    table.add_row({"throughput (cpu-s/s)", util::fixed(report.throughput, 2)});
  } else {
    table.add_row({"avg job (s)", util::fixed(report.avg_completion, 1)});
    table.add_row({"family time (s)", util::fixed(report.family_time, 1)});
  }
  table.add_row({"crashes", std::to_string(report.crashes)});
  table.add_row({"restarts (re-queued jobs)", std::to_string(report.restarts)});
  table.add_row({"checkpoints taken", std::to_string(report.checkpoints)});
  table.add_row({"work lost (cpu-s)", util::fixed(report.work_lost, 1)});
  table.add_row({"goodput", util::percent(report.goodput, 2)});
  table.add_row({"migrations", std::to_string(report.migrations)});
  table.add_row({"foreground delay", util::percent(report.foreground_delay, 2)});
  out << table.render();

  if (!metrics_out->empty()) {
    obs::RunManifest manifest;
    manifest.tool = "llsim faults";
    manifest.version = obs::current_git_describe();
    manifest.seed = *seed;
    manifest.config = {
        {"policy", std::string(core::to_string(policy))},
        {"nodes", std::to_string(*nodes)},
        {"jobs", std::to_string(*jobs)},
        {"demand", util::format("%g", *demand)},
        {"mtbf", util::format("%g", *mtbf)},
        {"downtime", util::format("%g", *downtime)},
        {"drop", util::format("%g", *drop)},
        {"checkpoint", util::format("%g", *checkpoint)},
        {"storm_every", util::format("%g", *storm_every)},
        {"pressure_every", util::format("%g", *pressure_every)},
        {"closed", util::format("%g", *closed)},
    };
    manifest.metrics = std::move(metrics);
    manifest.goodput = report.goodput;
    manifest.work_lost = report.work_lost;
    write_manifest_file(manifest, *metrics_out);
    out << "\nwrote run manifest to " << *metrics_out << "\n";
  }
  return 0;
}

// ---- serve ----------------------------------------------------------------

/// Self-pipe for SIGINT/SIGTERM: the handler only write()s (async-signal-
/// safe); the main thread blocks on the read end and runs the graceful
/// drain itself.
int g_serve_signal_fd = -1;

void serve_signal_handler(int /*sig*/) {
  const char byte = 1;
  if (g_serve_signal_fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_serve_signal_fd, &byte, 1);
  }
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim serve",
                    "Serve sweep requests as newline-delimited JSON over "
                    "TCP (see DESIGN.md §13; drive it with tools/llload).");
  auto host = flags.add_string("host", "127.0.0.1", "bind address");
  auto port = flags.add_int("port", 0, "TCP port (0 = pick an ephemeral one)");
  auto port_file = flags.add_string(
      "port-file", "", "write the bound port to this file (for scripts)");
  auto queue_depth = flags.add_uint64("queue-depth", 256,
                                      "admission queue bound (full = reject "
                                      "with retry_after_ms)");
  auto batch_max = flags.add_uint64("batch-max", 32,
                                    "max requests per dispatcher batch");
  auto cache_entries = flags.add_uint64("cache-entries", 256,
                                        "result cache capacity (LRU beyond)");
  auto max_request = flags.add_uint64("max-request", 65536,
                                      "max request line length in bytes");
  auto retry_ms = flags.add_int("retry-after-ms", 25,
                                "backpressure hint sent on rejection");
  auto workers = flags.add_uint64("workers", 0,
                                  "dedicated runner threads (0 = the shared "
                                  "hardware-sized pool)");
  auto argv = to_argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  // Values the server would narrow or could never honour: an out-of-range
  // port wraps to another one, a zero batch bound never dispatches (and so
  // never drains on shutdown), a zero queue rejects every request.
  if (*port < 0 || *port > 65535) {
    throw std::invalid_argument("serve: --port must be in [0, 65535]");
  }
  constexpr int kMaxRetryMs = std::numeric_limits<int>::max();
  if (*retry_ms < 0 || *retry_ms > kMaxRetryMs) {
    throw std::invalid_argument("serve: --retry-after-ms must be in [0, " +
                                std::to_string(kMaxRetryMs) + "]");
  }
  if (*batch_max == 0) {
    throw std::invalid_argument("serve: --batch-max must be >= 1");
  }
  if (*queue_depth == 0) {
    throw std::invalid_argument("serve: --queue-depth must be >= 1");
  }

  std::unique_ptr<util::TaskRunner> own_runner;
  if (*workers > 0) {
    own_runner = std::make_unique<util::TaskRunner>(*workers);
  }
  serve::ServerConfig config;
  config.host = *host;
  config.port = static_cast<int>(*port);
  config.queue_capacity = *queue_depth;
  config.batch_max = *batch_max;
  config.cache_capacity = *cache_entries;
  config.max_request_bytes = *max_request;
  config.retry_after_ms = static_cast<int>(*retry_ms);
  config.runner = own_runner.get();
  serve::Server server(config);
  server.start();

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }
  g_serve_signal_fd = pipe_fds[1];
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int {}, old_term {};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);

  out << "llsim serve: listening on " << config.host << ":" << server.port()
      << "\n";
  out.flush();
  if (!port_file->empty()) {
    std::ofstream f(*port_file);
    f << server.port() << "\n";
  }

  char byte = 0;
  while (::read(pipe_fds[0], &byte, 1) < 0 && errno == EINTR) {
  }
  out << "llsim serve: draining\n";
  out.flush();
  server.shutdown();

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_serve_signal_fd = -1;
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  out << "llsim serve: final stats " << server.stats_json() << "\n";
  return 0;
}

}  // namespace

std::optional<parallel::WidthPolicy> parse_width_policy(std::string_view name) {
  if (name == "reconfigure") return parallel::WidthPolicy::Reconfigure;
  if (name == "fixed-linger") return parallel::WidthPolicy::FixedLinger;
  if (name == "hybrid") return parallel::WidthPolicy::Hybrid;
  return std::nullopt;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h" ||
        args[0] == "help") {
      out << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string& cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "traces") return cmd_traces(rest, out);
    if (cmd == "analyze") return cmd_analyze(rest, out);
    if (cmd == "fit") return cmd_fit(rest, out);
    if (cmd == "cluster") return cmd_cluster(rest, out);
    if (cmd == "parallel") return cmd_parallel(rest, out);
    if (cmd == "profile") return cmd_profile(rest, out);
    if (cmd == "trace") return cmd_trace(rest, out);
    if (cmd == "faults") return cmd_faults(rest, out);
    if (cmd == "serve") return cmd_serve(rest, out);
    if (cmd == "bench") return exp::run_bench_cli(rest, out, err);
    err << "llsim: unknown subcommand '" << cmd << "'\n\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "llsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ll::cli
