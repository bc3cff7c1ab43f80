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
#include <type_traits>

#include "cluster/experiment.hpp"
#include "exp/bench_util.hpp"
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
    "  faults    cluster run that also prints its first replication's "
    "fault timeline\n"
    "  bench     run a registered experiment sweep (try: bench --list)\n"
    "  serve     long-running sweep service: NDJSON requests over TCP,\n"
    "            batched onto the shared runner, results cached by config "
    "digest\n";

/// Loads every .coarse file in a directory, sorted by name for determinism.
exp::TracePoolCache::PoolPtr load_trace_dir(const std::string& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".coarse") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<trace::CoarseTrace> traces;
  traces.reserve(paths.size());
  for (const fs::path& p : paths) {
    traces.push_back(trace::load_coarse(p.string()));
  }
  if (traces.empty()) {
    throw std::runtime_error("no .coarse traces found in " + dir);
  }
  return std::make_shared<const trace::TracePool>(std::move(traces));
}

constexpr std::string_view kQueueFlagHelp =
    "event-queue backend: heap or calendar (identical results either way)";

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
  exp::parse_args(flags, "llsim", args);
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
  exp::parse_args(flags, "llsim", args);
  if (dir->empty()) {
    throw std::invalid_argument("analyze: --dir is required\n" + flags.usage());
  }
  const auto pool = load_trace_dir(*dir);
  const auto stats = trace::analyze_coarse(pool->traces());
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
  const auto mem = trace::memory_availability(pool->traces());
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
  exp::parse_args(flags, "llsim", args);
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

// ---- cluster front ends ---------------------------------------------------

/// The flags every cluster front end shares, registered once: the scenario
/// field table, the engine flags (--shards, --queue, and --workers for a
/// sweep) and the pool flags (--traces, --burst-table).
class RunFlags {
 public:
  /// `sweep`: the subcommand runs every replication, so it takes --workers.
  RunFlags(util::Flags& flags, bool sweep)
      : scenario_(exp::ClusterScenario::add_flags(flags)),
        traces_(flags.add_string("traces", "",
                                 "trace directory (default: the synthetic "
                                 "pool of --machines x --days)")),
        burst_table_(flags.add_string("burst-table", "",
                                      "burst table file (default: built-in)")),
        queue_(flags.add_string("queue", "heap", kQueueFlagHelp)),
        shards_(flags.add_uint64("shards", 0,
                                 "run on the time-windowed sharded engine "
                                 "with this many shards (0 = monolithic); "
                                 "results are shard-count invariant")) {
    if (sweep) {
      workers_.emplace(flags.add_uint64(
          "workers", 0, "worker threads (0 = hardware concurrency)"));
    }
  }

  /// Reads the parsed flags into `scenario` (validated) and `engine`.
  void read(std::string_view subcommand) {
    scenario = scenario_();
    const exp::ClusterScenario defaults;
    if (!traces_->empty() && (scenario.machines != defaults.machines ||
                              scenario.days != defaults.days)) {
      throw std::invalid_argument(
          std::string(subcommand) +
          ": --traces replaces the synthetic pool; drop --machines and --days");
    }
    engine.shards = *shards_;
    engine.queue = parse_queue_flag(subcommand, *queue_);
    engine.runner = &util::TaskRunner::shared();
    workers = workers_ ? **workers_ : 0;
  }

  /// The first replication's seed: the run every single-run view describes.
  [[nodiscard]] std::uint64_t first_seed() const {
    return exp::replication_seed(scenario.seed, 0, 0);
  }

  /// True when no scenario, engine or pool flag but --queue was changed.
  [[nodiscard]] bool at_defaults() const {
    return scenario == exp::ClusterScenario{} && engine.shards == 0 &&
           workers == 0 && traces_->empty() && burst_table_->empty();
  }

  /// Runs the scenario's sweep, the one `llsim serve` runs, on the flags'
  /// pool, burst table and engine. run_sweep joins its own runner before
  /// returning, so `tracer` is quiescent after.
  exp::SweepResult sweep(exp::HookFactory hooks,
                         obs::Tracer* tracer = nullptr) const {
    const workload::BurstTable table =
        burst_table_->empty() ? workload::default_burst_table()
                              : workload::load_table(*burst_table_);
    exp::EngineOptions options;
    options.jobs = workers;
    options.tracer = tracer;
    const auto pool =
        traces_->empty() ? scenario.pool() : load_trace_dir(*traces_);
    return exp::run_sweep(scenario.spec(engine, pool, table, std::move(hooks)),
                          options);
  }

  /// A manifest whose config is the scenario's fields, the trace directory
  /// in place of the pool size it replaced, the burst table file and the
  /// shard count.
  [[nodiscard]] obs::RunManifest manifest(std::string tool,
                                          std::uint64_t seed) const {
    obs::RunManifest manifest;
    manifest.tool = std::move(tool);
    manifest.version = obs::current_git_describe();
    manifest.seed = seed;
    manifest.config = scenario.config();
    if (!traces_->empty()) {
      std::erase_if(manifest.config, [](const auto& pair) {
        return pair.first == "machines" || pair.first == "days";
      });
      manifest.config.emplace_back("traces", *traces_);
    }
    if (!burst_table_->empty()) {
      manifest.config.emplace_back("burst_table", *burst_table_);
    }
    if (engine.shards > 0) {
      manifest.config.emplace_back("shards", std::to_string(engine.shards));
    }
    return manifest;
  }

  exp::ClusterScenario scenario;
  exp::ClusterEngine engine;
  std::size_t workers = 0;

 private:
  std::function<exp::ClusterScenario()> scenario_;
  util::Flags::Handle<std::string> traces_;
  util::Flags::Handle<std::string> burst_table_;
  util::Flags::Handle<std::string> queue_;
  util::Flags::Handle<std::uint64_t> shards_;
  std::optional<util::Flags::Handle<std::uint64_t>> workers_;
};

template <class Sim>
constexpr bool kMonolithic =
    std::is_same_v<std::remove_cvref_t<Sim>, cluster::ClusterSim>;

/// Observes a sweep's first replication: its wall time, shard accounting
/// and, when kept, fault schedule and job records; given a manifest,
/// its metrics and the event-loop profile (monolithic engine, with an
/// optional tracer) or the sharded engine's "shards" section.
class FirstRun {
 public:
  FirstRun(std::uint64_t seed, obs::RunManifest* manifest,
           obs::Tracer* tracer = nullptr)
      : seed_(seed), manifest_(manifest), tracer_(tracer) {
    name_cluster_tags(profiler_);
  }
  FirstRun(const FirstRun&) = delete;
  FirstRun& operator=(const FirstRun&) = delete;

  /// The sweep's hook factory: hooks for the first replication only.
  [[nodiscard]] exp::HookFactory hooks() {
    return [this](std::uint64_t s) {
      if (s != seed_) return exp::ClusterHooks{};
      const auto on_start = [this](auto& sim) { start(sim); };
      const auto on_finish = [this](auto& sim) { finish(sim); };
      return exp::ClusterHooks{{on_start, on_finish}, {on_start, on_finish}};
    };
  }

  bool keep_faults = false;
  bool keep_jobs = false;
  fault::FaultSchedule faults;
  cluster::JobStore jobs;
  shard::ShardStats shard_stats;
  double shard_window = 0.0;
  double wall_seconds = 0.0;  ///< from the start hook to the finish hook
  std::string profile_table;  ///< the profiler's table (monolithic runs)

 private:
  template <class Sim>
  void start(Sim& sim) {
    if (keep_faults) faults = sim.fault_schedule();
    started_ = std::chrono::steady_clock::now();
    if (!manifest_) return;
    sim.set_metrics(&registry_);
    if constexpr (kMonolithic<Sim>) {
      sim.set_tracer(tracer_);
      sim.set_sim_observer(&profiler_);
    }
  }

  template <class Sim>
  void finish(Sim& sim) {
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started_)
                       .count();
    if (keep_jobs) jobs = sim.jobs();
    if constexpr (!kMonolithic<Sim>) {
      shard_stats = sim.stats();
      shard_window = sim.window_length();
    }
    if (!manifest_) return;
    manifest_->metrics = registry_.snapshot(sim.now());
    sim.set_metrics(nullptr);
    if constexpr (kMonolithic<Sim>) {
      // require_conserved: a profiled run double-checks the engine's event
      // conservation invariant (scheduled == fired + cancelled + pending).
      manifest_->profile =
          profiler_.snapshot(sim.engine(), /*require_conserved=*/true);
      profile_table = profiler_.render_table(sim.engine());
      sim.set_sim_observer(nullptr);
      sim.set_tracer(nullptr);
    } else {
      manifest_->shards = obs::ShardSection{
          shard_stats.shards, shard_stats.windows, shard_stats.mailbox_sent,
          shard_stats.mailbox_delivered, shard_stats.max_barrier_wait_ns};
    }
  }

  std::uint64_t seed_;
  obs::RunManifest* manifest_;
  obs::Tracer* tracer_;
  std::chrono::steady_clock::time_point started_;
  obs::MetricRegistry registry_;
  obs::EventLoopProfiler profiler_;
};

/// Sets a manifest's fault summary from the sweep's first replication.
void record_faults(obs::RunManifest& manifest, const exp::ClusterScenario& sc,
                   const exp::SweepResult& sweep) {
  if (!sc.faulty()) return;
  const exp::RunResult& first = sweep.cells.front().replications.front();
  manifest.goodput = first.get("goodput");
  manifest.work_lost = first.get("work_lost");
}

/// `llsim cluster`, and `llsim faults`: the same sweep, where faults also
/// prints the first replication's compiled fault timeline.
int cmd_cluster(const std::vector<std::string>& args, std::ostream& out,
                bool faults) {
  const std::string name = faults ? "faults" : "cluster";
  util::Flags flags("llsim " + name,
                    faults ? "Run `llsim cluster` and print its first "
                             "replication's pre-drawn fault timeline first."
                           : "Run sequential foreign jobs under a scheduling "
                             "policy.");
  RunFlags run(flags, /*sweep=*/true);
  auto job_log = flags.add_string(
      "job-log", "", "write the first replication's job log (open runs only)");
  auto metrics_out = flags.add_string(
      "metrics-out", "",
      "write a run manifest (JSON) of the instrumented first replication");
  auto json = flags.add_bool("json", false, "emit the sweep as JSON");
  exp::parse_args(flags, "llsim", args);
  run.read(name);
  const exp::ClusterScenario& sc = run.scenario;
  if (sc.closed > 0.0 && !job_log->empty()) {
    throw std::invalid_argument(name + ": --job-log logs open runs only; "
                                       "drop it or --closed");
  }

  obs::RunManifest manifest = run.manifest("llsim " + name, run.first_seed());
  FirstRun first(run.first_seed(), metrics_out->empty() ? nullptr : &manifest);
  first.keep_faults = faults;
  first.keep_jobs = !job_log->empty();
  const exp::SweepResult sweep = run.sweep(first.hooks());
  if (!job_log->empty()) {
    cluster::write_job_log(first.jobs, *job_log);
    out << "wrote job log to " << *job_log << "\n";
  }
  if (!metrics_out->empty()) {
    record_faults(manifest, sc, sweep);
    write_manifest_file(manifest, *metrics_out);
    out << "wrote run manifest to " << *metrics_out << "\n";
  }
  if (*json) {
    exp::write_json(sweep, out);
    return 0;
  }

  if (faults && sc.fault_plan().empty()) {
    out << "fault plan is empty — this is the fault-free baseline run\n\n";
  } else if (faults) {
    out << "compiled fault timeline (first replication, seed "
        << run.first_seed() << "):\n";
    first.faults.write_timeline(out);
    out << "\n";
  }
  const exp::CellResult& cell = sweep.cells.front();
  const std::size_t n = sc.reps;
  const auto mean = [&cell](std::string_view metric) {
    const auto* ci = cell.summary(metric);
    return ci ? ci->mean : 0.0;
  };
  // The mean, with its 95% half-width across replications.
  const auto with_ci = [&](std::string_view metric, int digits) {
    return util::fixed(mean(metric), digits) +
           (n > 1 ? util::format(" ± %.*f", digits,
                                 cell.summary(metric)->half_width)
                  : std::string());
  };
  // A count: exact for one run, a one-decimal mean across replications.
  const auto count = [&](std::string_view metric) {
    return util::fixed(mean(metric), n > 1 ? 1 : 0);
  };
  util::Table report({"metric", "value"});
  report.add_row({"policy", std::string(core::to_string(sc.policy))});
  if (run.engine.shards > 0) {
    const shard::ShardStats& stats = first.shard_stats;
    report.add_row({"shards", std::to_string(run.engine.shards)});
    report.add_row({"window (s)", util::format("%g", first.shard_window)});
    report.add_row({"windows run", std::to_string(stats.windows)});
    report.add_row({"mailbox sent / delivered",
                    std::to_string(stats.mailbox_sent) + " / " +
                        std::to_string(stats.mailbox_delivered)});
    report.add_row(
        {"max barrier wait (us)",
         util::format("%.1f",
                      static_cast<double>(stats.max_barrier_wait_ns) / 1e3)});
  }
  if (n > 1) report.add_row({"replications", std::to_string(n)});
  if (sc.closed > 0.0) {
    report.add_row({"mode", util::format("closed (%.0f s)", sc.closed)});
    report.add_row({"throughput (cpu-s/s)", with_ci("throughput", 2)});
    report.add_row({"completions", count("completed")});
  } else {
    report.add_row({"mode", "open (family)"});
    report.add_row({"avg job (s)", with_ci("avg_job", 1)});
    report.add_row({"p50 / p90 (s)",
                    util::format("%.1f / %.1f", mean("p50"), mean("p90"))});
    report.add_row({"variation", util::percent(mean("variation"), 1)});
    report.add_row({"family time (s)", util::fixed(mean("family"), 1)});
  }
  report.add_row({"migrations", count("migrations")});
  report.add_row({"foreground delay", util::percent(mean("fg_delay"), 2)});
  if (sc.closed <= 0.0) {
    report.add_row({"avg queued/running/lingering (s)",
                    util::format("%.0f / %.0f / %.0f", mean("queued"),
                                 mean("running"), mean("lingering"))});
  }
  if (sc.faulty()) {
    report.add_row({"crashes", count("crashes")});
    report.add_row({"restarts (re-queued jobs)", count("restarts")});
    report.add_row({"checkpoints taken", count("checkpoints")});
    report.add_row({"work lost (cpu-s)", util::fixed(mean("work_lost"), 1)});
    report.add_row({"goodput", util::percent(mean("goodput"), 2)});
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
  exp::parse_args(flags, "llsim", args);

  const auto policy = parse_width_policy(*policy_name);
  if (!policy) {
    throw std::invalid_argument(
        "parallel: unknown policy '" + *policy_name +
        "' (reconfigure, fixed-linger, hybrid)");
  }
  const auto pool = traces_dir->empty()
                        ? exp::TracePoolCache::shared().standard(
                              *machines, *days * 24.0, *seed + 1)
                        : load_trace_dir(*traces_dir);

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
  report.add_row(
      {"jobs completed", util::fixed(mean("completed"), n > 1 ? 1 : 0)});
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
      "Run the first replication of a cluster scenario instrumented and "
      "report where it goes: per-tag event-loop profile, sim-time metrics, "
      "optional timeline of the last tracer records.");
  RunFlags run(flags, /*sweep=*/false);
  auto timeline = flags.add_uint64(
      "timeline", 0,
      "if > 0: trace the run and print its last N job/node transitions");
  auto metrics_out = flags.add_string("metrics-out", "",
                                      "also write a run manifest (JSON)");
  auto json = flags.add_bool("json", false,
                             "emit the manifest JSON to stdout instead of "
                             "tables");
  exp::parse_args(flags, "llsim", args);
  run.read("profile");
  const exp::ClusterScenario& sc = run.scenario;
  if (sc.reps != 1 || run.engine.shards > 0) {
    throw std::invalid_argument(
        "profile: the event-loop profiler observes one monolithic-engine run; "
        "--reps must be 1 and --shards 0");
  }
  // --timeline=N: a flight recorder whose ring keeps the last N records
  // (at least 2: the tracer clamps its ring).
  std::optional<obs::Tracer> tracer;
  if (*timeline > 0) tracer.emplace(*timeline);
  obs::RunManifest manifest = run.manifest("llsim profile", run.first_seed());
  FirstRun first(run.first_seed(), &manifest, tracer ? &*tracer : nullptr);
  record_faults(manifest, sc, run.sweep(first.hooks()));
  const obs::ProfileSnapshot& profile = *manifest.profile;

  obs::Tracer::Snapshot snap;
  if (tracer) {
    snap = tracer->snapshot();
    manifest.trace = obs::TraceStats{snap.recorded, snap.dropped};
  }
  if (!metrics_out->empty()) write_manifest_file(manifest, *metrics_out);
  if (*json) {
    obs::write_manifest_json(manifest, out);
    return 0;
  }

  out << "event-loop profile (" << core::to_string(sc.policy) << ", "
      << sc.nodes << " nodes, " << sc.jobs << " jobs"
      << (sc.closed > 0.0 ? util::format(", closed %.0f s", sc.closed)
                          : std::string(", open"))
      << "):\n"
      << first.profile_table << "\n";
  // Wall-clock bracket of the run vs the callback share the profiler
  // attributed — the difference is engine/queue overhead.
  const double run_wall = first.wall_seconds;
  const double callbacks = profile.total_wall_seconds;
  const double per_wall_s = run_wall > 0.0 ? 1.0 / run_wall : 0.0;
  util::Table wall_table({"wall clock", "value"});
  wall_table.add_row({"run total (ms)", util::format("%.2f", run_wall * 1e3)});
  wall_table.add_row(
      {"event callbacks (ms)", util::format("%.2f", callbacks * 1e3)});
  wall_table.add_row(
      {"callback share", util::percent(callbacks * per_wall_s, 1)});
  wall_table.add_row(
      {"events per wall second",
       util::format("%.0f",
                    static_cast<double>(profile.total_fired) * per_wall_s)});
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
      "digest; otherwise runs the `llsim cluster` sweep with all four "
      "instrumented layers attached (DES fires, runner, cluster, exp "
      "cells).");
  RunFlags run(flags, /*sweep=*/true);
  auto scenario = flags.add_string(
      "scenario", "",
      "pinned verify scenario to trace (llverify --list); takes no scenario, "
      "engine or pool flag but --queue");
  auto out_path = flags.add_string("out", "",
                                   "trace JSON output path (required)");
  auto ring = flags.add_uint64("ring", 1 << 16,
                               "per-thread ring capacity in records "
                               "(flight recorder: oldest overwritten)");
  auto metrics_out = flags.add_string(
      "metrics-out", "", "also write a run manifest with trace accounting");
  exp::parse_args(flags, "llsim", args);
  run.read("trace");
  if (out_path->empty()) {
    throw std::invalid_argument("trace: --out is required\n" + flags.usage());
  }
  if (*ring < 2) throw std::invalid_argument("trace: --ring must be >= 2");

  obs::Tracer tracer(*ring);
  obs::RunManifest manifest = run.manifest("llsim trace", run.scenario.seed);
  if (!scenario->empty()) {
    if (!run.at_defaults()) {
      throw std::invalid_argument(
          "trace: --scenario replays a pinned verify scenario; of the "
          "scenario, engine and pool flags it takes only --queue");
    }
    // Scenario mode: the pinned verify scenario with the tracer's observer
    // chained in front of the digest/invariant chain — the digest printed
    // here must equal the committed golden (tracing is observational only).
    const verify::Scenario* sc = verify::find_scenario(*scenario);
    if (!sc) {
      throw std::invalid_argument("trace: unknown scenario '" + *scenario +
                                  "' (see llverify --list)");
    }
    verify::ScenarioOptions options;
    options.queue = run.engine.queue;
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
    manifest.seed = verify::kGoldenSeed;
    manifest.config = {{"scenario", *scenario}};
    out << "scenario " << sc->name << ": digest " << result.digest.hex()
        << ", " << result.events << " events, " << result.checks
        << " invariant checks\n";
  } else {
    // Sweep mode: the `llsim cluster` sweep with every instrumented layer
    // attached — per-tag fire spans and cluster virtual-time spans (or
    // shard:<k> window spans and shard.barrier instants on the sharded
    // engine), per-cell spans, and the work-stealing runner's
    // batch/steal/suspend spans.
    const auto traced_run = [&tracer](std::uint64_t) {
      // Per-replication fire-span observer, confined to the task running
      // it and detached before the simulator dies.
      auto observer = std::make_shared<obs::TracingObserver>(&tracer);
      name_cluster_tags(*observer);
      const auto on_start = [&tracer, observer](auto& sim) {
        sim.set_tracer(&tracer);
        if constexpr (kMonolithic<decltype(sim)>) {
          sim.set_sim_observer(observer.get());
        }
      };
      const auto on_finish = [](auto& sim) {
        if constexpr (kMonolithic<decltype(sim)>) sim.set_sim_observer(nullptr);
        sim.set_tracer(nullptr);
      };
      return exp::ClusterHooks{{on_start, on_finish}, {on_start, on_finish}};
    };
    (void)run.sweep(traced_run, &tracer);
    manifest.config.emplace_back("workers", std::to_string(run.workers));
  }
  manifest.config.emplace_back("ring", std::to_string(*ring));

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
    manifest.trace = obs::TraceStats{snap.recorded, snap.dropped};
    write_manifest_file(manifest, *metrics_out);
    out << "wrote run manifest to " << *metrics_out << "\n";
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
  exp::parse_args(flags, "llsim", args);
  // Values the server would narrow or could never honour: an out-of-range
  // port wraps to another one, a zero batch bound never dispatches (and so
  // never drains on shutdown), a zero queue rejects every request, a zero
  // cache keeps no result.
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
  if (*cache_entries == 0) {
    throw std::invalid_argument("serve: --cache-entries must be >= 1");
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
    if (cmd == "cluster") return cmd_cluster(rest, out, /*faults=*/false);
    if (cmd == "parallel") return cmd_parallel(rest, out);
    if (cmd == "profile") return cmd_profile(rest, out);
    if (cmd == "trace") return cmd_trace(rest, out);
    if (cmd == "faults") return cmd_cluster(rest, out, /*faults=*/true);
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
