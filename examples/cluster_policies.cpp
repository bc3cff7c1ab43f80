/// \file cluster_policies.cpp
/// Full cluster-scheduling comparison on a configurable cluster: all four
/// policies (LL, LF, IE, PM), open-family and closed-throughput modes, with
/// per-state time breakdowns — the programmatic equivalent of the paper's
/// §4.2 evaluation, on your own parameters.
///
///   ./build/examples/cluster_policies --nodes=64 --jobs=128 --demand=600
///   ./build/examples/cluster_policies --help

#include <cstdio>

#include "cluster/experiment.hpp"
#include "core/linger.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("cluster_policies",
                    "Compare LL/LF/IE/PM on a simulated shared cluster.");
  auto nodes = flags.add_uint64("nodes", 64, "cluster size");
  auto jobs = flags.add_uint64("jobs", 128, "foreign jobs submitted at t=0");
  auto demand = flags.add_double("demand", 600.0, "CPU-seconds per job");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  auto hours = flags.add_double("trace-hours", 24.0, "trace length per machine");
  auto duration = flags.add_double("closed-duration", 3600.0,
                                   "seconds simulated for the throughput run");
  auto pause = flags.add_double("pause-time", 60.0, "PM grace period (s)");
  auto seed = flags.add_uint64("seed", 42, "master RNG seed");
  flags.parse(argc, argv);

  trace::CoarseGenConfig gen;
  gen.duration = *hours * 3600.0;
  gen.start_hour = *hours < 24.0 ? 9.0 : 0.0;
  const trace::TracePool pool(trace::generate_machine_pool(
      gen, static_cast<std::size_t>(*machines), rng::Stream(*seed)));
  const auto stats = trace::analyze_coarse(pool.traces());
  std::printf("pool: %zu machines x %.0f h, non-idle %.0f%%, mean cpu %.1f%% "
              "(idle %.1f%%, non-idle %.1f%%)\n\n",
              pool.size(), *hours, stats.nonidle_fraction * 100,
              stats.mean_cpu_overall * 100, stats.mean_cpu_idle * 100,
              stats.mean_cpu_nonidle * 100);

  util::Table open_table({"policy", "avg job (s)", "variation", "family (s)",
                          "migrations", "owner delay"});
  util::Table closed_table(
      {"policy", "throughput (cpu-s/s)", "completions", "owner delay"});
  util::Table breakdown(
      {"policy", "queued", "running", "lingering", "paused", "migrating"});

  for (auto policy :
       {core::PolicyKind::LingerLonger, core::PolicyKind::LingerForever,
        core::PolicyKind::ImmediateEviction, core::PolicyKind::PauseAndMigrate}) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
    cfg.cluster.policy = policy;
    cfg.cluster.policy_params.pause_time = *pause;
    cfg.workload =
        cluster::WorkloadSpec{static_cast<std::size_t>(*jobs), *demand};
    cfg.seed = *seed;

    const auto open =
        cluster::run_open(cfg, pool, workload::default_burst_table());
    open_table.add_row({std::string(core::to_string(policy)),
                        util::fixed(open.avg_completion, 0),
                        util::percent(open.variation, 1),
                        util::fixed(open.family_time, 0),
                        std::to_string(open.migrations),
                        util::percent(open.foreground_delay, 2)});
    breakdown.add_row({std::string(core::to_string(policy)),
                       util::fixed(open.avg_queued, 0),
                       util::fixed(open.avg_running, 0),
                       util::fixed(open.avg_lingering, 0),
                       util::fixed(open.avg_paused, 0),
                       util::fixed(open.avg_migrating, 0)});

    const auto closed = cluster::run_closed(
        cfg, pool, workload::default_burst_table(), *duration);
    closed_table.add_row({std::string(core::to_string(policy)),
                          util::fixed(closed.throughput, 1),
                          std::to_string(closed.completed),
                          util::percent(closed.foreground_delay, 2)});
  }

  std::printf("Open family run (%llu jobs x %.0f cpu-s):\n%s\n",
              static_cast<unsigned long long>(*jobs), *demand,
              open_table.render().c_str());
  std::printf("Average time per job in each state (s):\n%s\n",
              breakdown.render().c_str());
  std::printf("Closed system (%llu jobs held for %.0f s):\n%s",
              static_cast<unsigned long long>(*jobs), *duration,
              closed_table.render().c_str());
  return 0;
}
