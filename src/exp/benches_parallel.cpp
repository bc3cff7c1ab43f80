/// \file benches_parallel.cpp
/// Registered parallel benches: fig09 (BSP slowdown vs one busy node's
/// utilization), fig10 (slowdown vs synchronization granularity), fig11
/// (Linger-Longer widths vs reconfiguration), fig12 and fig13 (the sor/
/// water/fft application models), and ext_parallel_throughput (width
/// policies on a trace-driven cluster of parallel jobs).

#include <algorithm>
#include <cmath>

#include "exp/bench_util.hpp"
#include "exp/benches.hpp"
#include "exp/drivers.hpp"
#include "exp/registry.hpp"
#include "parallel/apps.hpp"
#include "parallel/bsp.hpp"
#include "parallel/reconfig.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

int run_fig09(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench fig09",
                    "BSP job slowdown vs one node's owner utilization.");
  auto phases = flags.add_uint64("phases", 200, "BSP iterations per point");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench fig09", args);

  const workload::BurstTable& table = workload::default_burst_table();
  parallel::BspConfig bsp;
  bsp.processes = 8;
  bsp.granularity = 0.1;  // 100 ms between synchronization phases
  bsp.phases = static_cast<std::size_t>(*phases);
  bsp.messages_per_process = 4;  // NEWS exchange

  ExperimentSpec spec;
  spec.name = "fig09: 8-process BSP slowdown vs local utilization";
  spec.axes = {"utilization"};
  apply_standard_flags(spec, std_flags);
  for (int pct = 0; pct <= 90; pct += 10) {
    const double u = pct / 100.0;
    spec.add_cell({{"utilization", util::percent(u, 0)}},
                  [bsp, u, &table](std::uint64_t seed) {
                    std::vector<double> utils(8, 0.0);
                    utils[0] = u;
                    const auto result = parallel::simulate_bsp(
                        bsp, utils, table, rng::Stream(seed));
                    RunResult r;
                    r.set("slowdown", result.slowdown());
                    return r;
                  });
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper: <=1.5x up to ~40% load on the one busy node; ~9-10x at "
             "90%.");
  if (!*std_flags.json) {
    util::ChartSeries curve{"slowdown", {}, {}};
    for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
      curve.xs.push_back(static_cast<double>(c) * 10.0);
      curve.ys.push_back(sweep.cells[c].summary("slowdown")->mean);
    }
    util::ChartOptions chart;
    chart.x_label = "local CPU utilization (%)";
    chart.y_label = "slowdown";
    out << "\n" << util::render_chart({curve}, chart);
  }
  return 0;
}

int run_fig11(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench fig11",
                    "LL(8/16/32) vs reconfiguration on 32 nodes.");
  auto util_flag = flags.add_double("util", 0.2, "owner load on busy nodes");
  auto work = flags.add_double("work", 38.4, "job size (cpu-seconds)");
  const StandardFlags std_flags = add_standard_flags(flags, 9);
  parse_args(flags, "llsim bench fig11", args);

  const workload::BurstTable& table = workload::default_burst_table();
  parallel::ReconfigScenario scenario;
  scenario.cluster_nodes = 32;
  scenario.nonidle_util = *util_flag;
  scenario.total_work = *work;
  scenario.bsp.granularity = 0.5;

  ExperimentSpec spec;
  spec.name = "fig11: Linger-Longer vs reconfiguration (32 nodes)";
  spec.axes = {"idle_nodes"};
  apply_standard_flags(spec, std_flags);
  for (int idle = 32; idle >= 0; --idle) {
    const auto idle_nodes = static_cast<std::size_t>(idle);
    spec.add_cell(
        {{"idle_nodes", std::to_string(idle)}},
        [scenario, idle_nodes, &table](std::uint64_t seed) {
          rng::Stream stream(seed);
          RunResult r;
          r.set("ll32", parallel::ll_completion(scenario, 32, idle_nodes,
                                                table, stream.fork("ll", 32)));
          r.set("ll16", parallel::ll_completion(scenario, 16, idle_nodes,
                                                table, stream.fork("ll", 16)));
          r.set("ll8", parallel::ll_completion(scenario, 8, idle_nodes, table,
                                               stream.fork("ll", 8)));
          r.set("reconfig", parallel::reconfig_completion(
                                scenario, idle_nodes, table,
                                stream.fork("rec")));
          return r;
        });
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper: with <= 5 busy nodes, lingering at width 32 beats "
             "shrinking to 16;\nsmaller widths are flat lines unaffected by "
             "owner returns.");
  if (*std_flags.json) return 0;

  util::ChartSeries s32{"LL-32", {}, {}};
  util::ChartSeries s16{"LL-16", {}, {}};
  util::ChartSeries s8{"LL-8", {}, {}};
  util::ChartSeries srec{"reconfig", {}, {}};
  for (const CellResult& cell : sweep.cells) {
    const double x = std::stod(cell.label("idle_nodes"));
    s32.xs.push_back(x);
    s32.ys.push_back(cell.summary("ll32")->mean);
    s16.xs.push_back(x);
    s16.ys.push_back(cell.summary("ll16")->mean);
    s8.xs.push_back(x);
    s8.ys.push_back(cell.summary("ll8")->mean);
    srec.xs.push_back(x);
    srec.ys.push_back(cell.summary("reconfig")->mean);
  }
  util::ChartOptions chart;
  chart.x_label = "idle nodes";
  chart.y_label = "completion time (s)";
  chart.y_min = 0.0;
  chart.y_max = 12.0;  // clip reconfig's collapse tail, as the paper does
  out << "\n" << util::render_chart({s32, s16, s8, srec}, chart);

  // The crossover the paper calls out: within the regime where
  // reconfiguration still runs 16-wide, how many busy nodes can LL-32
  // tolerate before shrinking would have been better?
  int tolerated = 0;
  for (int busy = 1; busy <= 16; ++busy) {
    const CellResult* cell =
        sweep.find({{"idle_nodes", std::to_string(32 - busy)}});
    if (cell &&
        cell->summary("ll32")->mean <= cell->summary("reconfig")->mean) {
      tolerated = busy;
    } else {
      break;
    }
  }
  out << "\nLL-32 beats reconfiguration for up to " << tolerated
      << " busy nodes (paper: 5).\n";
  return 0;
}

/// Paper Figure 10: slowdown of an 8-process bulk-synchronous job versus
/// synchronization granularity (computation between barriers, 10 ms-10 s)
/// when 1, 2, 4, or 8 of its nodes carry 20% owner load. Paper: coarser
/// granularity amortizes barrier penalties; even with 4 non-idle nodes the
/// slowdown stays under ~1.5 (versus >= 2 for reconfiguring down).
int run_fig10(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench fig10",
                    "BSP slowdown vs synchronization granularity.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto work = flags.add_double("work-per-point", 40.0,
                               "compute seconds per process per point");
  auto util_flag = flags.add_double("util", 0.2, "owner load on busy nodes");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  parse_args(flags, "llsim bench fig10", args);

  print_banner(out, "Figure 10: slowdown vs synchronization granularity",
               "Paper: larger granularity -> less slowdown; ~<1.5x with 4 "
               "busy nodes at 20%.",
               *seed);

  const double granularities[] = {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0};
  const std::size_t busy_counts[] = {1, 2, 4, 8};
  const auto& table = workload::default_burst_table();

  util::CsvWriter csv(*csv_path);
  csv.row({"granularity_ms", "busy_nodes", "slowdown"});

  util::Table slowdowns(
      {"granularity (ms)", "1 busy", "2 busy", "4 busy", "8 busy"});
  std::vector<util::ChartSeries> curves{
      {"1 busy", {}, {}}, {"2 busy", {}, {}}, {"4 busy", {}, {}},
      {"8 busy", {}, {}}};
  for (double g : granularities) {
    std::vector<std::string> row{util::fixed(g * 1e3, 0)};
    std::size_t ci = 0;
    for (std::size_t busy : busy_counts) {
      parallel::BspConfig bsp;
      bsp.processes = 8;
      bsp.granularity = g;
      // Hold total compute per point constant so every cell reflects the
      // same amount of work.
      bsp.phases = static_cast<std::size_t>(std::max(3.0, *work / g));
      bsp.messages_per_process = 4;
      std::vector<double> utils(8, 0.0);
      for (std::size_t i = 0; i < busy; ++i) utils[i] = *util_flag;
      const auto r = parallel::simulate_bsp(
          bsp, utils, table,
          rng::Stream(*seed).fork(
              "pt", busy * 1000 + static_cast<std::uint64_t>(g * 1e3)));
      row.push_back(util::fixed(r.slowdown(), 2));
      csv.row({util::fixed(g * 1e3, 1), std::to_string(busy),
               util::fixed(r.slowdown(), 4)});
      // Log-scale the x-axis by plotting against log10(granularity).
      curves[ci].xs.push_back(std::log10(g * 1e3));
      curves[ci].ys.push_back(r.slowdown());
      ++ci;
    }
    slowdowns.add_row(row);
  }
  util::ChartOptions chart;
  chart.x_label = "log10 granularity (ms)";
  chart.y_label = "slowdown";
  chart.y_min = 1.0;
  out << slowdowns.render() << "\n"
      << util::render_chart(curves, chart)
      << util::format("\n(busy nodes carry %.0f%% owner load; "
                      "reconfiguration to fewer nodes would cost >= 2x with "
                      "4 nodes unavailable)\n",
                      *util_flag * 100);
  return 0;
}

/// Paper Figure 12: slowdown of the three shared-memory applications (sor,
/// water, fft) running with Linger-Longer on an 8-node cluster, as the
/// number of non-idle nodes (0-8) and their local utilization (10-40%)
/// vary. Paper: one busy node at 40% costs at most ~1.7x; 4 busy nodes at
/// 20% cost ~1.5-1.6x; sor is most sensitive, fft least (communication time
/// is not stretched by local CPU activity).
int run_fig12(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench fig12",
                    "sor/water/fft slowdown vs busy nodes and load.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  parse_args(flags, "llsim bench fig12", args);

  print_banner(out, "Figure 12: application slowdown under lingering (8 nodes)",
               "Paper: sor most sensitive, fft least; ~1.5-1.6x with 4 busy "
               "nodes at 20%;\njust above 2x with all 8 busy at 20%.",
               *seed);

  const auto& table = workload::default_burst_table();
  util::CsvWriter csv(*csv_path);
  csv.row({"app", "local_util", "nonidle_nodes", "slowdown"});

  for (const parallel::AppModel& app : parallel::all_app_models(8)) {
    util::Table slowdowns({"busy nodes", "lusg 10%", "lusg 20%", "lusg 30%",
                           "lusg 40%"});
    for (std::size_t busy = 0; busy <= 8; ++busy) {
      std::vector<std::string> row{std::to_string(busy)};
      for (double u : {0.1, 0.2, 0.3, 0.4}) {
        const double s = parallel::app_slowdown(
            app, busy, u, table,
            rng::Stream(*seed).fork(
                app.name, busy * 100 + static_cast<std::uint64_t>(u * 100)));
        row.push_back(util::fixed(s, 2));
        csv.row({std::string(app.name), util::fixed(u, 1),
                 std::to_string(busy), util::fixed(s, 4)});
      }
      slowdowns.add_row(row);
    }
    out << app.name << ":\n" << slowdowns.render() << "\n";
  }
  return 0;
}

/// Paper Figure 13: Linger-Longer (widths 16 and 8) versus reconfiguration
/// for sor, water, and fft on a 16-node cluster, as idle nodes drop from 16
/// to 0 (non-idle nodes at 20% owner load). The y-axis is slowdown relative
/// to the app on 16 idle nodes. Paper: LL-16 wins while >= 12 nodes are
/// idle; below 8 idle nodes LL-8 is the best choice — suggesting a hybrid
/// linger+reconfigure strategy.
int run_fig13(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench fig13",
                    "LL(16/8) vs reconfiguration per application, 16 nodes.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto util_flag = flags.add_double("util", 0.2, "owner load on busy nodes");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  parse_args(flags, "llsim bench fig13", args);

  print_banner(out,
               "Figure 13: LL vs reconfiguration per application (16 nodes)",
               "Paper: LL-16 beats reconfiguration down to ~12 idle nodes; "
               "below 8 idle,\nLL-8 wins — motivating a hybrid strategy.",
               *seed);

  const auto& table = workload::default_burst_table();
  util::CsvWriter csv(*csv_path);
  csv.row({"app", "idle_nodes", "reconfig", "ll16", "ll8", "hybrid"});

  for (const parallel::AppModel& app : parallel::all_app_models(16)) {
    // The app's own phase profile defines the scenario's BSP template; total
    // work = phases x granularity x 16 processes.
    parallel::ReconfigScenario scenario;
    scenario.cluster_nodes = 16;
    scenario.nonidle_util = *util_flag;
    scenario.bsp = app.bsp;
    scenario.total_work = static_cast<double>(app.bsp.phases) *
                          app.bsp.granularity * 16.0;

    rng::Stream master = rng::Stream(*seed).fork(app.name);
    // Baseline: the job on all 16 nodes idle.
    const double ideal =
        parallel::ll_completion(scenario, 16, 16, table, master.fork("ideal"));

    util::Table slowdowns(
        {"idle nodes", "reconfig", "LL-16", "LL-8", "hybrid"});
    for (int idle = 16; idle >= 0; --idle) {
      const auto idle_nodes = static_cast<std::size_t>(idle);
      const double rec = parallel::reconfig_completion(
          scenario, idle_nodes, table, master.fork("rec", idle_nodes));
      const double ll16 = parallel::ll_completion(
          scenario, 16, idle_nodes, table, master.fork("ll16", idle_nodes));
      const double ll8 = parallel::ll_completion(
          scenario, 8, idle_nodes, table, master.fork("ll8", idle_nodes));
      // The hybrid strategy the paper's §5.2 suggests (our extension).
      const double hybrid = parallel::hybrid_completion(
          scenario, idle_nodes, table, master.fork("hyb", idle_nodes));
      slowdowns.add_row({std::to_string(idle), util::fixed(rec / ideal, 2),
                         util::fixed(ll16 / ideal, 2),
                         util::fixed(ll8 / ideal, 2),
                         util::fixed(hybrid / ideal, 2)});
      csv.row({std::string(app.name), std::to_string(idle),
               util::fixed(rec / ideal, 4), util::fixed(ll16 / ideal, 4),
               util::fixed(ll8 / ideal, 4), util::fixed(hybrid / ideal, 4)});
    }
    out << app.name << " (slowdown relative to 16 idle nodes):\n"
        << slowdowns.render() << "\n";
  }
  return 0;
}

/// The end-to-end evaluation of *cluster throughput for parallel jobs* that
/// the paper names as work in progress (§5, §7). A trace-driven cluster
/// holds a constant population of bulk-synchronous jobs under three width
/// policies: reconfigure (shrink to the largest power of two of idle nodes;
/// waits when nothing is idle), fixed-linger (always full width, lingering
/// on busy nodes), and hybrid (the paper's suggestion: the predicted-best
/// width at dispatch).
int run_ext_parallel_throughput(const std::vector<std::string>& args,
                                std::ostream& out) {
  util::Flags flags(
      "llsim bench ext_parallel_throughput",
      "Cluster throughput for parallel jobs (paper future work).");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto jobs_in_system =
      flags.add_uint64("jobs-in-system", 4, "parallel jobs held in system");
  auto work = flags.add_double("work", 300.0, "cpu-seconds per job");
  auto duration = flags.add_double("duration", 7200.0, "simulated seconds");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench ext_parallel_throughput", args);

  const workload::BurstTable& table = workload::default_burst_table();
  struct PoolSpec {
    const char* name;
    double hours;  // < 24 starts at 09:00 (working hours; busier nodes)
  };

  ExperimentSpec spec;
  spec.name = "ext_parallel_throughput: cluster throughput for parallel jobs";
  spec.axes = {"pool", "policy"};
  apply_standard_flags(spec, std_flags);
  for (const PoolSpec& pspec : {PoolSpec{"full-day pool", 24.0},
                                PoolSpec{"working-hours pool", 8.0}}) {
    const auto pool = TracePoolCache::shared().standard(
        static_cast<std::size_t>(*nodes), pspec.hours, *std_flags.seed + 1);
    for (parallel::WidthPolicy policy : {parallel::WidthPolicy::Reconfigure,
                                         parallel::WidthPolicy::FixedLinger,
                                         parallel::WidthPolicy::Hybrid}) {
      ParallelCellSpec cell;
      cell.cluster.node_count = static_cast<std::size_t>(*nodes);
      cell.cluster.policy = policy;
      cell.cluster.fixed_width = cell.cluster.node_count;
      cell.job.total_work = *work;
      cell.job.bsp.granularity = 0.5;
      cell.job.max_width = cell.cluster.node_count;
      cell.jobs_in_system = static_cast<std::size_t>(*jobs_in_system);
      cell.duration = *duration;
      spec.add_cell({{"pool", pspec.name},
                     {"policy", std::string(parallel::to_string(policy))}},
                    [cell, pool, &table](std::uint64_t seed) {
                      return parallel_cell(cell, pool, table, seed);
                    });
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "The paper argues lingering's strongest case is running more "
             "parallel jobs at\nonce; this closes the loop its §7 leaves "
             "open.");
  if (!*std_flags.json) {
    out << util::format(
        "\n%llu jobs x %.0f cpu-s held for %.0f s on %llu nodes. Hybrid runs "
        "several\nmedium-width jobs at once and lingers only where it pays; "
        "always-full-width\nlingering serializes the job stream, and "
        "reconfiguration leaves the non-idle\nnodes unused.\n",
        static_cast<unsigned long long>(*jobs_in_system), *work, *duration,
        static_cast<unsigned long long>(*nodes));
  }
  return 0;
}

}  // namespace

void register_parallel_benches(BenchRegistry& registry) {
  registry.add(Bench{"fig09", "Fig. 9 — BSP slowdown vs one busy node",
                     run_fig09});
  registry.add(Bench{"fig10", "Fig. 10 — slowdown vs sync granularity",
                     run_fig10});
  registry.add(Bench{"fig11", "Fig. 11 — LL vs reconfiguration, 32 nodes",
                     run_fig11});
  registry.add(
      Bench{"fig12", "Fig. 12 — sor/water/fft slowdown grids", run_fig12});
  registry.add(
      Bench{"fig13", "Fig. 13 — LL vs reconfiguration per app", run_fig13});
  registry.add(Bench{"ext_parallel_throughput",
                     "Extension — parallel-job cluster throughput "
                     "(reconfigure vs lingering vs hybrid)",
                     run_ext_parallel_throughput});
}

}  // namespace ll::exp
