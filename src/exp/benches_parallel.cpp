/// \file benches_parallel.cpp
/// Registered parallel benches: fig09 (BSP slowdown vs one busy node's
/// utilization) and fig11 (Linger-Longer widths vs reconfiguration).

#include "exp/bench_util.hpp"
#include "exp/benches.hpp"
#include "exp/registry.hpp"
#include "parallel/bsp.hpp"
#include "parallel/reconfig.hpp"
#include "util/ascii_chart.hpp"
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

}  // namespace

void register_parallel_benches(BenchRegistry& registry) {
  registry.add(Bench{"fig09", "Fig. 9 — BSP slowdown vs one busy node",
                     run_fig09});
  registry.add(Bench{"fig11", "Fig. 11 — LL vs reconfiguration, 32 nodes",
                     run_fig11});
}

}  // namespace ll::exp
