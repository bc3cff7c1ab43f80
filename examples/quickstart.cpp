/// \file quickstart.cpp
/// Five-minute tour of the Linger-Longer library:
///   1. synthesize a pool of workstation traces,
///   2. run one foreign-job workload through two scheduling policies,
///   3. compare throughput and owner impact.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <cstdio>

#include "cluster/experiment.hpp"
#include "core/linger.hpp"
#include "util/table.hpp"

int main() {
  using namespace ll;

  // 1. A pool of synthetic workstation traces (the library ships a
  //    generator calibrated to the paper's trace statistics: ~46% of time
  //    non-idle, mostly at <10% CPU). One working day per machine.
  trace::CoarseGenConfig gen;
  gen.duration = 8 * 3600.0;
  gen.start_hour = 9.0;
  const trace::TracePool pool(
      trace::generate_machine_pool(gen, 16, rng::Stream(1)));
  const auto stats = trace::analyze_coarse(pool.traces());
  std::printf("Trace pool: %.0f%% of time non-idle, mean CPU %.1f%%\n\n",
              stats.nonidle_fraction * 100.0, stats.mean_cpu_overall * 100.0);

  // 2. 32 batch jobs of 600 CPU-seconds on a 16-node cluster, submitted as
  //    one family at t=0, under Linger-Longer and Immediate-Eviction.
  util::Table table({"policy", "avg job (s)", "family (s)", "migrations",
                     "owner delay"});
  for (auto policy : {core::PolicyKind::LingerLonger,
                      core::PolicyKind::ImmediateEviction}) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.policy = policy;
    cfg.workload = cluster::WorkloadSpec{32, 600.0};
    cfg.seed = 42;
    const auto report =
        cluster::run_open(cfg, pool, workload::default_burst_table());
    table.add_row({std::string(core::to_string(policy)),
                   util::fixed(report.avg_completion, 0),
                   util::fixed(report.family_time, 0),
                   std::to_string(report.migrations),
                   util::percent(report.foreground_delay, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Lingering runs jobs at starvation priority on busy nodes too, so the\n"
      "family finishes sooner while the owners barely notice.\n");
  return 0;
}
