/// \file parallel_linger.cpp
/// Parallel jobs on a partially busy cluster: how much does lingering on
/// non-idle nodes cost a barrier-synchronized application, and when does it
/// beat shrinking the job (reconfiguration)? Exercises the BSP model, the
/// sor/water/fft application profiles, and the reconfiguration comparison
/// (paper §5).
///
///   ./build/examples/parallel_linger --util=0.2 --cluster=32

#include <cstdio>
#include <vector>

#include "parallel/apps.hpp"
#include "parallel/reconfig.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("parallel_linger",
                    "Lingering vs reconfiguration for parallel jobs.");
  auto util_flag = flags.add_double("util", 0.2, "owner load on busy nodes");
  auto cluster = flags.add_uint64("cluster", 32, "cluster size");
  auto work = flags.add_double("work", 38.4, "job size in CPU-seconds");
  auto seed = flags.add_uint64("seed", 7, "RNG seed");
  flags.parse(argc, argv);

  const auto& table = workload::default_burst_table();
  rng::Stream master(*seed);

  // --- 1. Application slowdown when some of its nodes are busy -----------
  std::printf("Slowdown of 8-process applications vs number of busy nodes "
              "(owner load %.0f%%):\n",
              *util_flag * 100);
  util::Table slow({"app", "0 busy", "1", "2", "4", "8"});
  for (const parallel::AppModel& app : parallel::all_app_models(8)) {
    std::vector<std::string> row{std::string(app.name)};
    for (std::size_t busy : {0u, 1u, 2u, 4u, 8u}) {
      const double s = parallel::app_slowdown(app, busy, *util_flag, table,
                                              master.fork(app.name, busy));
      row.push_back(util::fixed(s, 2));
    }
    slow.add_row(row);
  }
  std::printf("%s\n", slow.render().c_str());

  // --- 2. Linger-Longer vs reconfiguration -------------------------------
  parallel::ReconfigScenario scenario;
  scenario.cluster_nodes = static_cast<std::size_t>(*cluster);
  scenario.nonidle_util = *util_flag;
  scenario.total_work = *work;
  scenario.bsp.granularity = 0.5;

  std::printf("Completion time (s) of a %.1f cpu-s job on a %llu-node "
              "cluster:\n",
              *work, static_cast<unsigned long long>(*cluster));
  util::Table cmp({"idle nodes", "LL-32", "LL-16", "LL-8", "reconfig"});
  for (std::size_t idle = scenario.cluster_nodes;; idle -= 4) {
    std::vector<std::string> row{std::to_string(idle)};
    for (std::size_t width : {32u, 16u, 8u}) {
      if (width > scenario.cluster_nodes) {
        row.push_back("-");
        continue;
      }
      const double t = parallel::ll_completion(scenario, width, idle, table,
                                               master.fork("ll", idle * 64 + width));
      row.push_back(util::fixed(t, 2));
    }
    row.push_back(util::fixed(
        parallel::reconfig_completion(scenario, idle, table,
                                      master.fork("rec", idle)),
        2));
    cmp.add_row(row);
    if (idle == 0) break;
  }
  std::printf("%s\n", cmp.render().c_str());
  std::printf(
      "Reading the table: while enough idle nodes exist the policies tie;\n"
      "as owners return, reconfiguration halves the job's width at every\n"
      "power-of-two boundary while Linger-Longer degrades smoothly by\n"
      "stealing fine-grain idle cycles on the busy nodes.\n");
  return 0;
}
