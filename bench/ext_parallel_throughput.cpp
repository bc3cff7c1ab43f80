/// \file ext_parallel_throughput.cpp
/// Extension experiment: the end-to-end evaluation of *cluster throughput
/// for parallel jobs* that the paper names as work in progress (§5, §7).
///
/// A 32-node cluster replays workstation traces; a constant population of
/// bulk-synchronous jobs runs under three width policies:
///   reconfigure  — shrink to the largest power-of-two of idle nodes
///                  (Acha-style baseline; waits when nothing is idle),
///   fixed-linger — always full width, lingering on busy nodes,
///   hybrid       — the paper's suggested strategy: pick the predicted-best
///                  width at dispatch.
/// Reported: parallel work delivered per second, jobs finished per hour,
/// mean turnaround, and the widths/queue waits behind them.

#include <cstdio>

#include "common.hpp"
#include "exp/pool_cache.hpp"
#include "parallel/parallel_cluster.hpp"
#include "stats/summary.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("ext_parallel_throughput",
                    "Cluster throughput for parallel jobs (paper future work).");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto jobs_in_system =
      flags.add_uint64("jobs", 4, "parallel jobs held in system");
  auto work = flags.add_double("work", 300.0, "cpu-seconds per job");
  auto duration = flags.add_double("duration", 7200.0, "simulated seconds");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Extension: cluster throughput for parallel jobs",
                 "The paper argues lingering's strongest case is running "
                 "more parallel jobs at\nonce; this closes the loop its §7 "
                 "leaves open.",
                 *seed);

  util::CsvWriter csv(*csv_path);
  csv.row({"pool", "policy", "work_per_s", "jobs_per_hour", "mean_turnaround",
           "mean_width", "mean_queue_wait"});

  struct PoolSpec {
    const char* name;
    double hours;
  };
  for (const PoolSpec& spec :
       {PoolSpec{"full-day pool", 24.0}, PoolSpec{"working-hours pool", 8.0}}) {
    const auto pool = exp::TracePoolCache::shared().standard(
        static_cast<std::size_t>(*nodes), spec.hours, *seed + 1);

    util::Table out({"policy", "work/s", "jobs/h", "mean turnaround (s)",
                     "mean width", "mean queue wait (s)"});
    for (parallel::WidthPolicy policy :
         {parallel::WidthPolicy::Reconfigure, parallel::WidthPolicy::FixedLinger,
          parallel::WidthPolicy::Hybrid}) {
      parallel::ParallelClusterConfig cfg;
      cfg.node_count = static_cast<std::size_t>(*nodes);
      cfg.policy = policy;
      cfg.fixed_width = static_cast<std::size_t>(*nodes);

      parallel::ParallelJobSpec job;
      job.total_work = *work;
      job.bsp.granularity = 0.5;
      job.max_width = static_cast<std::size_t>(*nodes);

      parallel::ParallelClusterSim sim(cfg, *pool,
                                       workload::default_burst_table(),
                                       rng::Stream(*seed).fork(
                                           spec.name,
                                           static_cast<std::uint64_t>(policy)));
      sim.set_completion_callback(
          [&sim, job](const parallel::ParallelJobRecord&) { sim.submit(job); });
      for (std::uint64_t j = 0; j < *jobs_in_system; ++j) sim.submit(job);
      sim.run_for(*duration);

      stats::Summary turnaround;
      stats::Summary width;
      stats::Summary wait;
      std::size_t completed = 0;
      for (const auto& record : sim.jobs()) {
        if (!record.completion) continue;
        ++completed;
        turnaround.add(record.turnaround());
        width.add(static_cast<double>(record.width));
        wait.add(record.queue_wait());
      }
      const double per_hour =
          static_cast<double>(completed) * 3600.0 / *duration;
      out.add_row({std::string(parallel::to_string(policy)),
                   util::fixed(sim.delivered_work() / *duration, 2),
                   util::fixed(per_hour, 1), util::fixed(turnaround.mean(), 0),
                   util::fixed(width.mean(), 1), util::fixed(wait.mean(), 0)});
      csv.row({spec.name, std::string(parallel::to_string(policy)),
               util::fixed(sim.delivered_work() / *duration, 3),
               util::fixed(per_hour, 2), util::fixed(turnaround.mean(), 1),
               util::fixed(width.mean(), 2), util::fixed(wait.mean(), 1)});
    }
    std::printf("%s (%llu jobs x %.0f cpu-s held for %.0f s):\n%s\n",
                spec.name, static_cast<unsigned long long>(*jobs_in_system),
                *work, *duration, out.render().c_str());
  }
  return 0;
}
