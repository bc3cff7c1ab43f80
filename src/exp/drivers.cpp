#include "exp/drivers.hpp"

#include "stats/summary.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {

RunResult open_metrics(const cluster::ClusterReport& report) {
  RunResult r;
  r.set("avg_job", report.avg_completion);
  r.set("variation", report.variation);
  r.set("family", report.family_time);
  r.set("p50", report.p50_completion);
  r.set("p90", report.p90_completion);
  r.set("queued", report.avg_queued);
  r.set("running", report.avg_running);
  r.set("lingering", report.avg_lingering);
  r.set("paused", report.avg_paused);
  r.set("migrating", report.avg_migrating);
  r.set("fg_delay", report.foreground_delay);
  r.set("migrations", static_cast<double>(report.migrations));
  return r;
}

RunResult closed_metrics(const cluster::ClusterReport& report) {
  RunResult r;
  r.set("throughput", report.throughput);
  r.set("completed", static_cast<double>(report.completed));
  r.set("fg_delay", report.foreground_delay);
  r.set("migrations", static_cast<double>(report.migrations));
  return r;
}

RunResult cluster_cell(const cluster::ExperimentConfig& config,
                       const TracePoolCache::PoolPtr& pool,
                       const workload::BurstTable& table,
                       double closed_duration) {
  RunResult r = open_metrics(cluster::run_open(config, *pool, table));
  const auto closed = cluster::run_closed(config, *pool, table, closed_duration);
  r.set("throughput", closed.throughput);
  return r;
}

void add_fault_metrics(RunResult& r, const cluster::ClusterReport& report) {
  r.set("goodput", report.goodput);
  r.set("work_lost", report.work_lost);
  r.set("restarts", static_cast<double>(report.restarts));
  r.set("crashes", static_cast<double>(report.crashes));
  r.set("checkpoints", static_cast<double>(report.checkpoints));
}

RunResult fault_cell(const cluster::ExperimentConfig& config,
                     const TracePoolCache::PoolPtr& pool,
                     const workload::BurstTable& table,
                     double closed_duration) {
  RunResult r = open_metrics(cluster::run_open(config, *pool, table));
  const auto closed = cluster::run_closed(config, *pool, table, closed_duration);
  r.set("throughput", closed.throughput);
  add_fault_metrics(r, closed);
  return r;
}

RunResult parallel_cell(const ParallelCellSpec& spec,
                        const TracePoolCache::PoolPtr& pool,
                        const workload::BurstTable& table,
                        std::uint64_t seed, const ParallelRunHooks* hooks) {
  parallel::ParallelClusterSim sim(spec.cluster, *pool, table,
                                   rng::Stream(seed));
  if (hooks && hooks->on_start) hooks->on_start(sim);
  const parallel::ParallelJobSpec job = spec.job;
  sim.set_completion_callback(
      [&sim, job](const parallel::ParallelJobRecord&) { sim.submit(job); });
  for (std::size_t j = 0; j < spec.jobs_in_system; ++j) sim.submit(job);
  sim.run_for(spec.duration);
  if (hooks && hooks->on_finish) hooks->on_finish(sim);

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
  RunResult r;
  r.set("work_per_s", sim.delivered_work() / spec.duration);
  r.set("completed", static_cast<double>(completed));
  r.set("jobs_per_hour",
        static_cast<double>(completed) * 3600.0 / spec.duration);
  r.set("mean_turnaround", completed ? turnaround.mean() : 0.0);
  r.set("mean_width", completed ? width.mean() : 0.0);
  r.set("mean_queue_wait", completed ? wait.mean() : 0.0);
  return r;
}

}  // namespace ll::exp
