#include "cluster/experiment.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "stats/cdf.hpp"
#include "stats/summary.hpp"

namespace ll::cluster {

WorkloadSpec workload_1() { return WorkloadSpec{128, 600.0}; }

WorkloadSpec workload_2() { return WorkloadSpec{16, 1800.0}; }

void reduce_jobs(ClusterReport& report, const JobStore& jobs, bool open) {
  if (jobs.size() == 0) return;
  const auto n = static_cast<double>(jobs.size());
  for (const JobRecord& job : jobs) {
    if (job.state == JobState::Done) ++report.completed;
    report.avg_queued += job.time_in(JobState::Queued) / n;
    report.avg_running += job.time_in(JobState::Running) / n;
    report.avg_lingering += job.time_in(JobState::Lingering) / n;
    report.avg_paused += job.time_in(JobState::Paused) / n;
    report.avg_migrating += job.time_in(JobState::Migrating) / n;
    report.avg_checkpointing += job.time_in(JobState::Checkpointing) / n;
  }
  if (!open) return;
  stats::Summary turnaround;
  stats::Summary execution;
  std::vector<double> turnarounds;
  double family = 0.0;
  for (const JobRecord& job : jobs) {
    turnaround.add(job.turnaround());
    turnarounds.push_back(job.turnaround());
    execution.add(job.execution_time());
    family = std::max(family, *job.completion);
  }
  report.avg_completion = turnaround.mean();
  report.variation =
      execution.mean() > 0.0 ? execution.sample_stddev() / execution.mean() : 0.0;
  report.family_time = family;
  const stats::EmpiricalCdf cdf(std::move(turnarounds));
  report.p50_completion = cdf.quantile(0.5);
  report.p90_completion = cdf.quantile(0.9);
}

ClusterReport run_open(const ExperimentConfig& config,
                       const trace::TracePool& pool,
                       const workload::BurstTable& table,
                       JobStore* jobs_out,
                       const RunHooks* hooks) {
  ClusterSim sim(config.cluster, pool, table, run_stream(config));
  return drive(sim, config.workload, std::nullopt, hooks, jobs_out);
}

ClusterReport run_closed(const ExperimentConfig& config,
                         const trace::TracePool& pool,
                         const workload::BurstTable& table, double duration,
                         const RunHooks* hooks) {
  ClusterSim sim(config.cluster, pool, table, run_stream(config));
  return drive(sim, config.workload, duration, hooks);
}

void write_job_log(const JobStore& jobs, std::ostream& out) {
  out << "job,time,state\n";
  for (const JobRecord& job : jobs) {
    // The submission itself (Queued at submit_time) precedes the recorded
    // transitions.
    out << job.id << ',' << job.submit_time << ','
        << to_string(JobState::Queued) << '\n';
    for (const JobRecord::Transition& t : job.history) {
      out << job.id << ',' << t.time << ',' << to_string(t.to) << '\n';
    }
  }
}

void write_job_log(const JobStore& jobs, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_job_log: cannot open " + path);
  write_job_log(jobs, out);
}

}  // namespace ll::cluster
