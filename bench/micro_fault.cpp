/// \file micro_fault.cpp
/// google-benchmark microbenchmarks of the fault subsystem's opt-in cost.
/// The acceptance gate mirrors micro_obs: a ClusterSim built with a
/// default-constructed (empty) FaultSpec and checkpointing disabled must run
/// the fig07 event loop at its pre-fault speed — no extra events, no extra
/// rng draws, no per-event branches beyond the compiled-in `faults_active`
/// check. The third bench shows what an actually-faulty run costs for scale.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "cluster/experiment.hpp"
#include "core/policy.hpp"
#include "fault/fault_spec.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/trace_pool.hpp"
#include "workload/burst_table.hpp"

namespace {

using namespace ll;

constexpr std::size_t kNodes = 16;
constexpr std::uint64_t kSeed = 42;

const trace::TracePool& pool() {
  static const trace::TracePool p = [] {
    trace::CoarseGenConfig gen;
    gen.duration = 24.0 * 3600.0;
    return trace::TracePool(
        trace::generate_machine_pool(gen, kNodes, rng::Stream(kSeed + 1)));
  }();
  return p;
}

cluster::ExperimentConfig base_config() {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = kNodes;
  cfg.cluster.policy = core::PolicyKind::LingerLonger;
  cfg.workload = cluster::WorkloadSpec{kNodes * 2, 600.0};
  cfg.seed = kSeed;
  return cfg;
}

void run_open(benchmark::State& state, const cluster::ExperimentConfig& cfg) {
  const trace::TracePool& p = pool();
  const workload::BurstTable& table = workload::default_burst_table();
  for (auto _ : state) {
    const cluster::ClusterReport report = cluster::run_open(cfg, p, table);
    benchmark::DoNotOptimize(report.avg_completion);
    benchmark::DoNotOptimize(report.work_lost);
  }
}

// Baseline: the fault members exist in the binary but the spec is empty —
// the exact configuration every pre-existing bench and test runs with.
void BM_FaultEmptySpec(benchmark::State& state) {
  run_open(state, base_config());
}
BENCHMARK(BM_FaultEmptySpec)->Unit(benchmark::kMillisecond);

// Checkpointing armed but no faults: isolates the periodic-timer cost.
void BM_FaultCheckpointOnly(benchmark::State& state) {
  cluster::ExperimentConfig cfg = base_config();
  cfg.cluster.checkpoint.interval = 600.0;
  run_open(state, cfg);
}
BENCHMARK(BM_FaultCheckpointOnly)->Unit(benchmark::kMillisecond);

// Full fault plan at the bench's crash-heavy setting.
void BM_FaultFullPlan(benchmark::State& state) {
  cluster::ExperimentConfig cfg = base_config();
  cfg.cluster.faults.crash.arrivals =
      fault::ArrivalProcess::exponential(kNodes / 1800.0);
  cfg.cluster.faults.link.drop_probability = 0.05;
  cfg.cluster.checkpoint.interval = 600.0;
  run_open(state, cfg);
}
BENCHMARK(BM_FaultFullPlan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
