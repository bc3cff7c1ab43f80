/// \file micro_substrate.cpp
/// google-benchmark microbenchmarks of the simulator substrate: event-queue
/// throughput, distribution sampling, workload generation, and the two
/// simulation granularities. These guard the performance properties that
/// make the full-figure benches (64 nodes x hours x policies) effectively
/// instant.

#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/experiment.hpp"
#include "des/simulation.hpp"
#include "node/fine_node_sim.hpp"
#include "rng/distributions.hpp"
#include "trace/coarse_generator.hpp"
#include "workload/local_workload.hpp"

namespace {

using namespace ll;

void BM_DesScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 104729),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DesScheduleFire)->Arg(1000)->Arg(100000);

// Companion to BM_DesScheduleFire: identical workload with an observer
// attached. The unobserved benchmark above measures the cost of the
// nullptr-checked hook (which must stay within noise of the pre-observer
// engine); the delta between the two is the true cost of observation.
void BM_DesScheduleFireObserved(benchmark::State& state) {
  struct CountingObserver final : des::SimObserver {
    std::uint64_t schedules = 0;
    std::uint64_t fires = 0;
    void on_schedule(double, des::EventId, std::uint64_t) override {
      ++schedules;
    }
    void on_fire(double, des::EventId, std::uint64_t) override { ++fires; }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    CountingObserver obs;
    sim.set_observer(&obs);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 104729),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(obs.fires);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DesScheduleFireObserved)->Arg(1000)->Arg(100000);

void BM_DesCancellation(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulation sim;
    std::vector<des::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(sim.schedule_at(i, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run();
  }
}
BENCHMARK(BM_DesCancellation);

void BM_HyperExp2Sampling(benchmark::State& state) {
  const rng::HyperExp2 dist = rng::fit_hyperexp2(0.05, 0.005);
  rng::Stream stream(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HyperExp2Sampling);

void BM_CoarseTraceGeneration(benchmark::State& state) {
  trace::CoarseGenConfig cfg;
  cfg.duration = 3600.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::generate_coarse_trace(cfg, rng::Stream(++seed)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1800);  // samples per generated trace
}
BENCHMARK(BM_CoarseTraceGeneration);

void BM_LocalWorkloadBursts(benchmark::State& state) {
  trace::CoarseTrace t(2.0);
  for (int i = 0; i < 1800; ++i) t.push({0.3, 32768, false});
  workload::LocalWorkloadGenerator gen(t, workload::default_burst_table(),
                                       rng::Stream(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalWorkloadBursts);

void BM_FineNodeSimSecond(benchmark::State& state) {
  node::FineNodeConfig cfg;
  cfg.utilization = 0.3;
  cfg.duration = 1.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node::simulate_fine_node(
        cfg, workload::default_burst_table(), rng::Stream(++seed)));
  }
}
BENCHMARK(BM_FineNodeSimSecond);

void BM_ClusterClosedHour(benchmark::State& state) {
  trace::CoarseGenConfig gen;
  gen.duration = 8 * 3600.0;
  gen.start_hour = 9.0;
  const trace::TracePool pool(
      trace::generate_machine_pool(gen, 8, rng::Stream(3)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.policy = core::PolicyKind::LingerLonger;
    cfg.workload = cluster::WorkloadSpec{32, 600.0};
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(cluster::run_closed(
        cfg, pool, workload::default_burst_table(), 3600.0));
  }
  state.SetLabel("16 nodes, 32 jobs, 1 simulated hour per iteration");
}
BENCHMARK(BM_ClusterClosedHour);

}  // namespace

BENCHMARK_MAIN();
