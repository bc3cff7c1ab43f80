/// \file micro_runner.cpp
/// Microbenchmark of replication execution strategies: the old
/// thread-per-replication std::async fan-out versus the bounded
/// work-stealing pool (util::TaskRunner) that the experiment engine now
/// uses. Reports distinct worker threads observed and wall time per round,
/// and fails (exit 1) if the pooled strategy violates its thread bound —
/// the property the engine's "--jobs N means at most N + constant threads"
/// contract rests on.

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cluster/experiment.hpp"
#include "trace/coarse_generator.hpp"
#include "util/flags.hpp"
#include "util/runner.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Thread-id census shared by one round of replications.
struct Census {
  std::mutex mu;
  std::set<std::thread::id> ids;
  void record() {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  }
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ll::util::Flags flags("micro_runner",
                        "Thread-per-replication vs bounded pooled runner.");
  auto reps = flags.add_uint64("reps", 64, "replications per round");
  auto rounds = flags.add_uint64("rounds", 3, "rounds per strategy");
  auto nodes = flags.add_uint64("nodes", 8, "cluster size per replication");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  flags.parse(argc, argv);

  // A small but real workload: each replication runs an open cluster
  // experiment (the unit of work a replicated sweep parallelizes).
  ll::trace::CoarseGenConfig gen;
  gen.duration = 4.0 * 3600.0;
  gen.start_hour = 9.0;
  const ll::trace::TracePool pool(ll::trace::generate_machine_pool(
      gen, static_cast<std::size_t>(*nodes), ll::rng::Stream(*seed + 1)));
  const ll::workload::BurstTable& table = ll::workload::default_burst_table();
  const auto replication = [&](std::uint64_t s) {
    ll::cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
    cfg.workload = ll::cluster::WorkloadSpec{
        static_cast<std::size_t>(*nodes), 30.0};
    cfg.seed = s;
    return ll::cluster::run_open(cfg, pool, table);
  };
  const auto n = static_cast<std::size_t>(*reps);

  ll::util::Table out({"strategy", "round", "threads seen", "created",
                       "wall (s)"});

  // Old strategy: one std::async(launch::async) thread per replication.
  for (std::uint64_t round = 0; round < *rounds; ++round) {
    Census census;
    const auto start = Clock::now();
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(std::async(std::launch::async, [&, i] {
        census.record();
        (void)replication(*seed + i);
      }));
    }
    for (auto& f : futures) f.get();
    out.add_row({"async per rep", std::to_string(round),
                 std::to_string(census.ids.size()), std::to_string(n),
                 ll::util::fixed(seconds_since(start), 3)});
  }

  // New strategy: the shared bounded pool. Workers are created once and
  // reused across rounds, so the "created" column amortizes to ~0.
  ll::util::TaskRunner& runner = ll::util::TaskRunner::shared();
  bool bound_ok = true;
  for (std::uint64_t round = 0; round < *rounds; ++round) {
    Census census;
    const std::uint64_t created_before =
        ll::util::TaskRunner::total_threads_created();
    const auto start = Clock::now();
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        census.record();
        (void)replication(*seed + i);
      });
    }
    runner.run(std::move(tasks));
    const std::uint64_t created =
        ll::util::TaskRunner::total_threads_created() - created_before;
    out.add_row({"pooled runner", std::to_string(round),
                 std::to_string(census.ids.size()), std::to_string(created),
                 ll::util::fixed(seconds_since(start), 3)});
    // Bound: at most thread_count() workers ever touch a batch (the caller
    // plus thread_count()-1 pool threads), and after warm-up no new threads
    // are created at all.
    if (census.ids.size() > runner.thread_count() ||
        created > runner.thread_count()) {
      bound_ok = false;
    }
  }

  std::printf("%s\n", out.render().c_str());
  std::printf("pool size: %zu workers (hardware concurrency), "
              "async created %zu threads per round\n",
              runner.thread_count(), n);
  if (!bound_ok) {
    std::printf("FAIL: pooled runner exceeded its thread bound\n");
    return 1;
  }
  std::printf("OK: pooled thread count stayed within the bound\n");
  return 0;
}
