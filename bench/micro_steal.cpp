/// \file micro_steal.cpp
/// Steal-throughput microbenchmark: the lock-free work-stealing TaskRunner
/// against the mutex-guarded deque runner it replaced (embedded here,
/// verbatim in structure, as the baseline). Three probes:
///
///   1. Dispatch throughput — batches of deliberately tiny tasks, where
///      per-task scheduling overhead dominates. The acceptance gate is the
///      lock-free runner dispatching >= --min-speedup x the mutex runner's
///      tasks/second at --workers workers (ISSUE 6: 2x at 8).
///   2. Uneven batches — per-task work varies ~64x, the shape real sweeps
///      have (cells of different policies/cluster sizes), where stealing
///      pays through load balance rather than dispatch rate.
///   3. Idle discipline — threads > tasks: a runner whose surplus workers
///      spin would burn ~workers x wall of CPU time; suspended workers
///      burn ~0. Asserts process CPU time <= --idle-cpu-factor x wall.
///
/// Exit 1 on a failed gate, so CI can run it as a regression check.

#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/flags.hpp"
#include "util/runner.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The pre-ISSUE-6 TaskRunner, kept as the benchmark baseline: one global
/// mutex guards per-slot std::deques; workers block on a condition
/// variable. Public surface mirrors util::TaskRunner::run (caller
/// participates, batch drains fully).
class MutexRunner {
 public:
  explicit MutexRunner(std::size_t threads) : slots_(threads) {
    workers_.reserve(threads - 1);
    for (std::size_t slot = 1; slot < threads; ++slot) {
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
  }

  ~MutexRunner() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void run(std::vector<std::function<void()>> tasks) {
    if (tasks.empty()) return;
    Batch batch;
    batch.tasks = &tasks;
    batch.unfinished = tasks.size();
    batch.queues.resize(slots_);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      batch.queues[i % slots_].push_back(i);
    }
    std::unique_lock lock(mu_);
    batches_.push_back(&batch);
    work_cv_.notify_all();
    std::size_t index = 0;
    while (pop_task(batch, 0, index)) execute(lock, batch, index);
    done_cv_.wait(lock, [&] { return batch.unfinished == 0; });
    std::erase(batches_, &batch);
  }

 private:
  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    std::vector<std::deque<std::size_t>> queues;
    std::size_t unfinished = 0;
  };

  static bool pop_task(Batch& batch, std::size_t slot, std::size_t& index) {
    std::deque<std::size_t>& own = batch.queues[slot % batch.queues.size()];
    if (!own.empty()) {
      index = own.front();
      own.pop_front();
      return true;
    }
    std::deque<std::size_t>* victim = nullptr;
    for (std::deque<std::size_t>& q : batch.queues) {
      if (!q.empty() && (!victim || q.size() > victim->size())) victim = &q;
    }
    if (!victim) return false;
    index = victim->back();
    victim->pop_back();
    return true;
  }

  bool next_task(std::size_t slot, Batch*& batch, std::size_t& index) {
    for (Batch* b : batches_) {
      if (pop_task(*b, slot, index)) {
        batch = b;
        return true;
      }
    }
    return false;
  }

  void execute(std::unique_lock<std::mutex>& lock, Batch& batch,
               std::size_t index) {
    lock.unlock();
    (*batch.tasks)[index]();
    lock.lock();
    if (--batch.unfinished == 0) done_cv_.notify_all();
  }

  void worker_loop(std::size_t slot) {
    std::unique_lock lock(mu_);
    for (;;) {
      Batch* batch = nullptr;
      std::size_t index = 0;
      work_cv_.wait(lock,
                    [&] { return stop_ || next_task(slot, batch, index); });
      if (batch == nullptr) {
        if (stop_) return;
        continue;
      }
      execute(lock, *batch, index);
    }
  }

  std::size_t slots_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Batch*> batches_;
  bool stop_ = false;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

volatile std::uint64_t g_sink = 0;  // keeps burn() from being optimized out

void burn(std::uint64_t seed, std::uint64_t iters) {
  std::uint64_t acc = seed;
  for (std::uint64_t i = 0; i < iters; ++i) acc = mix(acc + i);
  g_sink = acc;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

/// Tasks/second dispatching `batches` batches of `n` tasks, each burning
/// `iters` mix rounds, through `run`.
template <typename Runner>
double dispatch_rate(Runner& runner, std::size_t batches, std::size_t n,
                     std::uint64_t iters,
                     const std::function<std::uint64_t(std::size_t)>& work =
                         nullptr) {
  const auto start = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = work ? work(i) : iters;
      tasks.push_back([i, w] { burn(i, w); });
    }
    runner.run(std::move(tasks));
  }
  return static_cast<double>(batches * n) / seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  ll::util::Flags flags(
      "micro_steal",
      "Lock-free work-stealing runner vs the mutex-deque baseline.");
  auto workers =
      flags.add_uint64("workers", 8, "worker count for both runners");
  auto batches = flags.add_uint64("batches", 200, "batches per measurement");
  auto tasks = flags.add_uint64("tasks", 512, "tasks per batch");
  auto iters = flags.add_uint64("iters", 8, "mix rounds per small task");
  auto min_speedup = flags.add_double(
      "min-speedup", 2.0,
      "required lock-free/mutex dispatch-rate ratio (0 disables the gate)");
  auto idle_factor = flags.add_double(
      "idle-cpu-factor", 3.0,
      "max process-CPU/wall ratio while threads > tasks (0 disables)");
  flags.parse(argc, argv);

  const auto n_workers = static_cast<std::size_t>(*workers);
  const auto n_batches = static_cast<std::size_t>(*batches);
  const auto n_tasks = static_cast<std::size_t>(*tasks);
  const auto n_iters = static_cast<std::uint64_t>(*iters);

  // The 2x headline is a *contention* result: the mutex runner collapses
  // when several cores bounce its one lock cache line. Below 4 hardware
  // threads that regime cannot exist (the lock is nearly uncontended, the
  // pathology being measured is absent), so the gate relaxes to "the
  // lock-free runner still wins" and says so.
  double required = *min_speedup;
  const std::size_t hw = std::thread::hardware_concurrency();
  if (required > 1.2 && hw < 4) {
    std::printf(
        "note: only %zu hardware thread(s) — mutex contention cannot "
        "manifest; relaxing dispatch gate %.2fx -> 1.20x\n",
        hw, required);
    required = 1.2;
  }

  ll::util::Table out({"probe", "runner", "tasks/s", "ratio"});
  bool ok = true;

  // Probe 1: dispatch throughput on small uniform tasks. Warm up both
  // pools once, then measure; best-of-3 to shed scheduler noise.
  double mutex_rate = 0.0;
  double lockfree_rate = 0.0;
  {
    MutexRunner baseline(n_workers);
    (void)dispatch_rate(baseline, 2, n_tasks, n_iters);
    for (int rep = 0; rep < 3; ++rep) {
      mutex_rate =
          std::max(mutex_rate, dispatch_rate(baseline, n_batches, n_tasks,
                                             n_iters));
    }
  }
  {
    ll::util::TaskRunner runner(n_workers);
    (void)dispatch_rate(runner, 2, n_tasks, n_iters);
    for (int rep = 0; rep < 3; ++rep) {
      lockfree_rate =
          std::max(lockfree_rate, dispatch_rate(runner, n_batches, n_tasks,
                                                n_iters));
    }
  }
  const double speedup = lockfree_rate / mutex_rate;
  out.add_row({"small-task dispatch", "mutex deque",
               ll::util::fixed(mutex_rate, 0), "1.00"});
  out.add_row({"small-task dispatch", "lock-free steal",
               ll::util::fixed(lockfree_rate, 0),
               ll::util::fixed(speedup, 2)});
  if (*min_speedup > 0.0 && speedup < required) {
    ok = false;
    std::printf("FAIL: dispatch speedup %.2fx < required %.2fx\n", speedup,
                required);
  }

  // Probe 2: uneven batches (~64x duration spread) — the load-balance win.
  {
    const auto uneven = [n_iters](std::size_t i) {
      return n_iters * (1 + (mix(i) & 0x3f));
    };
    double mutex_uneven = 0.0;
    double lockfree_uneven = 0.0;
    {
      MutexRunner baseline(n_workers);
      mutex_uneven =
          dispatch_rate(baseline, n_batches / 4 + 1, n_tasks, 0, uneven);
    }
    {
      ll::util::TaskRunner runner(n_workers);
      lockfree_uneven =
          dispatch_rate(runner, n_batches / 4 + 1, n_tasks, 0, uneven);
    }
    out.add_row({"uneven batch (64x spread)", "mutex deque",
                 ll::util::fixed(mutex_uneven, 0), "1.00"});
    out.add_row({"uneven batch (64x spread)", "lock-free steal",
                 ll::util::fixed(lockfree_uneven, 0),
                 ll::util::fixed(lockfree_uneven / mutex_uneven, 2)});
  }

  // Probe 3: idle discipline with threads > tasks. Two ~long tasks on the
  // full pool: the other workers must suspend (atomic::wait), not spin.
  {
    ll::util::TaskRunner runner(n_workers);
    // Warm the pool up past its first-idle escalation.
    std::vector<std::function<void()>> warm;
    for (int i = 0; i < 4; ++i) warm.push_back([] { burn(1, 100); });
    runner.run(std::move(warm));

    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<std::function<void()>> two;
    for (int i = 0; i < 2; ++i) {
      two.push_back([] { burn(2, 40'000'000); });  // ~100ms each
    }
    runner.run(std::move(two));
    const double wall = seconds_since(start);
    const double cpu = process_cpu_seconds() - cpu_before;
    const double ratio = cpu / wall;
    std::printf(
        "idle probe: %zu workers, 2 tasks: wall %.3fs cpu %.3fs "
        "(%.2fx, %llu lifetime suspensions)\n",
        n_workers, wall, cpu, ratio,
        static_cast<unsigned long long>(runner.stats().suspensions));
    if (*idle_factor > 0.0 && ratio > *idle_factor) {
      ok = false;
      std::printf("FAIL: idle workers burned %.2fx wall in CPU time "
                  "(limit %.2fx) — they are spinning, not suspending\n",
                  ratio, *idle_factor);
    }
  }

  std::printf("%s\n", out.render().c_str());
  if (!ok) return 1;
  std::printf("OK: dispatch speedup %.2fx (gate %.2fx), idle workers "
              "suspend\n",
              speedup, required);
  return 0;
}
