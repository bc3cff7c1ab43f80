#pragma once

/// \file runner.hpp
/// Lock-free work-stealing task runner — the execution substrate of the
/// experiment engine (src/exp) and of the sharded engine's windows.
///
/// A TaskRunner owns a fixed set of worker threads. run() executes a batch
/// of independent tasks to completion with the *calling thread
/// participating as a worker*, so a runner with `threads == 1` spawns no
/// background threads at all and a process never holds more than
/// `threads - 1` pool threads regardless of how many batches it runs.
///
/// Scheduling is work-stealing over per-worker fixed-capacity lock-free
/// ring deques (util/ring_deque.hpp, Chase–Lev): the batch's task indices
/// are dealt round-robin into one deque per worker; each worker drains its
/// own deque LIFO (cache-hot work stays local) and, when empty, steals FIFO
/// from the others. There is no mutex anywhere on the per-task path — pop,
/// steal, completion accounting and sleep/wake are all atomics. Idle
/// workers escalate `_mm_pause` relax loops into `std::this_thread::yield`
/// and finally suspend on C++20 `std::atomic::wait`; publishing a batch
/// wakes exactly one sleeping thief, and each thief that acquires work
/// wakes the next (global actives/thieves counters drive the cascade), so
/// idle workers cost no CPU while wake-up latency stays one hop.
///
/// Determinism contract (unchanged from the mutex-era runner): tasks must
/// write to disjoint, pre-allocated result slots and must not read shared
/// mutable state — then the batch's combined result is bit-identical for
/// every thread count, because scheduling only changes *when* a task runs,
/// never *what* it computes.
///
/// Edge cases, pinned by tests:
///   - run({}) is a no-op: no publication, no wake-up, returns immediately.
///   - threads > tasks: the surplus workers find nothing to steal and
///     suspend on atomic::wait — they do not spin (bench/micro_steal.cpp
///     asserts the process CPU-time bound).
///
/// Exception safety: a throwing task never deadlocks or leaks the batch.
/// Remaining tasks still run; after the batch drains, run() rethrows the
/// pending exception with the smallest task index (deterministic choice).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ll::util {

/// Passive observer of scheduler activity, the hook behind the tracer's
/// runner spans (obs::RunnerTraceAdapter — util is the bottom layer and
/// cannot see obs::, so the interface lives here). Timestamps are absolute
/// steady_clock nanoseconds (time_since_epoch), convertible by the
/// consumer to whatever base it uses.
///
/// Contract: callbacks fire on arbitrary threads (pool workers and every
/// run() caller) and must be thread-safe, cheap, and non-blocking. Every
/// call site is null-guarded, so a detached runner pays only a relaxed
/// atomic load; the timestamp reads happen only when an observer is
/// attached. The observer must outlive its attachment — detach with
/// set_observer(nullptr) (or destroy the runner) before destroying it,
/// and before reading any state the callbacks write from other threads.
class RunnerObserver {
 public:
  virtual ~RunnerObserver() = default;
  /// One run() batch completed (including inline fallbacks): `tasks` tasks
  /// over wall interval [t0_ns, t1_ns]. Fires on the calling thread, after
  /// every task finished (also when the batch rethrows).
  virtual void on_batch(std::size_t tasks, std::uint64_t t0_ns,
                        std::uint64_t t1_ns) = 0;
  /// A task was acquired via steal_top by worker `slot` (0 = a caller).
  virtual void on_steal(std::size_t slot) = 0;
  /// Pool worker `slot` suspended on atomic::wait for [t0_ns, t1_ns].
  virtual void on_suspend(std::size_t slot, std::uint64_t t0_ns,
                          std::uint64_t t1_ns) = 0;
};

class TaskRunner {
 public:
  /// Scheduler counters, process-lifetime cumulative for this runner.
  /// Monitoring only — values are racy snapshots of relaxed atomics.
  struct Stats {
    std::uint64_t executed = 0;     ///< tasks run to completion
    std::uint64_t stolen = 0;       ///< tasks acquired via steal_top
    std::uint64_t suspensions = 0;  ///< worker atomic::wait suspensions
  };

  /// `threads == 0` selects std::thread::hardware_concurrency(). The caller
  /// counts as one worker, so `threads - 1` background threads are started.
  explicit TaskRunner(std::size_t threads = 0);
  ~TaskRunner();
  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  /// Runs every task to completion, then returns (or rethrows the
  /// lowest-index task exception). Reentrant: a task may itself call run()
  /// on the same runner — the inner batch is drained by the calling worker
  /// (with the pool stealing from it), so nesting cannot deadlock. Safe to
  /// call concurrently from multiple external threads.
  void run(std::vector<std::function<void()>> tasks);

  /// Worker count including the participating caller.
  [[nodiscard]] std::size_t thread_count() const;

  /// Cumulative scheduler counters (see Stats).
  [[nodiscard]] Stats stats() const;

  /// Attaches a scheduler observer (nullptr detaches). Returns the
  /// previous observer. See RunnerObserver for the threading contract.
  RunnerObserver* set_observer(RunnerObserver* observer);

  /// Background threads ever started by any TaskRunner in this process —
  /// the probe bench/micro_runner.cpp uses to verify the N+constant bound.
  [[nodiscard]] static std::uint64_t total_threads_created();

  /// Process-wide shared runner at hardware concurrency. Used by the serve
  /// dispatcher and by top-level sharded runs, so concurrent work shares
  /// one bounded pool instead of multiplying threads.
  static TaskRunner& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ll::util
