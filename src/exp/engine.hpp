#pragma once

/// \file engine.hpp
/// The experiment engine: executes an ExperimentSpec's (cell × replication)
/// grid on the bounded work-stealing runner (util/runner.hpp) and collects
/// a SweepResult in deterministic seed order.
///
/// Concurrency model: the grid is flattened into one task per replication;
/// every task writes its RunResult into a pre-allocated (cell, replication)
/// slot, so the assembled SweepResult — and therefore every sink's output —
/// is bit-identical for any `jobs` value. Thread count is bounded by the
/// runner: `jobs` workers total (the calling thread included), not one
/// thread per replication.

#include <cstddef>

#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/runner.hpp"

namespace ll::exp {

struct EngineOptions {
  /// Worker threads for this sweep (0 = hardware concurrency). Ignored when
  /// `runner` is set.
  std::size_t jobs = 0;
  /// Run on an externally owned runner instead of constructing one — e.g.
  /// util::TaskRunner::shared() to share one pool across sweeps.
  util::TaskRunner* runner = nullptr;
  /// Optional engine accounting: run_sweep bumps exp.sweeps / exp.cells /
  /// exp.replications plus the work-stealing scheduler's
  /// exp.runner.{tasks,steals,suspensions} deltas after the batch drains
  /// (the registry is single-threaded by contract, so updates never race
  /// with cell tasks).
  obs::MetricRegistry* metrics = nullptr;
  /// Optional flight recorder: every (cell × replication) task is wrapped
  /// in a "cell:<axis values>" wall span (arg = replication index), and —
  /// when the engine owns the runner (no external `runner`) — a
  /// RunnerTraceAdapter records batch/steal/suspend spans, detached before
  /// the local runner is destroyed so the tracer is quiescent and
  /// exportable as soon as run_sweep returns. For an external runner the
  /// caller owns the adapter lifetime.
  obs::Tracer* tracer = nullptr;
};

/// Runs the sweep. Cell functions execute concurrently; results, summaries
/// and metric ordering are independent of thread count. Rethrows the first
/// (lowest grid index) cell exception after the batch drains.
[[nodiscard]] SweepResult run_sweep(const ExperimentSpec& spec,
                                    const EngineOptions& options = {});

}  // namespace ll::exp
