/// \file sim_workloads.cpp
/// The three simulation workloads: paper_sweep, cluster_scale and
/// sharded_scale.

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/experiment.hpp"
#include "core/policy.hpp"
#include "des/event_queue.hpp"
#include "exp/drivers.hpp"
#include "exp/engine.hpp"
#include "exp/spec.hpp"
#include "obs/profiler.hpp"
#include "shard/experiment.hpp"
#include "verify/digest.hpp"
#include "workload/burst_table.hpp"
#include "workloads.hpp"

namespace llbench {
namespace {

namespace cluster = ll::cluster;
namespace core = ll::core;
namespace des = ll::des;
namespace exp = ll::exp;
namespace shard = ll::shard;
namespace verify = ll::verify;
namespace workload = ll::workload;

using PoolPtr = exp::TracePoolCache::PoolPtr;

// Nominal ops per second of the timed phase (measured on a 4-thread
// x86-64 host), and the ops a smoke run makes. The first ops of every run
// are the smoke run's ops, so the pinned digests cover them.
constexpr double kPaperOpsPerSecond = 28.0;
constexpr double kScaleOpsPerSecond = 2.0;
constexpr double kShardedOpsPerSecond = 1.0;
constexpr std::size_t kMinOps = 11;  // a tail percentile with 10 beyond

// paper_sweep: Figure 7's cell (exp::cluster_cell) over fig07's pool.
constexpr std::size_t kPaperNodes = 64;
constexpr std::size_t kPaperMachines = 64;
constexpr double kPaperClosed = 3600.0;  // cluster_cell's closed run

// cluster_scale / sharded_scale: one 2000-node closed run per op over
// ext_scale's pool.
constexpr std::size_t kScaleNodes = 2000;
constexpr std::size_t kScaleJobs = 500;
constexpr double kScaleDemand = 600.0;
constexpr double kScaleDuration = 1800.0;
constexpr std::size_t kScaleMachines = 256;
constexpr std::size_t kShards = 4;
constexpr std::size_t kScaleSmokeOps = 2;

/// Engine event counts of one op, summed over its engines.
struct EngineCounts {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  bool conserved = true;  ///< scheduled == fired + cancelled + pending

  void add(const des::Simulation& sim) {
    scheduled += sim.events_scheduled();
    fired += sim.events_fired();
    cancelled += sim.events_cancelled();
    conserved = conserved &&
                sim.events_scheduled() == sim.events_fired() +
                                              sim.events_cancelled() +
                                              sim.pending_count();
  }

  void report(Layers& op) const {
    op["des.scheduled"] = static_cast<double>(scheduled);
    op["des.fired"] = static_cast<double>(fired);
    op["des.cancelled"] = static_cast<double>(cancelled);
    op["des.fired_share"] =
        scheduled > 0 ? static_cast<double>(fired) / scheduled : 0.0;
  }
};

/// Hooks for one op's monolithic runs. Always counts engine events and
/// checks their conservation; with a tracer it also profiles callbacks
/// per tag (obs::EventLoopProfiler) and records the simulator's own spans.
class ClusterProbe {
 public:
  explicit ClusterProbe(obs::Tracer* tracer) : tracer_(tracer) {
    hooks_.on_start = [this](cluster::ClusterSim& sim) { start(sim); };
    hooks_.on_finish = [this](cluster::ClusterSim& sim) { finish(sim); };
  }
  ClusterProbe(const ClusterProbe&) = delete;
  ClusterProbe& operator=(const ClusterProbe&) = delete;

  [[nodiscard]] const cluster::RunHooks* hooks() { return &hooks_; }
  [[nodiscard]] const EngineCounts& counts() const { return counts_; }

  /// des.* and cluster.*_ms of the op; `op_ms` is its host time.
  void report(Layers& op, double op_ms) const {
    counts_.report(op);
    op["des.queue_ms"] = op_ms - callback_ms_;
    const auto tag = [this](std::uint64_t t) {
      const auto it = tag_ms_.find(t);
      return it == tag_ms_.end() ? 0.0 : it->second;
    };
    op["cluster.tick_ms"] = tag(cluster::ClusterSim::kTagTick);
    op["cluster.completion_ms"] = tag(cluster::ClusterSim::kTagCompletion);
    op["cluster.recheck_ms"] = tag(cluster::ClusterSim::kTagRecheck);
    op["cluster.migration_ms"] = tag(cluster::ClusterSim::kTagMigration);
  }

 private:
  void start(cluster::ClusterSim& sim) {
    if (tracer_ == nullptr) return;
    profiler_ = std::make_unique<obs::EventLoopProfiler>();
    sim.set_sim_observer(profiler_.get());
    sim.set_tracer(tracer_);
  }

  void finish(cluster::ClusterSim& sim) {
    counts_.add(sim.engine());
    if (!profiler_) return;
    const obs::ProfileSnapshot snap = profiler_->snapshot(sim.engine());
    callback_ms_ += snap.total_wall_seconds * 1e3;
    for (const obs::TagProfile& t : snap.tags) {
      tag_ms_[t.tag] += t.wall_seconds * 1e3;
    }
    sim.set_sim_observer(nullptr);
    sim.set_tracer(nullptr);
    profiler_.reset();
  }

  obs::Tracer* tracer_;
  cluster::RunHooks hooks_;
  std::unique_ptr<obs::EventLoopProfiler> profiler_;
  EngineCounts counts_;
  double callback_ms_ = 0.0;
  std::map<std::uint64_t, double> tag_ms_;
};

/// Folds the simulated outcome of a run into a digest.
void fold_report(verify::Digest& digest, const cluster::ClusterReport& r) {
  for (const double v : {r.throughput, r.foreground_delay, r.goodput,
                         r.work_lost, r.wall_time}) {
    digest.add_double(v);
  }
  for (const std::size_t v :
       {r.completed, r.migrations, r.restarts, r.crashes, r.checkpoints}) {
    digest.add_u64(v);
  }
}

/// Why a closed run failed its check, or "" when it passed.
std::string check_closed(const EngineCounts& counts,
                         const cluster::ClusterReport& report) {
  if (!counts.conserved) return "engine events not conserved";
  if (report.completed == 0) return "closed run completed no job";
  if (!std::isfinite(report.throughput)) return "non-finite throughput";
  return "";
}

// --- paper_sweep -----------------------------------------------------------

struct PaperCell {
  const char* workload;
  cluster::WorkloadSpec spec;
  core::PolicyKind policy;
};

std::vector<PaperCell> paper_cells() {
  std::vector<PaperCell> cells;
  for (const auto& [name, spec] :
       {std::pair{"workload-1", cluster::workload_1()},
        std::pair{"workload-2", cluster::workload_2()}}) {
    for (const core::PolicyKind policy :
         {core::PolicyKind::LingerLonger, core::PolicyKind::LingerForever,
          core::PolicyKind::ImmediateEviction,
          core::PolicyKind::PauseAndMigrate}) {
      cells.push_back(PaperCell{name, spec, policy});
    }
  }
  return cells;
}

/// exp::cluster_cell's two runs, made with hooks so the traced pass can
/// check and profile them. Both passes must give the same digest, which
/// ties this to cluster_cell.
exp::RunResult hooked_cell(const cluster::ExperimentConfig& cfg,
                           const PoolPtr& pool,
                           const workload::BurstTable& table,
                           ClusterProbe& probe, obs::Tracer* tracer,
                           Layers& op) {
  cluster::ClusterReport open;
  {
    // Throws unless every job finished.
    Span span(tracer, "cluster/run_open");
    open = cluster::run_open(cfg, *pool, table, nullptr, probe.hooks());
  }
  cluster::ClusterReport closed;
  {
    Span span(tracer, "cluster/run_closed");
    closed = cluster::run_closed(cfg, *pool, table, kPaperClosed,
                                 probe.hooks());
  }
  if (const std::string why = check_closed(probe.counts(), closed);
      !why.empty()) {
    throw std::runtime_error(why);
  }
  op["cluster.migrations"] =
      static_cast<double>(open.migrations + closed.migrations);
  exp::RunResult result = exp::open_metrics(open);
  result.set("throughput", closed.throughput);
  return result;
}

/// Why a cell's result failed its check, or "" when it passed.
std::string check_cell(const exp::RunResult& result) {
  for (const char* name : {"avg_job", "family", "throughput"}) {
    const auto v = result.get(name);
    if (!v || !(*v > 0.0) || !std::isfinite(*v)) {
      return std::string("missing or non-positive ") + name;
    }
  }
  for (const auto& [name, value] : result.metrics()) {
    if (!std::isfinite(value)) return "non-finite " + name;
  }
  return "";
}

}  // namespace

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Pass run_paper_sweep(const Options& options, std::size_t setup_reps,
                     obs::Tracer* tracer) {
  Pass pass;
  const std::vector<PaperCell> cells = paper_cells();
  const std::size_t reps =
      op_count(options, kPaperOpsPerSecond / cells.size(), 2, 1);
  const std::size_t ops = reps * cells.size();

  PoolWatch pools;
  PoolPtr pool;
  const workload::BurstTable* table = nullptr;
  repeat_setup(
      pass, setup_reps,
      [&] {
        pools.mark();
        table = &workload::default_burst_table();
        pool = pools.standard(kPaperMachines, 24.0, options.seed + 1, tracer);
      },
      [&] { pool.reset(); });

  // Op slots are replication-major: the first cells.size() slots are the
  // first replication of every cell (the pinned prefix).
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      slot_of.emplace(exp::replication_seed(options.seed, c, r),
                      r * cells.size() + c);
    }
  }
  if (slot_of.size() != ops) {
    throw std::runtime_error("paper_sweep: replication seeds collide");
  }
  std::vector<double> op_ms(ops, 0.0);
  std::vector<std::string> op_error(ops);
  std::vector<Layers> op_layers(tracer ? ops : 0);

  exp::ExperimentSpec spec;
  spec.name = "paper_sweep";
  spec.seed = options.seed;
  spec.replications = reps;
  spec.axes = {"workload", "policy"};
  for (const PaperCell& cell : cells) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = kPaperNodes;
    cfg.cluster.policy = cell.policy;
    cfg.workload = cell.spec;
    spec.add_cell(
        {{"workload", cell.workload},
         {"policy", std::string(core::to_string(cell.policy))}},
        [&, cfg](std::uint64_t seed) mutable {
          const std::size_t slot = slot_of.at(seed);
          cfg.seed = seed;
          Span span(tracer, "op/paper_sweep", slot);
          const Clock::time_point t0 = Clock::now();
          try {
            if (tracer == nullptr) {
              exp::RunResult result = exp::cluster_cell(cfg, pool, *table);
              op_ms[slot] = ms_between(t0, Clock::now());
              return result;
            }
            ClusterProbe probe(tracer);
            exp::RunResult result = hooked_cell(cfg, pool, *table, probe,
                                                tracer, op_layers[slot]);
            op_ms[slot] = ms_between(t0, Clock::now());
            probe.report(op_layers[slot], op_ms[slot]);
            return result;
          } catch (const std::exception& e) {
            op_error[slot] = e.what();
            return exp::RunResult{};
          }
        });
  }

  // One host thread is left to the client side of the process and the OS:
  // with every thread busy, the slowest ops (tail_ms) moved 20% between
  // runs.
  OwnedRunner runner(std::max<std::size_t>(1, nproc() - 1), tracer);
  exp::EngineOptions engine;
  engine.runner = &runner.get();
  engine.tracer = tracer ? tracer : nullptr;
  exp::SweepResult sweep;
  {
    Span span(tracer, "exp/run_sweep", ops);
    const Clock::time_point t0 = Clock::now();
    sweep = exp::run_sweep(spec, engine);
    pass.wall_s = ms_between(t0, Clock::now()) / 1e3;
  }
  pass.peak_rss_mb = peak_rss_mb();
  pools.stop();

  verify::Digest all;
  verify::Digest pinned;
  pass.attempted = ops;
  for (std::size_t slot = 0; slot < ops; ++slot) {
    const std::size_t c = slot % cells.size();
    const exp::RunResult& result =
        sweep.cells.at(c).replications.at(slot / cells.size());
    for (verify::Digest* d : {&all, &pinned}) {
      if (d == &pinned && slot >= cells.size()) break;
      d->add_u64(slot);
      for (const auto& [name, value] : result.metrics()) {
        d->add_string(name);
        d->add_double(value);
      }
    }
    const std::string why =
        op_error[slot].empty() ? check_cell(result) : op_error[slot];
    if (!why.empty()) {
      fail_op(pass, "paper_sweep op " + std::to_string(slot) + ": " + why);
      continue;
    }
    pass.op_ms.push_back(op_ms[slot]);
  }
  pass.digest = all.value();
  pass.pinned_digest = pinned.value();

  if (tracer != nullptr) {
    pass.layers = median_per_key(op_layers);
    runner.report(pass.layers);
    pools.report(pass.layers);
    pass.layers["exp.busy_share"] =
        std::accumulate(op_ms.begin(), op_ms.end(), 0.0) /
        (pass.wall_s * 1e3 * runner.get().thread_count());
  }
  return pass;
}

// --- cluster_scale and sharded_scale ---------------------------------------

namespace {

cluster::ExperimentConfig scale_config(des::QueueBackend queue,
                                       std::uint64_t seed) {
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = kScaleNodes;
  cfg.cluster.queue = queue;
  cfg.workload.jobs = kScaleJobs;
  cfg.workload.demand = kScaleDemand;
  cfg.seed = seed;
  return cfg;
}

/// Setup shared by the two scale workloads: ext_scale's pool for `seed`.
void scale_setup(Pass& pass, std::uint64_t seed, std::size_t setup_reps,
                 obs::Tracer* tracer, PoolWatch& pools, PoolPtr& pool,
                 const workload::BurstTable*& table) {
  repeat_setup(
      pass, setup_reps,
      [&] {
        pools.mark();
        table = &workload::default_burst_table();
        pool = pools.standard(kScaleMachines, 24.0, seed + 1, tracer);
      },
      [&] { pool.reset(); });
}

/// Hooks for one sharded op: engine counts over every shard, the shard
/// statistics, and (with a tracer) the engine's shard:<k> spans.
struct ShardProbe {
  explicit ShardProbe(obs::Tracer* tracer) {
    hooks.on_start = [tracer](shard::ShardedClusterSim& sim) {
      if (tracer != nullptr) sim.set_tracer(tracer);
    };
    hooks.on_finish = [this](shard::ShardedClusterSim& sim) {
      for (std::size_t k = 0; k < sim.shard_count(); ++k) {
        counts.add(sim.engine(k));
      }
      stats = sim.stats();
      sim.set_tracer(nullptr);
    };
  }
  ShardProbe(const ShardProbe&) = delete;
  ShardProbe& operator=(const ShardProbe&) = delete;

  shard::RunHooks hooks;
  EngineCounts counts;
  shard::ShardStats stats;
};

/// Sums, per op, the slowest shard:<k> span of every window: the part of
/// the op spent advancing shards in parallel. Ops ran back to back, so a
/// span belongs to the op whose wall interval holds its start.
std::vector<double> advance_ms(const obs::Tracer& tracer,
                               const std::vector<std::uint64_t>& op_start_ns,
                               const std::vector<std::uint64_t>& op_end_ns) {
  const obs::Tracer::Snapshot snap = tracer.snapshot();
  std::vector<bool> is_shard(snap.labels.size(), false);
  for (std::size_t l = 0; l < snap.labels.size(); ++l) {
    is_shard[l] = snap.labels[l].rfind("shard:", 0) == 0;
  }
  // (op, window) -> slowest shard's span, ns.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> slowest;
  for (const auto& entry : snap.records) {
    const obs::TraceRecord& rec = entry.rec;
    if (rec.kind != obs::TraceKind::kWallSpan || !is_shard.at(rec.label)) {
      continue;
    }
    const auto it = std::upper_bound(op_start_ns.begin(), op_start_ns.end(),
                                     rec.t0_ns);
    if (it == op_start_ns.begin()) continue;
    const auto op = static_cast<std::size_t>(it - op_start_ns.begin() - 1);
    if (rec.t0_ns > op_end_ns[op]) continue;
    auto& ns = slowest[{op, rec.arg}];
    ns = std::max(ns, rec.t1_ns - rec.t0_ns);
  }
  std::vector<double> per_op(op_start_ns.size(), 0.0);
  for (const auto& [key, ns] : slowest) {
    per_op[key.first] += static_cast<double>(ns) / 1e6;
  }
  return per_op;
}

}  // namespace

Pass run_cluster_scale(const Options& options, std::size_t setup_reps,
                       obs::Tracer* tracer) {
  Pass pass;
  const std::size_t ops =
      op_count(options, kScaleOpsPerSecond, kMinOps, kScaleSmokeOps);
  PoolWatch pools;
  PoolPtr pool;
  const workload::BurstTable* table = nullptr;
  scale_setup(pass, options.seed, setup_reps, tracer, pools, pool, table);

  verify::Digest all;
  verify::Digest pinned;
  std::vector<Layers> op_layers;
  pass.attempted = ops;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const cluster::ExperimentConfig cfg =
        scale_config(des::QueueBackend::kHeap, op_seed(options.seed, 0, i));
    Span span(tracer, "op/cluster_scale", i);
    ClusterProbe probe(tracer);
    cluster::ClusterReport report;
    const Clock::time_point t0 = Clock::now();
    try {
      Span call(tracer, "cluster/run_closed", i);
      report = cluster::run_closed(cfg, *pool, *table, kScaleDuration,
                                   probe.hooks());
    } catch (const std::exception& e) {
      fail_op(pass, "cluster_scale op " + std::to_string(i) + ": " + e.what());
      continue;
    }
    const double ms = ms_between(t0, Clock::now());
    for (verify::Digest* d : {&all, &pinned}) {
      if (d == &pinned && i >= kScaleSmokeOps) break;
      d->add_u64(i);
      fold_report(*d, report);
    }
    if (const std::string why = check_closed(probe.counts(), report);
        !why.empty()) {
      fail_op(pass, "cluster_scale op " + std::to_string(i) + ": " + why);
      continue;
    }
    pass.op_ms.push_back(ms);
    if (tracer != nullptr) {
      Layers& op = op_layers.emplace_back();
      probe.report(op, ms);
      op["cluster.migrations"] = static_cast<double>(report.migrations);
    }
  }
  pass.wall_s = ms_between(start, Clock::now()) / 1e3;
  pass.peak_rss_mb = peak_rss_mb();
  pools.stop();
  pass.digest = all.value();
  pass.pinned_digest = pinned.value();

  if (tracer != nullptr) {
    pass.layers = median_per_key(op_layers);
    pools.report(pass.layers);
    pass.layers["exp.busy_share"] =
        std::accumulate(pass.op_ms.begin(), pass.op_ms.end(), 0.0) /
        (pass.wall_s * 1e3);
  }
  return pass;
}

Pass run_sharded_scale(const Options& options, std::size_t setup_reps,
                       obs::Tracer* tracer) {
  Pass pass;
  const std::size_t ops =
      op_count(options, kShardedOpsPerSecond, kMinOps, kScaleSmokeOps);
  PoolWatch pools;
  PoolPtr pool;
  const workload::BurstTable* table = nullptr;
  // A calendar-queue op's cost is a chaotic function of its pool and seed
  // (0.5-7 s per op at this size), so runs over fresh inputs disagree by
  // 50-70% at any affordable op count. The ops are therefore a fixed panel:
  // the default seed's pool and op seeds, whatever --seed is.
  const std::uint64_t inputs = kDefaultSeed;
  scale_setup(pass, inputs, setup_reps, tracer, pools, pool, table);

  verify::Digest all;
  verify::Digest pinned;
  std::vector<Layers> op_layers;  // one per passed op, like pass.op_ms
  std::vector<std::uint64_t> op_start_ns;
  std::vector<std::uint64_t> op_end_ns;
  cluster::ClusterReport first;
  pass.attempted = ops;
  {
    OwnedRunner runner(std::min(kShards, nproc()), tracer);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const cluster::ExperimentConfig cfg = scale_config(
          des::QueueBackend::kCalendar, op_seed(inputs, 0, i));
      Span span(tracer, "op/sharded_scale", i);
      ShardProbe probe(tracer);
      cluster::ClusterReport report;
      const std::uint64_t t0_ns = tracer ? tracer->now_ns() : 0;
      const Clock::time_point t0 = Clock::now();
      try {
        Span call(tracer, "shard/run_closed", i);
        report = shard::run_closed(cfg, kShards, *pool, *table, kScaleDuration,
                                   &runner.get(), &probe.hooks);
      } catch (const std::exception& e) {
        fail_op(pass,
                "sharded_scale op " + std::to_string(i) + ": " + e.what());
        continue;
      }
      const double ms = ms_between(t0, Clock::now());
      if (i == 0) first = report;
      for (verify::Digest* d : {&all, &pinned}) {
        if (d == &pinned && i >= kScaleSmokeOps) break;
        d->add_u64(i);
        fold_report(*d, report);
      }
      if (const std::string why = check_closed(probe.counts, report);
          !why.empty()) {
        fail_op(pass, "sharded_scale op " + std::to_string(i) + ": " + why);
        continue;
      }
      pass.op_ms.push_back(ms);
      if (tracer != nullptr) {
        op_start_ns.push_back(t0_ns);
        op_end_ns.push_back(tracer->now_ns());
        Layers& op = op_layers.emplace_back();
        probe.counts.report(op);
        const shard::ShardStats& s = probe.stats;
        op["cluster.migrations"] = static_cast<double>(report.migrations);
        op["shard.windows"] = static_cast<double>(s.windows);
        op["shard.window_ms"] = s.windows > 0 ? ms / s.windows : 0.0;
        op["shard.barrier_wait_ms"] = s.barrier_wait_ns / 1e6;
        op["shard.max_barrier_wait_ms"] = s.max_barrier_wait_ns / 1e6;
        op["shard.mailbox_sent"] = static_cast<double>(s.mailbox_sent);
        op["shard.mailbox_delivered"] =
            static_cast<double>(s.mailbox_delivered);
        op["shard.empty_windows"] = static_cast<double>(s.empty_windows);
      }
    }
    pass.wall_s = ms_between(start, Clock::now()) / 1e3;
    pass.peak_rss_mb = peak_rss_mb();
    pools.stop();
    if (tracer != nullptr) {
      pass.layers["exp.busy_share"] =
          std::accumulate(pass.op_ms.begin(), pass.op_ms.end(), 0.0) /
          (pass.wall_s * 1e3);
      runner.report(pass.layers);
    }
  }  // the runner is gone: the tracer is quiescent

  pass.digest = all.value();
  pass.pinned_digest = pinned.value();

  // Shard-count invariance: the 4-shard result equals the 1-shard result.
  // The 1-shard run uses the heap queue (one calendar shard takes ~25 s on
  // this scenario); results are invariant under the backend too.
  if (options.seed == kDefaultSeed && tracer == nullptr &&
      pass.failed == 0) {
    const cluster::ExperimentConfig cfg =
        scale_config(des::QueueBackend::kHeap, op_seed(inputs, 0, 0));
    const cluster::ClusterReport one =
        shard::run_closed(cfg, 1, *pool, *table, kScaleDuration);
    verify::Digest a;
    verify::Digest b;
    fold_report(a, first);
    fold_report(b, one);
    if (a.value() != b.value()) {
      pass.problems.push_back(
          "sharded_scale: 4-shard result differs from the 1-shard result");
    }
  }

  if (tracer != nullptr) {
    if (tracer->dropped() > 0) {
      pass.problems.push_back(
          "sharded_scale: the tracer dropped spans; shard.advance_ms is short");
    }
    const std::vector<double> advance =
        advance_ms(*tracer, op_start_ns, op_end_ns);
    for (std::size_t i = 0; i < op_layers.size(); ++i) {
      op_layers[i]["shard.advance_ms"] = advance[i];
      op_layers[i]["shard.drain_ms"] = pass.op_ms[i] - advance[i];
    }
    const Layers runner_layers = pass.layers;
    pass.layers = median_per_key(op_layers);
    pass.layers.insert(runner_layers.begin(), runner_layers.end());
    pools.report(pass.layers);
  }
  return pass;
}

}  // namespace llbench
