#include "shard/sharded_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"
#include "trace/recruitment.hpp"
#include "util/table.hpp"

namespace ll::shard {

namespace {

constexpr double kRemainingEps = 1e-9;  // same residue rule as ClusterSim
constexpr double kTimeEps = 1e-9;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One shard: a private engine over the contiguous node slice [lo, hi),
/// plus the outgoing mailboxes the coordinator drains at each barrier.
/// Between barriers a shard touches only its own slice of the node SoA and
/// the job records resident on its nodes, so shards are data-race free by
/// partition (the TaskRunner disjoint-slot contract).
struct ShardedClusterSim::Shard {
  explicit Shard(des::Simulation::Options options) : sim(options) {}

  std::size_t index = 0;
  std::size_t lo = 0, hi = 0;
  des::Simulation sim;

  struct Completion {
    double time = 0.0;
    cluster::JobId job = 0;
  };
  struct Requeue {
    double time = 0.0;
    cluster::JobId job = 0;
  };
  struct Intent {
    double time = 0.0;
    cluster::JobId job = 0;
    std::size_t node = 0;
  };
  std::vector<Completion> completions;  // mailbox: completed this window
  std::vector<Requeue> requeues;        // mailbox: crash/abort re-queues
  std::vector<Intent> intents;          // mailbox: migrate decisions

  // Per-node pending events (slot-1 occupancy: one of each per node).
  std::vector<des::EventId> completion_evt;
  std::vector<des::EventId> ckpt_evt;

  // Window-local counter deltas, folded by the coordinator at the barrier.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t aborts = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t delivered = 0;  // cross-shard arrivals landed

  std::uint64_t advance_ns = 0;
  bool participated = false;

  // Time of the pending tick (set as each tick is scheduled): the latest a
  // completion may land and still be armed.
  double next_tick = 0.0;
};

ShardedClusterSim::ShardedClusterSim(cluster::ClusterConfig config,
                                     std::size_t shards,
                                     const trace::TracePool& pool,
                                     const workload::BurstTable& burst_table,
                                     rng::Stream stream,
                                     util::TaskRunner* runner)
    : cfg_(std::move(config)),
      shard_count_(shards),
      runner_(runner),
      master_(stream),
      rates_(node::EffectiveRateTable::analytic(burst_table,
                                                cfg_.context_switch)) {
  if (cfg_.node_count == 0) {
    throw std::invalid_argument("sharded sim: node_count must be > 0");
  }
  if (shard_count_ == 0) {
    throw std::invalid_argument("sharded sim: shard count must be >= 1");
  }
  if (cfg_.max_foreign_per_node != 1) {
    throw std::invalid_argument(
        "sharded sim: only max_foreign_per_node == 1 is modeled");
  }
  derived_ = pool.derived(cfg_.recruitment);
  period_ = derived_->period;
  idle_util_ = derived_->idle_utilization;
  cfg_.faults.validate();
  cfg_.checkpoint.validate();
  policy_ = core::make_policy(cfg_.policy, cfg_.policy_params);

  // The lookahead: nothing crosses shards faster than one migration.
  window_ = std::max(cfg_.migration.cost(cfg_.job_bytes), period_);

  const std::size_t n = cfg_.node_count;
  node_trace_.resize(n);
  node_flags_.resize(n);
  node_offset_.resize(n);
  node_util_.assign(n, 0.0);
  node_idle_.assign(n, 0);
  node_down_until_.assign(n, 0.0);
  node_episode_.assign(n, 0.0);
  node_forced_until_.assign(n, 0.0);
  node_forced_util_.assign(n, 0.0);
  node_reserved_.assign(n, 0);
  node_occupant_.assign(n, kNoJob);
  node_mark_.assign(n, 0.0);
  node_fg_cpu_.assign(n, 0.0);
  node_fg_delay_.assign(n, 0.0);
  node_lost_.assign(n, 0.0);

  // Per-node RNG: fork by index, never sequentially — the fork is a pure
  // function of (seed, "node-setup", i), so the assignment is invariant to
  // shard count and to the order shards are constructed or executed in
  // (the seed-partitioning rule; pinned by tests/shard/).
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pick = i % pool.size();
    std::size_t offset = 0;
    if (cfg_.randomize_placement) {
      rng::Stream setup = master_.fork("node-setup", i);
      pick = static_cast<std::size_t>(setup.uniform_index(pool.size()));
      offset = static_cast<std::size_t>(
          setup.uniform_index(pool[pick].samples().size()));
    }
    node_trace_[i] = &pool[pick];
    node_flags_[i] = &derived_->idle_flags[pick];
    node_offset_[i] = offset;
  }

  if (!cfg_.faults.empty()) {
    faults_ = std::make_unique<fault::FaultSchedule>(
        fault::FaultSchedule::compile(cfg_.faults, n, master_.fork("faults")));
  }

  const std::size_t chunk = (n + shard_count_ - 1) / shard_count_;
  des::Simulation::Options engine_options;
  engine_options.queue = cfg_.queue;
  shards_.reserve(shard_count_);
  for (std::size_t k = 0; k < shard_count_; ++k) {
    auto sh = std::make_unique<Shard>(engine_options);
    sh->index = k;
    sh->lo = std::min(k * chunk, n);
    sh->hi = std::min(sh->lo + chunk, n);
    sh->completion_evt.assign(n, des::kNoEvent);
    sh->ckpt_evt.assign(n, des::kNoEvent);
    shards_.push_back(std::move(sh));
  }
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    if (sh.lo == sh.hi) continue;
    // Initial window state at t = 0 (window index 0), then the tick chain.
    for (std::size_t i = sh.lo; i < sh.hi; ++i) {
      refresh_node(sh, i, 0.0, false);
    }
    Shard* shp = &sh;
    sh.next_tick = period_;
    sh.sim.schedule_at(
        sh.next_tick, [this, shp] { tick(*shp, 1); }, kTagTick);
    if (faults_) {
      for (const fault::FaultEvent& ev : faults_->events()) {
        bool mine = false;
        for (std::size_t idx : ev.nodes) {
          if (idx >= sh.lo && idx < sh.hi) mine = true;
        }
        if (!mine) continue;
        const fault::FaultEvent* evp = &ev;
        sh.sim.schedule_at(
            ev.time, [this, shp, evp] { apply_fault(*shp, *evp); }, kTagFault);
      }
    }
  }
  stats_.shards = shard_count_;
}

ShardedClusterSim::~ShardedClusterSim() = default;

bool ShardedClusterSim::is_down(std::size_t i, double t) const {
  return node_down_until_[i] > t + kTimeEps;
}

bool ShardedClusterSim::executing(const cluster::JobRecord& job) const {
  return job.state == cluster::JobState::Running ||
         job.state == cluster::JobState::Lingering;
}

ShardedClusterSim::Shard& ShardedClusterSim::shard_of(std::size_t node) {
  const std::size_t chunk =
      (cfg_.node_count + shard_count_ - 1) / shard_count_;
  return *shards_[node / chunk];
}

// ---------------------------------------------------------------------------
// Shard-local dynamics (shard tasks; only slice state is touched).

void ShardedClusterSim::integrate_to(std::size_t i, double t) {
  const double dt = t - node_mark_[i];
  if (!(dt > 0.0)) return;
  node_mark_[i] = t;
  const double util = node_util_[i];
  node_fg_cpu_[i] += util * dt;
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  cluster::JobRecord& job = jobs_[id];
  if (!executing(job)) return;
  const double rate = rates_.foreign_rate(util);
  const double work = std::min(job.remaining, rate * dt);
  job.remaining -= work;
  if (util > 0.0) node_fg_delay_[i] += rates_.ldr(util) * util * dt;
}

void ShardedClusterSim::disarm_node(Shard& sh, std::size_t i) {
  if (sh.completion_evt[i] != des::kNoEvent) {
    sh.sim.cancel(sh.completion_evt[i]);
    sh.completion_evt[i] = des::kNoEvent;
  }
  if (sh.ckpt_evt[i] != des::kNoEvent) {
    sh.sim.cancel(sh.ckpt_evt[i]);
    sh.ckpt_evt[i] = des::kNoEvent;
  }
}

void ShardedClusterSim::arm_completion(Shard& sh, std::size_t i, double t) {
  if (sh.completion_evt[i] != des::kNoEvent) {
    sh.sim.cancel(sh.completion_evt[i]);
    sh.completion_evt[i] = des::kNoEvent;
  }
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  const cluster::JobRecord& job = jobs_[id];
  if (!executing(job)) return;
  const double rate = rates_.foreign_rate(node_util_[i]);
  if (!(rate > 1e-12)) return;
  // Event-sparse: the shard's next tick re-arms every node, so a completion
  // due after it could only be cancelled there. Arm only one that lands at
  // or before that tick (on a tie one armed inside a tick's loop fires
  // first); otherwise the tick integrates the job and decides again.
  const double at = t + job.remaining / rate;
  if (!(at <= sh.next_tick)) return;
  Shard* shp = &sh;
  sh.completion_evt[i] = sh.sim.schedule_at(
      at,
      [this, shp, i] { complete_job(*shp, i, shp->sim.now()); },
      kTagCompletion);
}

void ShardedClusterSim::complete_job(Shard& sh, std::size_t i, double t) {
  sh.completion_evt[i] = des::kNoEvent;
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  integrate_to(i, t);
  cluster::JobRecord& job = jobs_[id];
  if (job.remaining > kRemainingEps) {
    arm_completion(sh, i, t);  // FP residue: re-arm, as the monolith does
    return;
  }
  job.remaining = 0.0;
  job.set_state(cluster::JobState::Done, t);
  job.completion = t;
  node_occupant_[i] = kNoJob;
  job_node_[id] = kNoNode;
  job_intent_[id] = 0;
  disarm_node(sh, i);
  sh.completions.push_back({t, id});
}

void ShardedClusterSim::occupant_policy(Shard& sh, std::size_t i, double t) {
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  cluster::JobRecord& job = jobs_[id];
  if (job.state == cluster::JobState::Checkpointing) return;
  if (node_idle_[i]) {
    if (job.state == cluster::JobState::Lingering ||
        job.state == cluster::JobState::Paused) {
      job.set_state(cluster::JobState::Running, t);
      job_intent_[id] = 0;  // the owner left first; no migration needed
    }
    return;
  }
  if (job_intent_[id]) return;  // already waiting for a target
  core::PolicyContext ctx;
  ctx.episode_age = t - node_episode_[i];
  ctx.node_utilization = node_util_[i];
  ctx.idle_utilization = idle_util_;
  ctx.migration_cost = cfg_.migration.cost(job.bytes);
  const core::Decision d = policy_->on_nonidle(ctx);
  using Action = core::Decision::Action;
  switch (d.action) {
    case Action::Continue:
    case Action::Linger:
      job.set_state(cluster::JobState::Lingering, t);
      break;
    case Action::Pause:
      job.set_state(cluster::JobState::Paused, t);
      break;
    case Action::Migrate:
      job.set_state(policy_->allows_lingering()
                        ? cluster::JobState::Lingering
                        : cluster::JobState::Paused,
                    t);
      job_intent_[id] = 1;
      sh.intents.push_back({t, id, i});
      break;
  }
}

void ShardedClusterSim::refresh_node(Shard& sh, std::size_t i, double t,
                                     bool from_tick) {
  if (is_down(i, t)) {
    node_util_[i] = 0.0;
    node_idle_[i] = 0;
    return;
  }
  const auto& samples = node_trace_[i]->samples();
  const auto& flags = *node_flags_[i];
  const auto w = static_cast<std::size_t>(std::llround(t / period_));
  const std::size_t idx = (node_offset_[i] + w) % flags.size();
  double util = samples[idx].cpu;
  bool idle = flags[idx];
  if (node_forced_until_[i] > t + kTimeEps) {
    idle = false;
    util = std::max(util, node_forced_util_[i]);
  }
  const bool was_idle = node_idle_[i] != 0;
  node_util_[i] = util;
  node_idle_[i] = idle ? 1 : 0;
  if (was_idle && !idle) node_episode_[i] = t;
  if (!from_tick) return;
  occupant_policy(sh, i, t);
  const cluster::JobId id = node_occupant_[i];
  if (id != kNoJob && cfg_.checkpoint.enabled()) {
    cluster::JobRecord& job = jobs_[id];
    if (executing(job) && job_ckpt_due_[id] > 0.0 &&
        t >= job_ckpt_due_[id] - kTimeEps) {
      start_checkpoint(sh, i, t);
    }
  }
  arm_completion(sh, i, t);
}

void ShardedClusterSim::tick(Shard& sh, std::uint64_t k) {
  const double t = static_cast<double>(k) * period_;
  // Tick k + 1 is scheduled after the loop, but the loop's arming must
  // already compare against it.
  sh.next_tick = static_cast<double>(k + 1) * period_;
  for (std::size_t i = sh.lo; i < sh.hi; ++i) {
    integrate_to(i, t);
    refresh_node(sh, i, t, true);
  }
  Shard* shp = &sh;
  sh.sim.schedule_at(
      sh.next_tick, [this, shp, k] { tick(*shp, k + 1); }, kTagTick);
}

void ShardedClusterSim::start_checkpoint(Shard& sh, std::size_t i, double t) {
  const cluster::JobId id = node_occupant_[i];
  cluster::JobRecord& job = jobs_[id];
  integrate_to(i, t);
  job.set_state(cluster::JobState::Checkpointing, t);
  if (sh.completion_evt[i] != des::kNoEvent) {
    sh.sim.cancel(sh.completion_evt[i]);
    sh.completion_evt[i] = des::kNoEvent;
  }
  Shard* shp = &sh;
  sh.ckpt_evt[i] = sh.sim.schedule_at(
      t + cfg_.checkpoint.cost(job.bytes),
      [this, shp, i] { finish_checkpoint(*shp, i, shp->sim.now()); },
      kTagCheckpoint);
}

void ShardedClusterSim::finish_checkpoint(Shard& sh, std::size_t i, double t) {
  sh.ckpt_evt[i] = des::kNoEvent;
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  integrate_to(i, t);
  cluster::JobRecord& job = jobs_[id];
  job.checkpointed = job.cpu_demand - job.remaining;
  ++job.checkpoints;
  ++sh.checkpoints;
  job_ckpt_due_[id] = t + cfg_.checkpoint.interval;
  if (node_idle_[i]) {
    job.set_state(cluster::JobState::Running, t);
  } else if (policy_->allows_lingering()) {
    job.set_state(cluster::JobState::Lingering, t);
  } else {
    job.set_state(cluster::JobState::Paused, t);
  }
  arm_completion(sh, i, t);
}

void ShardedClusterSim::rollback(cluster::JobId id, std::size_t charge_node,
                                 double t) {
  cluster::JobRecord& job = jobs_[id];
  const double progress = job.cpu_demand - job.remaining;
  node_lost_[charge_node] += std::max(0.0, progress - job.checkpointed);
  job.remaining = job.cpu_demand - job.checkpointed;
  ++job.restarts;
  job.set_state(cluster::JobState::Queued, t);
}

void ShardedClusterSim::crash_node(Shard& sh, std::size_t i, double t,
                                   double duration) {
  integrate_to(i, t);
  const bool was_down = is_down(i, t);
  node_down_until_[i] = std::max(node_down_until_[i], t + duration);
  ++sh.crashes;
  if (was_down) return;  // overlapping outage extended above
  node_util_[i] = 0.0;
  node_idle_[i] = 0;
  disarm_node(sh, i);
  const cluster::JobId id = node_occupant_[i];
  if (id == kNoJob) return;
  rollback(id, i, t);
  ++sh.restarts;
  node_occupant_[i] = kNoJob;
  job_node_[id] = kNoNode;
  job_intent_[id] = 0;
  sh.requeues.push_back({t, id});
}

void ShardedClusterSim::apply_fault(Shard& sh, const fault::FaultEvent& ev) {
  const double t = sh.sim.now();
  switch (ev.kind) {
    case fault::FaultKind::NodeCrash:
      for (std::size_t idx : ev.nodes) {
        if (idx >= sh.lo && idx < sh.hi) crash_node(sh, idx, t, ev.duration);
      }
      break;
    case fault::FaultKind::Storm:
      for (std::size_t idx : ev.nodes) {
        if (idx < sh.lo || idx >= sh.hi) continue;
        integrate_to(idx, t);
        node_forced_until_[idx] =
            std::max(node_forced_until_[idx], t + ev.duration);
        node_forced_util_[idx] =
            std::max(node_forced_util_[idx], cfg_.faults.storm.utilization);
        if (is_down(idx, t)) continue;
        if (node_idle_[idx]) {
          node_idle_[idx] = 0;
          node_episode_[idx] = t;
        }
        node_util_[idx] = std::max(node_util_[idx], node_forced_util_[idx]);
        occupant_policy(sh, idx, t);
        arm_completion(sh, idx, t);
      }
      break;
    case fault::FaultKind::Pressure:
      // The sharded model does not price the page pools; pressure spikes
      // are accepted (for schedule parity) but change nothing.
      break;
  }
}

// ---------------------------------------------------------------------------
// Coordinator (single-threaded; runs between windows).

cluster::JobId ShardedClusterSim::submit(double cpu_demand_seconds) {
  if (!(cpu_demand_seconds > 0.0)) {
    throw std::invalid_argument("submit: demand must be > 0");
  }
  const auto id = static_cast<cluster::JobId>(jobs_.size());
  cluster::JobRecord job;
  job.id = id;
  job.cpu_demand = cpu_demand_seconds;
  job.remaining = cpu_demand_seconds;
  job.bytes = cfg_.job_bytes;
  job.submit_time = now_;
  job.state = cluster::JobState::Queued;
  job.state_since = now_;
  jobs_.push_back(std::move(job));
  job_link_.push_back(master_.fork("job-link", id));
  job_node_.push_back(kNoNode);
  job_intent_.push_back(0);
  job_ckpt_due_.push_back(0.0);
  ++active_jobs_;
  queue_.push_back(id);
  if (!running_) place_queue(now_);
  return id;
}

void ShardedClusterSim::set_completion_callback(
    std::function<void(const cluster::JobRecord&)> cb) {
  on_complete_ = std::move(cb);
}

std::size_t ShardedClusterSim::best_target(double t, std::size_t exclude,
                                           bool want_idle) const {
  std::size_t best = kNoNode;
  double best_util = 0.0;
  for (std::size_t i = 0; i < cfg_.node_count; ++i) {
    if (i == exclude) continue;
    if (is_down(i, t)) continue;
    if (node_occupant_[i] != kNoJob || node_reserved_[i] != 0) continue;
    if ((node_idle_[i] != 0) != want_idle) continue;
    const double u = node_util_[i];
    if (best == kNoNode || u < best_util) {
      best = i;
      best_util = u;
    }
  }
  return best;
}

void ShardedClusterSim::place_job(cluster::JobId id, std::size_t target,
                                  double t) {
  integrate_to(target, t);
  node_occupant_[target] = id;
  job_node_[id] = target;
  cluster::JobRecord& job = jobs_[id];
  job.set_state(node_idle_[target] ? cluster::JobState::Running
                                   : cluster::JobState::Lingering,
                t);
  if (!job.first_start) job.first_start = t;
  if (cfg_.checkpoint.enabled() && job_ckpt_due_[id] == 0.0) {
    job_ckpt_due_[id] = t + cfg_.checkpoint.interval;
  }
  arm_completion(shard_of(target), target, t);
}

void ShardedClusterSim::place_queue(double t) {
  while (!queue_.empty()) {
    const cluster::JobId id = queue_.front();
    std::size_t target = best_target(t, kNoNode, true);
    if (target == kNoNode && policy_->allows_lingering()) {
      target = best_target(t, kNoNode, false);
    }
    if (target == kNoNode) break;
    queue_.pop_front();
    place_job(id, target, t);
  }
}

void ShardedClusterSim::start_transfer(cluster::JobId id, std::size_t from,
                                       std::size_t to, double t) {
  cluster::JobRecord& job = jobs_[id];
  ++migrations_;
  job.set_state(cluster::JobState::Migrating, t);
  disarm_node(shard_of(from), from);
  node_occupant_[from] = kNoJob;
  job_node_[id] = kNoNode;
  job_intent_[id] = 0;
  const double cost = cfg_.migration.cost(job.bytes);
  double arrive = t + cost;
  const fault::LinkFaultSpec& link = cfg_.faults.link;
  if (link.drop_probability > 0.0) {
    rng::Stream& ls = job_link_[id];
    std::size_t drops = 0;
    while (ls.uniform01() < link.drop_probability) {
      ++drops;
      if (drops > link.max_retries) break;
    }
    if (drops > link.max_retries) {
      ++aborts_;
      retries_ += link.max_retries;
      rollback(id, from, t);
      ++restarts_;
      queue_.push_back(id);
      return;
    }
    retries_ += drops;
    arrive += static_cast<double>(drops) * (link.retry_backoff + cost);
  }
  node_reserved_[to] += 1;
  Shard& target = shard_of(to);
  const bool cross = target.index != shard_of(from).index;
  if (cross) ++stats_.mailbox_sent;
  Shard* shp = &target;
  target.sim.schedule_at(
      arrive,
      [this, shp, to, id, cross] {
        Shard& sh = *shp;
        const double at = sh.sim.now();
        node_reserved_[to] -= 1;
        if (cross) ++sh.delivered;
        cluster::JobRecord& arrived = jobs_[id];
        if (is_down(to, at)) {
          // Dead endpoint: the image cannot land; roll back to the last
          // checkpoint and re-queue at the next barrier.
          ++sh.aborts;
          rollback(id, to, at);
          ++sh.restarts;
          sh.requeues.push_back({at, id});
          return;
        }
        if (!node_idle_[to] && !policy_->allows_lingering()) {
          // The destination went non-idle mid-flight and this policy may
          // not share an active owner's node: back to the queue.
          arrived.set_state(cluster::JobState::Queued, at);
          sh.requeues.push_back({at, id});
          return;
        }
        integrate_to(to, at);
        node_occupant_[to] = id;
        job_node_[id] = to;
        arrived.set_state(node_idle_[to] ? cluster::JobState::Running
                                         : cluster::JobState::Lingering,
                          at);
        if (!arrived.first_start) arrived.first_start = at;
        arm_completion(sh, to, at);
      },
      kTagMigration);
}

void ShardedClusterSim::advance_window(double horizon) {
  std::vector<std::function<void()>> tasks;
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    sh.participated = false;
    sh.advance_ns = 0;
    if (sh.lo == sh.hi || sh.sim.pending_count() == 0) {
      ++stats_.empty_windows;  // empty shard: skip the window entirely
      continue;
    }
    sh.participated = true;
    Shard* shp = &sh;
    const std::uint64_t win = stats_.windows;
    tasks.push_back([this, shp, horizon, win] {
      const std::uint64_t t0 = steady_ns();
      const double v0 = shp->sim.now();
      shp->sim.run_until(horizon);
      const std::uint64_t t1 = steady_ns();
      shp->advance_ns = t1 - t0;
      if (tracer_) {
        tracer_->wall_span_at(lbl_shard_[shp->index], tracer_->rel_ns(t0),
                              tracer_->rel_ns(t1), v0, win);
      }
    });
  }
  if (tasks.empty()) return;
  if (runner_ && tasks.size() > 1) {
    runner_->run(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }
}

void ShardedClusterSim::barrier(double t) {
  // Fold the window's mailboxes into canonical (time, job id) order. The
  // contents are shard-count invariant (each entry is produced by purely
  // node-local evolution); only their grouping differs with K, which the
  // global sort erases.
  std::vector<Shard::Completion> completions;
  std::vector<Shard::Requeue> requeues;
  std::vector<Shard::Intent> intents;
  std::uint64_t max_ns = 0;
  std::uint64_t sum_ns = 0;
  std::size_t participants = 0;
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    completions.insert(completions.end(), sh.completions.begin(),
                       sh.completions.end());
    requeues.insert(requeues.end(), sh.requeues.begin(), sh.requeues.end());
    intents.insert(intents.end(), sh.intents.begin(), sh.intents.end());
    sh.completions.clear();
    sh.requeues.clear();
    sh.intents.clear();
    crashes_ += sh.crashes;
    restarts_ += sh.restarts;
    aborts_ += sh.aborts;
    checkpoints_ += sh.checkpoints;
    stats_.mailbox_delivered += sh.delivered;
    sh.crashes = sh.restarts = sh.aborts = sh.checkpoints = sh.delivered = 0;
    if (sh.participated) {
      ++participants;
      max_ns = std::max(max_ns, sh.advance_ns);
      sum_ns += sh.advance_ns;
    }
  }
  const std::uint64_t wait_ns =
      participants > 0 ? max_ns * participants - sum_ns : 0;
  stats_.barrier_wait_ns += wait_ns;
  stats_.max_barrier_wait_ns = std::max(stats_.max_barrier_wait_ns, wait_ns);

  std::sort(completions.begin(), completions.end(),
            [](const Shard::Completion& a, const Shard::Completion& b) {
              return a.time != b.time ? a.time < b.time : a.job < b.job;
            });
  std::sort(requeues.begin(), requeues.end(),
            [](const Shard::Requeue& a, const Shard::Requeue& b) {
              return a.time != b.time ? a.time < b.time : a.job < b.job;
            });
  std::sort(intents.begin(), intents.end(),
            [](const Shard::Intent& a, const Shard::Intent& b) {
              return a.time != b.time ? a.time < b.time : a.job < b.job;
            });

  for (const auto& c : completions) {
    ++completions_;
    --active_jobs_;
    if (on_complete_) on_complete_(jobs_[c.job]);
  }
  for (const auto& r : requeues) queue_.push_back(r.job);
  for (const auto& in : intents) {
    cluster::JobRecord& job = jobs_[in.job];
    const bool valid = job_intent_[in.job] != 0 &&
                       job_node_[in.job] == in.node &&
                       (job.state == cluster::JobState::Lingering ||
                        job.state == cluster::JobState::Paused) &&
                       node_idle_[in.node] == 0 && !is_down(in.node, t);
    if (!valid) {
      job_intent_[in.job] = 0;
      continue;
    }
    const std::size_t target = best_target(t, in.node, true);
    if (target == kNoNode) {
      // No idle destination this window: keep lingering/paused in place and
      // let the policy re-issue the intent (as Condor leaves evicted jobs
      // suspended until a target frees up).
      job_intent_[in.job] = 0;
      continue;
    }
    start_transfer(in.job, in.node, target, t);
  }
  place_queue(t);

  ++stats_.windows;
  if (metrics_) {
    m_windows_->add(1);
    if (wait_ns > 0) m_wait_->add(wait_ns);
    // sent/delivered counters advance to the cumulative totals.
    // (Counters are add-only; track deltas via the stats_ totals.)
  }
  if (m_sent_ && stats_.mailbox_sent > sent_published_) {
    m_sent_->add(stats_.mailbox_sent - sent_published_);
    sent_published_ = stats_.mailbox_sent;
  }
  if (m_delivered_ && stats_.mailbox_delivered > delivered_published_) {
    m_delivered_->add(stats_.mailbox_delivered - delivered_published_);
    delivered_published_ = stats_.mailbox_delivered;
  }
  if (tracer_) tracer_->instant(lbl_barrier_, t, wait_ns);
}

void ShardedClusterSim::finalize_integration() {
  for (std::size_t i = 0; i < cfg_.node_count; ++i) {
    integrate_to(i, now_);
  }
}

void ShardedClusterSim::run_until_all_complete(double max_horizon) {
  if (active_jobs_ == 0) return;
  running_ = true;
  const double t_end = now_ + max_horizon;
  while (active_jobs_ > 0 && now_ < t_end - kTimeEps) {
    const double horizon = std::min(now_ + window_, t_end);
    advance_window(horizon);
    now_ = horizon;
    barrier(horizon);
  }
  running_ = false;
  finalize_integration();
  if (active_jobs_ > 0) {
    throw std::runtime_error(
        "sharded run exceeded max_horizon with jobs incomplete");
  }
}

void ShardedClusterSim::run_for(double duration) {
  if (!(duration >= 0.0)) {
    throw std::invalid_argument("run_for: duration must be >= 0");
  }
  running_ = true;
  const double t_end = now_ + duration;
  while (now_ < t_end - kTimeEps) {
    const double horizon = std::min(now_ + window_, t_end);
    advance_window(horizon);
    now_ = horizon;
    barrier(horizon);
  }
  running_ = false;
  finalize_integration();
}

// ---------------------------------------------------------------------------
// Accessors and instrumentation.

double ShardedClusterSim::delivered_cpu() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const cluster::JobRecord& job = jobs_[i];
    sum += job.cpu_demand - job.remaining;
  }
  return sum;
}

double ShardedClusterSim::foreground_delay_ratio() const {
  double cpu = 0.0;
  double delay = 0.0;
  for (std::size_t i = 0; i < cfg_.node_count; ++i) {
    cpu += node_fg_cpu_[i];
    delay += node_fg_delay_[i];
  }
  return cpu > 0.0 ? delay / cpu : 0.0;
}

double ShardedClusterSim::work_lost() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < cfg_.node_count; ++i) sum += node_lost_[i];
  return sum;
}

const fault::FaultSchedule& ShardedClusterSim::fault_schedule() const {
  static const fault::FaultSchedule kEmpty;
  return faults_ ? *faults_ : kEmpty;
}

std::uint64_t ShardedClusterSim::logical_events() const {
  return static_cast<std::uint64_t>(completions_) +
         static_cast<std::uint64_t>(migrations_) + stats_.windows;
}

const des::Simulation& ShardedClusterSim::engine(std::size_t k) const {
  return shards_.at(k)->sim;
}

std::vector<cluster::ClusterSim::NodeSnapshot>
ShardedClusterSim::node_snapshots() const {
  std::vector<cluster::ClusterSim::NodeSnapshot> out(cfg_.node_count);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].idle = node_idle_[i] != 0;
    out[i].down = is_down(i, now_);
    out[i].utilization = node_util_[i];
    out[i].reserved = node_reserved_[i];
    if (node_occupant_[i] != kNoJob) out[i].occupants = {node_occupant_[i]};
  }
  return out;
}

void ShardedClusterSim::set_metrics(obs::MetricRegistry* registry) {
  metrics_ = registry;
  if (!registry) {
    m_windows_ = m_sent_ = m_delivered_ = m_wait_ = nullptr;
    return;
  }
  m_windows_ = &registry->counter("shard.windows");
  m_sent_ = &registry->counter("shard.mailbox.sent");
  m_delivered_ = &registry->counter("shard.mailbox.delivered");
  m_wait_ = &registry->counter("shard.barrier_wait_ns");
  registry->gauge("shard.count").set(static_cast<double>(shard_count_));
}

void ShardedClusterSim::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (!tracer) return;
  lbl_barrier_ = tracer->label("shard.barrier");
  lbl_shard_.resize(shard_count_);
  for (std::size_t k = 0; k < shard_count_; ++k) {
    lbl_shard_[k] = tracer->label(util::format("shard:%zu", k));
  }
}

}  // namespace ll::shard
