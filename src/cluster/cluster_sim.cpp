#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/stable_vector.hpp"

namespace ll::cluster {
namespace {

constexpr double kRemainingEps = 1e-9;

// How many nodes ahead tick() prefetches a node's trace sample.
constexpr std::size_t kPrefetchAhead = 8;

// Observer tags for the engine's event kinds — they make the verification
// digests (and any future event-level tooling) distinguish *what* fired,
// not just when, so a refactor that reorders same-time events of different
// kinds changes the digest. Values live in cluster_sim.hpp so external
// tooling (the CLI profiler) can label them.
constexpr std::uint64_t kTagTick = ClusterSim::kTagTick;
constexpr std::uint64_t kTagCompletion = ClusterSim::kTagCompletion;
constexpr std::uint64_t kTagRecheck = ClusterSim::kTagRecheck;
constexpr std::uint64_t kTagMigration = ClusterSim::kTagMigration;
constexpr std::uint64_t kTagFault = ClusterSim::kTagFault;
constexpr std::uint64_t kTagCheckpoint = ClusterSim::kTagCheckpoint;

/// Per-job runtime bookkeeping, parallel to the public JobRecord table.
/// Defined at TU scope (not nested in Impl) so its member initializers are
/// complete by the time Impl declares its StableVector of them.
struct JobRuntime {
  double rate = 0.0;
  double last_update = 0.0;
  des::EventId completion_event = des::kNoEvent;
  des::EventId recheck_event = des::kNoEvent;
  int node = -1;
  bool wants_migration = false;
  bool in_want_list = false;  // listed in Impl::want_list
  bool displaced = false;  // in the displaced FIFO
  // Periodic-checkpoint timer while executing; doubles as the
  // checkpoint-write finish event while state is Checkpointing.
  des::EventId checkpoint_event = des::kNoEvent;
  // In-flight migration bookkeeping: the pending transfer-completion
  // event and both endpoints, so a crash at either end can abort the
  // transfer and release the reserved slot.
  des::EventId mig_event = des::kNoEvent;
  int mig_source = -1;
  int mig_target = -1;
  std::size_t mig_attempts = 0;  // link-drop re-attempts so far
  // Virtual-time span starts for the tracer (valid while the matching
  // state is in flight; harmless stale values otherwise).
  double mig_start = 0.0;
  double ckpt_start = 0.0;
};

}  // namespace

/// Cold per-node state: trace bindings, occupancy lists, the page pool, and
/// fault overlays. The scan-hot scalars (utilization, idle/down flags,
/// occupancy counts, episode clocks) live in the Impl's parallel SoA
/// vectors — the per-window tick and the placement scans walk every node,
/// and packing the scanned fields contiguously is what keeps a 100k-node
/// window O(nodes) cache lines instead of O(nodes) cache misses.
///
/// No layout packs the one field the tick must read per node: its 16-byte
/// trace sample, at the node's own place in a pool of up to hundreds of MB.
/// At 2000 nodes that is 2000 independent loads per tick, and the loop
/// spends its time waiting on memory rather than computing. So tick()
/// prefetches node i + kPrefetchAhead's sample while it processes node i.
/// On a 4-vCPU Xeon host this took the event loop of a 2000-node, 1800-s
/// closed run over a 256-machine, 24-h pool (177 MB) from 170 to 129 ms
/// (median of 5 rounds); 4 or 16 nodes ahead did no better than 8.
///
/// The tick does only the per-node work some result reads. Two kinds are
/// skipped. A completion event is armed only when it lands at or before
/// the next tick (reschedule_completion): each tick re-rates every
/// executing guest, so a later one would be cancelled there unfired. And a
/// node's page pool follows its trace only while the node hosts a guest:
/// an empty node's pool holds no foreign pages and its local pages are the
/// last sample's, clamped, so the tick records that sample in the SoA
/// node_local_pages and place_job hands it to the pool with the first
/// guest.
struct ClusterSim::Node {
  const trace::CoarseTrace* trace = nullptr;
  const std::vector<bool>* flags = nullptr;  // idle flags, per trace sample
  std::size_t offset_windows = 0;

  std::vector<JobId> occupants;  // resident foreign jobs (paper: at most 1)
  std::size_t reserved = 0;      // inbound migrations holding a slot
  double mem_factor = 1.0;
  std::optional<node::PagePool> pool;

  // Fault overlays (all inert on fault-free runs). A down node is neither
  // idle nor a migration target; a storm forces the node non-idle at
  // forced_util until forced_busy_until; a pressure spike inflates the
  // owner working set by pressure_kb until pressure_until.
  double down_until = 0.0;
  double down_since = 0.0;  // crash instant of the current outage (tracer)
  double forced_busy_until = 0.0;
  double forced_util = 0.0;
  double pressure_until = 0.0;
  std::uint32_t pressure_kb = 0;
};

struct ClusterSim::Impl {
  Impl(ClusterSim& owner, ClusterConfig config)
      : self(owner),
        cfg(std::move(config)),
        sim(des::Simulation::Options{cfg.queue}) {}

  ClusterSim& self;
  ClusterConfig cfg;
  des::Simulation sim;
  std::unique_ptr<core::Policy> policy;
  node::EffectiveRateTable rates =
      node::EffectiveRateTable::analytic(workload::default_burst_table(), 100e-6);
  std::vector<Node> nodes;

  // ---- hot per-node state, SoA --------------------------------------------
  // Parallel vectors indexed by node. best_free_node, tick, account_window
  // and note_metrics scan every node; these are the only fields they read,
  // so the scans stream through packed arrays (8/1/1/4/4/8/4 bytes per
  // node) instead of striding over ~200-byte Node records.
  std::vector<double> node_util;            // owner CPU this window
  std::vector<std::uint8_t> node_idle;      // recruitment-rule idle flag
  std::vector<std::uint8_t> node_down;      // crashed and not yet recovered
  std::vector<std::uint32_t> node_occ;      // occupants.size()
  std::vector<std::uint32_t> node_used;     // occupants + reserved slots
  std::vector<double> node_episode;         // start of current non-idle episode
  std::vector<std::uint32_t> node_local_pages;  // owner pages this window

  [[nodiscard]] bool is_idle(std::size_t i) const { return node_idle[i] != 0; }

  /// Re-mirrors a node's occupancy counts after any occupants/reserved
  /// mutation. Every mutation site calls this, so the SoA view is exact at
  /// every scan point.
  void sync_slots(std::size_t i) {
    node_occ[i] = static_cast<std::uint32_t>(nodes[i].occupants.size());
    node_used[i] = node_occ[i] + static_cast<std::uint32_t>(nodes[i].reserved);
  }

  // Chunked pool: grows from completion callbacks while engine frames still
  // hold references to existing entries (see ClusterSim::jobs()).
  util::StableVector<JobRuntime, 256> rt;

  std::deque<JobId> queue;      // fresh jobs awaiting first dispatch
  std::deque<JobId> displaced;  // evicted jobs awaiting a migration target
  // Every job whose wants_migration is set, plus ids whose flag has since
  // cleared (placement_pass drops those). A closed run keeps a record per
  // completed job, so placement must not scan all records to find these.
  std::vector<JobId> want_list;

  // Observability (all optional; nullptr = detached, zero work). The
  // metric objects live inside the attached registry; we cache raw
  // pointers so the hot path pays only the null check.
  obs::Counter* m_submitted = nullptr;
  obs::Counter* m_completed = nullptr;
  obs::Counter* m_migrations = nullptr;
  obs::Counter* m_crashes = nullptr;
  obs::Counter* m_restarts = nullptr;
  obs::Counter* m_checkpoints = nullptr;
  obs::Counter* m_aborts = nullptr;
  obs::Gauge* g_delivered = nullptr;
  obs::Gauge* g_work_lost = nullptr;
  obs::TimeWeighted* tw_queue = nullptr;
  obs::TimeWeighted* tw_occupied = nullptr;
  obs::TimeWeighted* tw_idle = nullptr;

  // Flight-recorder tracer (nullptr = detached) with its labels interned
  // once at attach time so the emit sites pay only the null check. It is
  // the one record of job and node transitions: the job lifecycle and the
  // node idle/busy flips as instants (arg = job id or node index), plus
  // the fault and migration spans and instants.
  obs::Tracer* tracer = nullptr;
  struct TraceLabels {
    std::uint32_t job_queued = 0;
    std::uint32_t job_running = 0;
    std::uint32_t job_lingering = 0;
    std::uint32_t job_done = 0;
    std::uint32_t node_idle = 0;
    std::uint32_t node_busy = 0;
    std::uint32_t migration = 0;
    std::uint32_t mig_retry = 0;
    std::uint32_t mig_abort = 0;
    std::uint32_t requeue = 0;
    std::uint32_t crash = 0;
    std::uint32_t outage = 0;
    std::uint32_t storm = 0;
    std::uint32_t pressure = 0;
    std::uint32_t checkpoint = 0;
  } tl;

  /// Folds the current queue length / node occupancy into the time-weighted
  /// accumulators. Called wherever those quantities may have changed.
  void note_metrics() {
    if (tw_queue) {
      tw_queue->set(now(),
                    static_cast<double>(queue.size() + displaced.size()));
    }
    if (tw_occupied || tw_idle) {
      std::size_t occupied = 0;
      std::size_t idle = 0;
      const std::size_t n = nodes.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (node_occ[i] != 0) ++occupied;
        if (node_idle[i] != 0) ++idle;
      }
      if (tw_occupied) tw_occupied->set(now(), static_cast<double>(occupied));
      if (tw_idle) tw_idle->set(now(), static_cast<double>(idle));
    }
  }

  double period = 2.0;
  std::size_t inflight_migrations = 0;
  // Compiled fault timeline + the lazily-consumed link-drop stream. Both
  // are only initialized when the config's spec is non-empty, so fault-free
  // runs fork no streams and schedule no events.
  fault::FaultSchedule faults;
  bool faults_active = false;
  rng::Stream link_stream{0};
  double fg_delay = 0.0;
  double fg_cpu = 0.0;
  double idle_node_time = 0.0;
  double total_node_time = 0.0;
  bool tick_scheduled = false;
  double tick_horizon = 0.0;
  std::function<void(const JobRecord&)> on_complete;

  // The pool's derivation under cfg.recruitment: one idle-flag vector per
  // trace, shared with every other run over the pool.
  std::shared_ptr<const trace::PoolDerived> derived;

  // ---- helpers -----------------------------------------------------------

  [[nodiscard]] double now() const { return sim.now(); }

  [[nodiscard]] double migration_cost(const JobRecord& job) const {
    return cfg.migration.cost(job.bytes);
  }

  /// The first window boundary after now(): where ensure_tick puts the
  /// next tick. While a job executes a tick is pending there, or (inside
  /// tick()) is about to be.
  [[nodiscard]] double next_tick_time() const {
    return (std::floor(now() / period + 1e-9) + 1.0) * period;
  }

  void ensure_tick() {
    if (tick_scheduled) return;
    if (self.active_jobs_ == 0 && now() >= tick_horizon) return;
    tick_scheduled = true;
    sim.schedule_at(next_tick_time(), [this] { tick(); }, kTagTick);
  }

  /// Occupants currently consuming CPU (Running or Lingering) — they
  /// processor-share the node's leftover rate.
  [[nodiscard]] std::size_t executing_count(const Node& n) const {
    std::size_t k = 0;
    for (JobId id : n.occupants) {
      const JobState s = self.jobs_[id].state;
      if (s == JobState::Running || s == JobState::Lingering) ++k;
    }
    return k;
  }

  /// Re-evaluates the donated page pool split across the node's occupants.
  void update_memory(Node& n) {
    if (!cfg.model_memory || !n.pool) return;
    const auto ws_pages = node::PagePool::kb_to_pages(cfg.job_mem_kb);
    const auto total =
        static_cast<std::uint32_t>(ws_pages * n.occupants.size());
    const auto resident = n.pool->request_foreign_pages(total);
    n.mem_factor = n.occupants.empty()
                       ? 1.0
                       : node::memory_progress_factor(resident, total);
  }

  /// Reads node `i`'s trace sample `window` (its current_window) into the
  /// SoA state, under any crash or storm overlay.
  void update_sample(std::size_t i, std::size_t window) {
    Node& n = nodes[i];
    double util = std::clamp(n.trace->samples()[window].cpu, 0.0, 1.0);
    const bool was_idle = is_idle(i);
    bool idle = (*n.flags)[window];
    if (node_down[i] != 0) {
      // A crashed node donates nothing and hosts nothing until recovery.
      idle = false;
      util = 0.0;
    } else if (n.forced_busy_until > now() + 1e-12) {
      // Reclamation storm: the owner is back regardless of the trace. The
      // overlay ends at the first window boundary past forced_busy_until.
      idle = false;
      util = std::max(util, n.forced_util);
    }
    node_util[i] = util;
    node_idle[i] = idle ? 1 : 0;
    if (was_idle && !idle) node_episode[i] = now();
    update_memory_sample(i, window);
  }

  /// The memory half of update_sample: local working set from the trace
  /// (plus any active pressure spike), then the donated-pool split.
  void update_memory_sample(std::size_t i, std::size_t window) {
    Node& n = nodes[i];
    if (!cfg.model_memory || !n.pool) return;
    const auto free_kb =
        std::max<std::int32_t>(0, n.trace->samples()[window].mem_free_kb);
    auto used_kb = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, cfg.mem_total_kb - free_kb));
    if (now() < n.pressure_until) used_kb += n.pressure_kb;
    node_local_pages[i] = node::PagePool::kb_to_pages(used_kb);
    if (node_occ[i] == 0) return;  // no guest reads the pool
    n.pool->set_local_pages(node_local_pages[i]);
    update_memory(n);
  }

  /// Whole windows elapsed at now(); the same for every node.
  [[nodiscard]] std::size_t elapsed_windows() const {
    return static_cast<std::size_t>(std::floor(now() / period + 1e-9));
  }

  /// Node `n`'s trace sample after `elapsed` windows.
  [[nodiscard]] static std::size_t window_at(const Node& n,
                                             std::size_t elapsed) {
    return (n.offset_windows + elapsed) % n.trace->samples().size();
  }

  [[nodiscard]] std::size_t current_window(const Node& n) const {
    return window_at(n, elapsed_windows());
  }

  /// Folds elapsed progress into the job; returns true if it just finished.
  bool integrate(JobId id) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    const double dt = now() - r.last_update;
    r.last_update = now();
    if (dt > 0.0 && r.rate > 0.0) {
      const double work = std::min(job.remaining, r.rate * dt);
      job.remaining -= work;
      self.delivered_cpu_ += work;
    }
    return job.remaining <= kRemainingEps;
  }

  /// CPU rate one executing occupant of node `i` receives right now: the
  /// node's leftover rate, degraded by memory pressure, processor-shared
  /// among the executing occupants.
  [[nodiscard]] double execution_rate(std::size_t i) const {
    const std::size_t k = executing_count(nodes[i]);
    if (k == 0) return 0.0;
    return rates.foreign_rate(node_util[i]) *
           (cfg.model_memory ? nodes[i].mem_factor : 1.0) /
           static_cast<double>(k);
  }

  void reschedule_completion(JobId id) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    sim.cancel(r.completion_event);
    r.completion_event = des::kNoEvent;
    if (job.state != JobState::Running && job.state != JobState::Lingering) {
      r.rate = 0.0;
      return;
    }
    r.rate = execution_rate(static_cast<std::size_t>(r.node));
    if (r.rate <= 0.0) return;
    // Event-sparse: the next tick re-rates every executing guest, so a
    // completion due after it could only be cancelled there. Arm only one
    // that lands at or before the tick (on a tie one armed inside a tick's
    // loop precedes the next tick in (time, id) order and fires first);
    // otherwise the tick integrates the job and decides again.
    const double at = now() + job.remaining / r.rate;
    if (!(at <= next_tick_time())) return;
    r.completion_event = sim.schedule_at(
        at,
        [this, id] {
          if (integrate(id)) {
            complete(id);
          } else {
            // Numerical slack: re-arm for the residue.
            rt[id].completion_event = des::kNoEvent;
            reschedule_completion(id);
          }
        },
        kTagCompletion);
  }

  /// Re-evaluates a job's progress rate after its node's window changed.
  void refresh_rate(JobId id) {
    if (integrate(id)) {
      complete(id);
      return;
    }
    reschedule_completion(id);
  }

  /// Processor-sharing: any change to a node's executing-occupant set or
  /// utilization changes every co-occupant's share. Integrates each at its
  /// old rate, then re-arms at the new share.
  void refresh_node_rates(std::size_t node_idx) {
    const std::vector<JobId>& occupants = nodes[node_idx].occupants;
    if (occupants.size() == 1) {
      // The paper's one-guest node, and nearly every call: nothing is read
      // from the list after the refresh, so it needs no snapshot.
      const JobId id = occupants.front();
      const JobState s = self.jobs_[id].state;
      if (s == JobState::Running || s == JobState::Lingering) refresh_rate(id);
      return;
    }
    // A refresh can complete a job and shrink the list under the loop.
    const std::vector<JobId> snapshot = occupants;
    for (JobId id : snapshot) {
      const JobState s = self.jobs_[id].state;
      if (s == JobState::Running || s == JobState::Lingering) {
        refresh_rate(id);
      }
    }
  }

  void cancel_recheck(JobId id) {
    sim.cancel(rt[id].recheck_event);
    rt[id].recheck_event = des::kNoEvent;
  }

  void remove_from_displaced(JobId id) {
    if (!rt[id].displaced) return;
    rt[id].displaced = false;
    auto it = std::find(displaced.begin(), displaced.end(), id);
    if (it != displaced.end()) displaced.erase(it);
  }

  /// Policy consultation for a job occupying a non-idle node.
  void handle_nonidle(JobId id) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    const auto node_idx = static_cast<std::size_t>(r.node);
    Node& n = nodes[node_idx];
    cancel_recheck(id);

    core::PolicyContext ctx;
    ctx.episode_age = now() - node_episode[node_idx];
    ctx.node_utilization = node_util[node_idx];
    ctx.idle_utilization = self.idle_util_;
    ctx.migration_cost = migration_cost(job);
    if (cfg.policy == core::PolicyKind::OracleLinger) {
      ctx.episode_remaining =
          episode_remaining(*n.flags, current_window(n), period);
    }
    const core::Decision d = policy->on_nonidle(ctx);
    if (integrate(id)) {
      complete(id);
      return;
    }

    switch (d.action) {
      case core::Decision::Action::Continue:
        job.set_state(JobState::Lingering, now());
        reschedule_completion(id);
        break;
      case core::Decision::Action::Linger:
        job.set_state(JobState::Lingering, now());
        reschedule_completion(id);
        r.recheck_event =
            sim.schedule_in(std::max(d.recheck_in, 1e-6),
                            [this, id] { on_recheck(id); }, kTagRecheck);
        break;
      case core::Decision::Action::Pause:
        job.set_state(JobState::Paused, now());
        reschedule_completion(id);  // clears the rate / completion event
        r.recheck_event =
            sim.schedule_in(std::max(d.recheck_in, 1e-6),
                            [this, id] { on_recheck(id); }, kTagRecheck);
        break;
      case core::Decision::Action::Migrate:
        r.wants_migration = true;
        if (!r.in_want_list) {
          r.in_want_list = true;
          want_list.push_back(id);
        }
        if (policy->allows_lingering()) {
          // Keep executing while a target is sought.
          job.set_state(JobState::Lingering, now());
          reschedule_completion(id);
        } else {
          job.set_state(JobState::Paused, now());
          reschedule_completion(id);
          if (!r.displaced) {
            r.displaced = true;
            displaced.push_back(id);
          }
        }
        break;
    }
    // Keep the periodic-checkpoint timer in sync with the new state
    // (executing states keep one armed, suspended states none).
    sync_checkpoint(id);
  }

  void on_recheck(JobId id) {
    rt[id].recheck_event = des::kNoEvent;
    const JobRecord& job = self.jobs_[id];
    if (job.state == JobState::Done || job.state == JobState::Migrating ||
        job.state == JobState::Checkpointing || rt[id].node < 0) {
      return;
    }
    const auto node_idx = static_cast<std::size_t>(rt[id].node);
    if (is_idle(node_idx)) return;  // transition handler resumed the job
    handle_nonidle(id);
    refresh_node_rates(node_idx);  // pausing/resuming shifts the shares
    placement();
  }

  /// Owner returned (the node just went non-idle): every occupant faces
  /// the policy at once.
  void handle_busy_transition(std::size_t node_idx) {
    const std::vector<JobId> snapshot = nodes[node_idx].occupants;
    for (JobId id : snapshot) {
      const JobState s = self.jobs_[id].state;
      if (s == JobState::Done || s == JobState::Checkpointing) continue;
      if (integrate(id)) {
        complete(id);
      } else {
        handle_nonidle(id);
      }
    }
    refresh_node_rates(node_idx);
  }

  /// Owner departed: the node's occupants run at full (idle-node) terms.
  void handle_idle_transition(std::size_t node_idx) {
    const std::vector<JobId> snapshot = nodes[node_idx].occupants;
    for (JobId id : snapshot) {
      const JobState s = self.jobs_[id].state;
      // A job mid-checkpoint-write keeps writing; finish_checkpoint reads
      // the node's idle flag and resumes it at the right terms.
      if (s == JobState::Done || s == JobState::Checkpointing) continue;
      cancel_recheck(id);
      rt[id].wants_migration = false;
      remove_from_displaced(id);
      if (integrate(id)) {
        complete(id);
        continue;
      }
      self.jobs_[id].set_state(JobState::Running, now());
      reschedule_completion(id);
      sync_checkpoint(id);
    }
    refresh_node_rates(node_idx);
  }

  void place_job(JobId id, std::size_t node_idx) {
    Node& n = nodes[node_idx];
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    const bool idle = is_idle(node_idx);
    if (tracer) {
      tracer->instant(idle ? tl.job_running : tl.job_lingering, now(), id);
    }
    if (n.pool && n.occupants.empty()) {
      // The first guest: bring the pool up to the window's owner pages.
      n.pool->set_local_pages(node_local_pages[node_idx]);
    }
    n.occupants.push_back(id);
    sync_slots(node_idx);
    r.node = static_cast<int>(node_idx);
    r.last_update = now();
    update_memory(n);
    job.set_state(idle ? JobState::Running : JobState::Lingering, now());
    reschedule_completion(id);
    if (!idle) handle_nonidle(id);
    // The newcomer changes every co-occupant's processor share.
    refresh_node_rates(node_idx);
    sync_checkpoint(id);
  }

  void release_node(JobId id, bool charge_owner_penalty = true) {
    JobRuntime& r = rt[id];
    if (r.node < 0) return;
    const auto node_idx = static_cast<std::size_t>(r.node);
    Node& n = nodes[node_idx];
    auto it = std::find(n.occupants.begin(), n.occupants.end(), id);
    if (it != n.occupants.end()) {
      n.occupants.erase(it);
      sync_slots(node_idx);
      update_memory(n);
      // A guest leaving an active owner's machine forces the owner to
      // re-fault the pages and cache lines the guest displaced (paper §1).
      // Crash departures skip the charge: there is no owner to delay.
      if (!is_idle(node_idx) && charge_owner_penalty) {
        fg_delay += cfg.owner_restore_penalty;
      }
    }
    r.node = -1;
    refresh_node_rates(node_idx);  // survivors inherit the freed share
  }

  void start_migration(JobId id, std::size_t target_idx) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    if (integrate(id)) {
      complete(id);
      return;
    }
    cancel_recheck(id);
    cancel_checkpoint(id);
    sim.cancel(r.completion_event);
    r.completion_event = des::kNoEvent;
    r.rate = 0.0;
    r.wants_migration = false;
    remove_from_displaced(id);
    const int source = r.node;
    release_node(id);

    ++nodes[target_idx].reserved;
    sync_slots(target_idx);
    job.set_state(JobState::Migrating, now());
    ++inflight_migrations;
    ++self.migrations_;
    if (m_migrations) m_migrations->add();
    r.mig_source = source;
    r.mig_target = static_cast<int>(target_idx);
    r.mig_attempts = 0;
    r.mig_start = now();
    r.mig_event = sim.schedule_in(
        migration_cost(job),
        [this, id, target_idx] { finish_migration(id, target_idx); },
        kTagMigration);
  }

  void finish_migration(JobId id, std::size_t target_idx) {
    JobRuntime& r = rt[id];
    Node& target = nodes[target_idx];
    // Transient link fault? The transfer is re-attempted after a backoff
    // with the destination slot still reserved; when retries run out the
    // job fails back to the queue (fail_to_queue releases the slot).
    if (faults_active && cfg.faults.link.drop_probability > 0.0 &&
        link_stream.uniform01() < cfg.faults.link.drop_probability) {
      if (r.mig_attempts < cfg.faults.link.max_retries) {
        ++r.mig_attempts;
        ++self.migration_retries_;
        if (tracer) tracer->instant(tl.mig_retry, now(), id);
        r.mig_event = sim.schedule_in(
            cfg.faults.link.retry_backoff + migration_cost(self.jobs_[id]),
            [this, id, target_idx] { finish_migration(id, target_idx); },
            kTagMigration);
        return;
      }
      ++self.migration_aborts_;
      if (m_aborts) m_aborts->add();
      if (tracer) tracer->virtual_span(tl.mig_abort, r.mig_start, now(), id);
      fail_to_queue(id);
      placement();
      return;
    }
    r.mig_event = des::kNoEvent;
    r.mig_source = r.mig_target = -1;
    --inflight_migrations;
    if (target.reserved == 0) {
      throw std::logic_error(
          "ClusterSim: migration arrived with no reserved slot");
    }
    --target.reserved;
    sync_slots(target_idx);
    if (tracer) tracer->virtual_span(tl.migration, r.mig_start, now(), id);
    place_job(id, target_idx);
    placement();
  }

  /// Best node with a free slot, or nullopt. Preference order: emptier
  /// first (spread before sharing), then lower utilization, then index.
  /// This is THE placement scan: a straight pass over four SoA arrays,
  /// branch-light and cache-linear even at 100k nodes.
  [[nodiscard]] std::optional<std::size_t> best_free_node(bool want_idle) const {
    const std::uint8_t want = want_idle ? 1 : 0;
    const std::size_t n = nodes.size();
    std::optional<std::size_t> best;
    std::uint32_t best_used = 0;
    double best_util = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (node_down[i] != 0) continue;  // dead nodes host nothing (down =>
                                        // non-idle, but lingering policies
                                        // probe non-idle nodes)
      if (node_idle[i] != want) continue;
      const std::uint32_t used = node_used[i];
      if (used >= cfg.max_foreign_per_node) continue;
      if (!best) {
        best = i;
        best_used = used;
        best_util = node_util[i];
        continue;
      }
      if (used != best_used) {
        if (used < best_used) {
          best = i;
          best_used = used;
          best_util = node_util[i];
        }
      } else if (node_util[i] < best_util) {
        best = i;
        best_used = used;
        best_util = node_util[i];
      }
    }
    return best;
  }

  bool in_placement = false;
  bool placement_pending = false;

  void placement() {
    // Guard: completing a job inside start_migration() re-enters placement;
    // defer the nested pass so target choices are never stale.
    if (in_placement) {
      placement_pending = true;
      return;
    }
    in_placement = true;
    do {
      placement_pending = false;
      placement_pass();
    } while (placement_pending);
    in_placement = false;
    // Every path that changes queue length or node occupancy funnels
    // through a placement pass, so this one call keeps the time-weighted
    // accumulators exact.
    note_metrics();
  }

  void placement_pass() {
    // 1. Displaced (suspended) jobs migrate as soon as idle targets exist.
    while (!displaced.empty()) {
      const auto target = best_free_node(/*want_idle=*/true);
      if (!target) break;
      const JobId id = displaced.front();
      displaced.pop_front();
      rt[id].displaced = false;
      start_migration(id, *target);
    }
    // 2. Fresh queue onto free slots: idle first, then (if the policy
    //    lingers) the most lightly loaded non-idle nodes.
    while (!queue.empty()) {
      auto target = best_free_node(/*want_idle=*/true);
      if (!target && policy->allows_lingering()) {
        target = best_free_node(/*want_idle=*/false);
      }
      if (!target) break;
      const JobId id = queue.front();
      queue.pop_front();
      place_job(id, *target);
    }
    // 3. Lingering jobs past their linger deadline move to leftover idle
    //    nodes, worst source first.
    {
      std::erase_if(want_list, [this](JobId id) {
        if (rt[id].wants_migration) return false;
        rt[id].in_want_list = false;
        return true;
      });
      std::vector<JobId> movers;
      for (JobId id : want_list) {
        if (self.jobs_[id].state == JobState::Lingering) movers.push_back(id);
      }
      std::sort(movers.begin(), movers.end(), [this](JobId a, JobId b) {
        const double ua = node_util[static_cast<std::size_t>(rt[a].node)];
        const double ub = node_util[static_cast<std::size_t>(rt[b].node)];
        if (ua != ub) return ua > ub;
        return a < b;
      });
      for (JobId id : movers) {
        const auto target = best_free_node(/*want_idle=*/true);
        if (!target) break;
        start_migration(id, *target);
      }
    }
  }

  void complete(JobId id) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    sim.cancel(r.completion_event);
    r.completion_event = des::kNoEvent;
    cancel_recheck(id);
    cancel_checkpoint(id);
    r.wants_migration = false;
    remove_from_displaced(id);
    release_node(id);
    job.remaining = 0.0;
    job.set_state(JobState::Done, now());
    --self.active_jobs_;
    if (m_completed) m_completed->add();
    if (g_delivered) g_delivered->set(self.delivered_cpu_);
    if (tracer) tracer->instant(tl.job_done, now(), id);
    if (on_complete) on_complete(job);
    placement();
  }

  void account_window() {
    const std::size_t n = nodes.size();
    for (std::size_t i = 0; i < n; ++i) {
      fg_cpu += node_util[i] * period;
      total_node_time += period;
      if (node_idle[i] != 0) idle_node_time += period;
      if (node_occ[i] == 0) continue;  // SoA guard: most nodes host nobody
      // Each guest actively stealing cycles adds its own switch overhead to
      // the owner's work.
      for (JobId id : nodes[i].occupants) {
        const JobState s = self.jobs_[id].state;
        if (s == JobState::Running || s == JobState::Lingering) {
          fg_delay += rates.ldr(node_util[i]) * node_util[i] * period;
        }
      }
    }
  }

  // ---- fault injection & checkpointing ----------------------------------

  void schedule_faults() {
    for (const fault::FaultEvent& ev : faults.events()) {
      const fault::FaultEvent* e = &ev;  // stable: events_ never mutates
      sim.schedule_at(ev.time, [this, e] { apply_fault(*e); }, kTagFault);
    }
  }

  void apply_fault(const fault::FaultEvent& ev) {
    switch (ev.kind) {
      case fault::FaultKind::NodeCrash:
        crash_node(ev.nodes.front(), ev.duration);
        break;
      case fault::FaultKind::Storm:
        start_storm(ev);
        break;
      case fault::FaultKind::Pressure:
        start_pressure(ev);
        break;
    }
  }

  void crash_node(std::size_t idx, double downtime) {
    Node& n = nodes[idx];
    ++self.crashes_;
    if (m_crashes) m_crashes->add();
    if (tracer) tracer->instant(tl.crash, now(), idx);
    const double until = now() + downtime;
    if (node_down[idx] != 0) {
      // Overlapping crash: extend the outage; the extra recovery event
      // scheduled here supersedes the earlier one (recover_node re-checks
      // down_until and ignores stale wakeups).
      if (until > n.down_until) {
        n.down_until = until;
        sim.schedule_at(until, [this, idx] { recover_node(idx); }, kTagFault);
      }
      return;
    }
    node_down[idx] = 1;
    n.down_until = until;
    n.down_since = now();
    node_idle[idx] = 0;
    node_util[idx] = 0.0;
    // Resident foreign jobs die with the node and restart from their last
    // checkpoint via the queue. Progress is integrated up to the crash
    // instant first so the rollback accounting is exact.
    const std::vector<JobId> snapshot = n.occupants;
    for (JobId id : snapshot) {
      if (self.jobs_[id].state == JobState::Done) continue;
      if (integrate(id)) {
        complete(id);
        continue;
      }
      fail_to_queue(id);
    }
    // In-flight migrations touching the dead node (either endpoint) abort:
    // the image source or destination is gone mid-transfer.
    for (JobId id = 0; id < self.jobs_.size(); ++id) {
      JobRuntime& r = rt[id];
      if (r.mig_event == des::kNoEvent) continue;
      if (r.mig_target == static_cast<int>(idx) ||
          r.mig_source == static_cast<int>(idx)) {
        ++self.migration_aborts_;
        if (m_aborts) m_aborts->add();
        if (tracer) tracer->virtual_span(tl.mig_abort, r.mig_start, now(), id);
        fail_to_queue(id);
      }
    }
    sim.schedule_at(n.down_until, [this, idx] { recover_node(idx); },
                    kTagFault);
    placement();
  }

  void recover_node(std::size_t idx) {
    Node& n = nodes[idx];
    if (node_down[idx] == 0) return;
    if (now() + 1e-9 < n.down_until) return;  // superseded by a longer outage
    node_down[idx] = 0;
    if (tracer) tracer->virtual_span(tl.outage, n.down_since, now(), idx);
    update_sample(idx, current_window(n));
    node_episode[idx] = now();
    if (tracer) {
      tracer->instant(is_idle(idx) ? tl.node_idle : tl.node_busy, now(), idx);
    }
    placement();
  }

  void start_storm(const fault::FaultEvent& ev) {
    for (std::size_t idx : ev.nodes) {
      Node& n = nodes[idx];
      if (node_down[idx] != 0) continue;  // already dead: nothing to reclaim
      n.forced_busy_until = std::max(n.forced_busy_until, now() + ev.duration);
      n.forced_util = std::max(n.forced_util, cfg.faults.storm.utilization);
      const bool was_idle = is_idle(idx);
      node_idle[idx] = 0;
      node_util[idx] = std::max(node_util[idx], n.forced_util);
      if (was_idle) {
        node_episode[idx] = now();
        if (tracer) tracer->instant(tl.storm, now(), idx);
        // The owner-returned path of tick(): the storm's point is
        // simultaneous eviction pressure across the membership set.
        handle_busy_transition(idx);
      } else {
        refresh_node_rates(idx);
      }
    }
    placement();
  }

  void start_pressure(const fault::FaultEvent& ev) {
    for (std::size_t idx : ev.nodes) {
      Node& n = nodes[idx];
      if (node_down[idx] != 0 || !cfg.model_memory || !n.pool) continue;
      n.pressure_until = std::max(n.pressure_until, now() + ev.duration);
      n.pressure_kb = std::max(n.pressure_kb, cfg.faults.pressure.extra_kb);
      if (tracer) tracer->instant(tl.pressure, now(), idx);
      // Re-split the page pool under the spike without re-reading the
      // owner-activity half of the window; the spike decays at the first
      // window boundary past pressure_until.
      update_memory_sample(idx, current_window(n));
      refresh_node_rates(idx);
    }
  }

  /// Tears a job out of wherever it is (node residence, in-flight
  /// migration, checkpoint write) and returns it to the dispatch queue,
  /// rolling progress back to its last checkpoint. Shared by crash victims
  /// and migrations whose retries ran out.
  void fail_to_queue(JobId id) {
    JobRuntime& r = rt[id];
    JobRecord& job = self.jobs_[id];
    sim.cancel(r.completion_event);
    r.completion_event = des::kNoEvent;
    cancel_recheck(id);
    cancel_checkpoint(id);
    r.rate = 0.0;
    r.wants_migration = false;
    remove_from_displaced(id);
    if (r.mig_event != des::kNoEvent) {
      sim.cancel(r.mig_event);  // no-op when the event is mid-fire
      r.mig_event = des::kNoEvent;
      --inflight_migrations;
      const auto target_idx = static_cast<std::size_t>(r.mig_target);
      Node& target = nodes[target_idx];
      if (target.reserved == 0) {
        throw std::logic_error(
            "ClusterSim: aborting a migration with no reserved slot");
      }
      --target.reserved;
      sync_slots(target_idx);
      r.mig_source = r.mig_target = -1;
    }
    release_node(id, /*charge_owner_penalty=*/false);
    const double progress = job.cpu_demand - job.remaining;
    const double lost = std::max(0.0, progress - job.checkpointed);
    if (lost > 0.0) {
      job.remaining += lost;
      self.delivered_cpu_ -= lost;
      self.work_lost_ += lost;
      if (g_work_lost) g_work_lost->set(self.work_lost_);
      if (g_delivered) g_delivered->set(self.delivered_cpu_);
    }
    ++job.restarts;
    ++self.restarts_;
    if (m_restarts) m_restarts->add();
    job.set_state(JobState::Queued, now());
    r.last_update = now();
    queue.push_back(id);
    if (tracer) tracer->instant(tl.requeue, now(), id);
  }

  void cancel_checkpoint(JobId id) {
    sim.cancel(rt[id].checkpoint_event);
    rt[id].checkpoint_event = des::kNoEvent;
  }

  /// Keeps the periodic-checkpoint timer consistent with the job's state:
  /// one pending timer while executing, none otherwise. With checkpointing
  /// disabled this never schedules anything — a compiled-in-but-unused
  /// checkpoint layer costs fault-free runs nothing (pinned by goldens and
  /// bench/micro_fault).
  void sync_checkpoint(JobId id) {
    if (!cfg.checkpoint.enabled()) return;
    JobRuntime& r = rt[id];
    const JobState s = self.jobs_[id].state;
    const bool executing = s == JobState::Running || s == JobState::Lingering;
    if (executing) {
      if (r.checkpoint_event == des::kNoEvent) {
        r.checkpoint_event = sim.schedule_in(
            cfg.checkpoint.interval, [this, id] { on_checkpoint(id); },
            kTagCheckpoint);
      }
    } else if (s != JobState::Checkpointing) {
      // While Checkpointing, checkpoint_event is the write-finish event.
      cancel_checkpoint(id);
    }
  }

  void on_checkpoint(JobId id) {
    JobRuntime& r = rt[id];
    r.checkpoint_event = des::kNoEvent;
    JobRecord& job = self.jobs_[id];
    if (job.state != JobState::Running && job.state != JobState::Lingering) {
      return;
    }
    if (integrate(id)) {
      complete(id);
      return;
    }
    sim.cancel(r.completion_event);
    r.completion_event = des::kNoEvent;
    cancel_recheck(id);  // a recheck mid-write would misread the state
    r.rate = 0.0;
    const auto node_idx = static_cast<std::size_t>(r.node);
    job.set_state(JobState::Checkpointing, now());
    r.ckpt_start = now();
    refresh_node_rates(node_idx);  // the writer stops sharing the CPU
    r.checkpoint_event = sim.schedule_in(
        cfg.checkpoint.cost(job.bytes), [this, id] { finish_checkpoint(id); },
        kTagCheckpoint);
  }

  void finish_checkpoint(JobId id) {
    JobRuntime& r = rt[id];
    r.checkpoint_event = des::kNoEvent;
    JobRecord& job = self.jobs_[id];
    // A crash mid-write already re-queued the job (and the write is void).
    if (job.state != JobState::Checkpointing) return;
    job.checkpointed = job.cpu_demand - job.remaining;
    ++job.checkpoints;
    ++self.checkpoints_;
    if (m_checkpoints) m_checkpoints->add();
    if (tracer) tracer->virtual_span(tl.checkpoint, r.ckpt_start, now(), id);
    r.last_update = now();
    const auto node_idx = static_cast<std::size_t>(r.node);
    if (is_idle(node_idx)) {
      job.set_state(JobState::Running, now());
      reschedule_completion(id);
      sync_checkpoint(id);
    } else {
      handle_nonidle(id);  // re-arms the timer via its sync_checkpoint
      if (job.state == JobState::Done) return;
    }
    refresh_node_rates(node_idx);
    placement();
  }

  void tick() {
    tick_scheduled = false;
    const std::size_t n_count = nodes.size();
    const std::size_t elapsed = elapsed_windows();
    // Node j's window, computed and its sample prefetched kPrefetchAhead
    // nodes before the loop reaches j (see the SoA comment on Node).
    std::array<std::size_t, kPrefetchAhead> ahead{};
    const auto prefetch = [&](std::size_t j) {
      const std::size_t w = window_at(nodes[j], elapsed);
      __builtin_prefetch(&nodes[j].trace->samples()[w]);
      ahead[j % kPrefetchAhead] = w;
    };
    for (std::size_t j = 0; j < std::min(kPrefetchAhead, n_count); ++j) {
      prefetch(j);
    }
    for (std::size_t i = 0; i < n_count; ++i) {
      const std::size_t window = ahead[i % kPrefetchAhead];
      if (i + kPrefetchAhead < n_count) prefetch(i + kPrefetchAhead);
      const bool was_idle = is_idle(i);
      update_sample(i, window);
      if (was_idle && !is_idle(i)) {
        if (tracer) tracer->instant(tl.node_busy, now(), i);
        handle_busy_transition(i);
      } else if (!was_idle && is_idle(i)) {
        if (tracer) tracer->instant(tl.node_idle, now(), i);
        handle_idle_transition(i);
      } else if (node_occ[i] != 0) {
        // Same state, possibly new utilization level: refresh the shares.
        // SoA guard: refreshing an empty node is a no-op — skipping the
        // call keeps the tick loop allocation-free for idle regions.
        refresh_node_rates(i);
      }
    }
    account_window();
    placement();
    ensure_tick();
  }
};

double episode_remaining(const std::vector<bool>& flags, std::size_t window,
                         double period) {
  const std::size_t n = flags.size();
  double run = 0.0;
  for (std::size_t k = 0, i = window; k < n; ++k) {
    if (flags[i]) return run;
    run += period;
    if (++i == n) i = 0;
  }
  return std::numeric_limits<double>::infinity();
}

ClusterSim::ClusterSim(ClusterConfig config, const trace::TracePool& pool,
                       const workload::BurstTable& burst_table,
                       rng::Stream stream)
    : impl_(std::make_unique<Impl>(*this, std::move(config))) {
  Impl& im = *impl_;
  if (im.cfg.node_count == 0) {
    throw std::invalid_argument("ClusterSim: node_count must be > 0");
  }
  if (im.cfg.max_foreign_per_node == 0) {
    throw std::invalid_argument("ClusterSim: max_foreign_per_node must be > 0");
  }
  if (!(im.cfg.policy_params.pause_time >= 0.0)) {
    throw std::invalid_argument("ClusterSim: pause_time must be >= 0");
  }
  if (!(im.cfg.policy_params.linger_scale >= 0.0)) {
    throw std::invalid_argument("ClusterSim: linger_scale must be >= 0");
  }
  if (!(im.cfg.migration.bandwidth_bps > 0.0)) {
    throw std::invalid_argument(
        "ClusterSim: migration bandwidth must be > 0");
  }
  if (!(im.cfg.context_switch >= 0.0)) {
    throw std::invalid_argument("ClusterSim: context_switch must be >= 0");
  }
  im.cfg.checkpoint.validate();
  im.cfg.faults.validate();
  im.derived = pool.derived(im.cfg.recruitment);
  im.period = im.derived->period;
  idle_util_ = im.derived->idle_utilization;

  im.policy = core::make_policy(im.cfg.policy, im.cfg.policy_params);
  im.rates = node::EffectiveRateTable::analytic(burst_table, im.cfg.context_switch);

  // Node setup: random trace, random window-aligned offset.
  rng::Stream setup = stream.fork("node-setup");
  im.nodes.resize(im.cfg.node_count);
  im.node_util.assign(im.cfg.node_count, 0.0);
  im.node_idle.assign(im.cfg.node_count, 1);
  im.node_down.assign(im.cfg.node_count, 0);
  im.node_occ.assign(im.cfg.node_count, 0);
  im.node_used.assign(im.cfg.node_count, 0);
  im.node_episode.assign(im.cfg.node_count, 0.0);
  im.node_local_pages.assign(im.cfg.node_count, 0);
  for (std::size_t i = 0; i < im.cfg.node_count; ++i) {
    Node& n = im.nodes[i];
    const auto pick = im.cfg.randomize_placement
                          ? setup.uniform_index(pool.size())
                          : i % pool.size();
    n.trace = &pool[pick];
    n.flags = &im.derived->idle_flags[pick];
    n.offset_windows = im.cfg.randomize_placement
                           ? setup.uniform_index(n.trace->samples().size())
                           : 0;
    if (im.cfg.model_memory) {
      node::PagePoolConfig pc;
      pc.total_pages = node::PagePool::kb_to_pages(im.cfg.mem_total_kb);
      n.pool.emplace(pc);
    }
    // Initial sample at t = 0; nodes starting non-idle have episode age 0.
    im.update_sample(i, im.current_window(n));
    im.node_episode[i] = 0.0;
  }
  im.account_window();
  im.tick_scheduled = true;
  im.sim.schedule_at(im.period, [this] { impl_->tick(); }, kTagTick);

  // Fault timeline last, and only for non-empty specs: an empty spec forks
  // no streams and schedules no events, keeping fault-free runs bit-for-bit
  // identical to pre-fault builds (the goldens pin this). Forking is a pure
  // function of (seed, label), so even a non-empty spec cannot perturb the
  // node-setup draws above.
  im.faults_active = !im.cfg.faults.empty();
  if (im.faults_active) {
    im.faults = fault::FaultSchedule::compile(im.cfg.faults, im.cfg.node_count,
                                              stream.fork("faults"));
    im.link_stream = stream.fork("fault-link");
    im.schedule_faults();
  }
}

ClusterSim::~ClusterSim() = default;

JobId ClusterSim::submit(double cpu_demand_seconds) {
  if (!(cpu_demand_seconds > 0.0)) {
    throw std::invalid_argument("submit: demand must be > 0");
  }
  Impl& im = *impl_;
  const auto id = static_cast<JobId>(jobs_.size());
  JobRecord job;
  job.id = id;
  job.cpu_demand = cpu_demand_seconds;
  job.remaining = cpu_demand_seconds;
  job.bytes = im.cfg.job_bytes;
  job.submit_time = im.now();
  job.state = JobState::Queued;
  job.state_since = im.now();
  jobs_.push_back(std::move(job));
  im.rt.emplace_back();
  im.rt.back().last_update = im.now();
  ++active_jobs_;
  if (im.m_submitted) im.m_submitted->add();
  if (im.tracer) im.tracer->instant(im.tl.job_queued, im.now(), id);
  im.queue.push_back(id);
  im.ensure_tick();
  im.placement();
  return id;
}

void ClusterSim::set_completion_callback(std::function<void(const JobRecord&)> cb) {
  impl_->on_complete = std::move(cb);
}

void ClusterSim::run_until_all_complete(double max_horizon) {
  Impl& im = *impl_;
  while (active_jobs_ > 0) {
    if (!im.sim.step()) {
      throw std::logic_error(
          "ClusterSim: event queue drained with jobs incomplete");
    }
    if (im.now() > max_horizon) {
      throw std::runtime_error("ClusterSim: exceeded max horizon with " +
                               std::to_string(active_jobs_) +
                               " jobs incomplete");
    }
  }
}

void ClusterSim::run_for(double duration) {
  Impl& im = *impl_;
  if (!(duration >= 0.0)) {
    throw std::invalid_argument("run_for: negative duration");
  }
  im.tick_horizon = std::max(im.tick_horizon, im.now() + duration);
  im.ensure_tick();
  im.sim.run_until(im.now() + duration);
  // Fold partial progress at the horizon so delivered_cpu() is exact.
  for (JobId id = 0; id < jobs_.size(); ++id) {
    if (jobs_[id].state == JobState::Running ||
        jobs_[id].state == JobState::Lingering) {
      if (im.integrate(id)) im.complete(id);
    }
  }
}

double ClusterSim::now() const { return impl_->now(); }

const ClusterConfig& ClusterSim::config() const { return impl_->cfg; }

void ClusterSim::set_metrics(obs::MetricRegistry* registry) {
  Impl& im = *impl_;
  if (!registry) {
    im.m_submitted = im.m_completed = im.m_migrations = nullptr;
    im.m_crashes = im.m_restarts = im.m_checkpoints = im.m_aborts = nullptr;
    im.g_delivered = im.g_work_lost = nullptr;
    im.tw_queue = im.tw_occupied = im.tw_idle = nullptr;
    return;
  }
  im.m_submitted = &registry->counter("cluster.jobs_submitted");
  im.m_completed = &registry->counter("cluster.jobs_completed");
  im.m_migrations = &registry->counter("cluster.migrations");
  im.m_crashes = &registry->counter("fault.crashes");
  im.m_restarts = &registry->counter("fault.restarts");
  im.m_checkpoints = &registry->counter("fault.checkpoints");
  im.m_aborts = &registry->counter("fault.migration_aborts");
  im.g_delivered = &registry->gauge("cluster.delivered_cpu_seconds");
  im.g_work_lost = &registry->gauge("fault.work_lost_cpu_seconds");
  im.tw_queue = &registry->time_weighted("cluster.queue_length");
  im.tw_occupied = &registry->time_weighted("cluster.occupied_nodes");
  im.tw_idle = &registry->time_weighted("cluster.idle_nodes");
  im.note_metrics();
}

void ClusterSim::set_tracer(obs::Tracer* tracer) {
  Impl& im = *impl_;
  im.tracer = tracer;
  if (!tracer) return;
  im.tl.job_queued = tracer->label("cluster.job.queued");
  im.tl.job_running = tracer->label("cluster.job.running");
  im.tl.job_lingering = tracer->label("cluster.job.lingering");
  im.tl.job_done = tracer->label("cluster.job.done");
  im.tl.node_idle = tracer->label("cluster.node.idle");
  im.tl.node_busy = tracer->label("cluster.node.busy");
  im.tl.migration = tracer->label("cluster.migration");
  im.tl.mig_retry = tracer->label("cluster.migration.retry");
  im.tl.mig_abort = tracer->label("cluster.migration.abort");
  im.tl.requeue = tracer->label("cluster.requeue");
  im.tl.crash = tracer->label("fault.crash");
  im.tl.outage = tracer->label("fault.outage");
  im.tl.storm = tracer->label("fault.storm");
  im.tl.pressure = tracer->label("fault.pressure");
  im.tl.checkpoint = tracer->label("cluster.checkpoint");
}

des::SimObserver* ClusterSim::set_sim_observer(des::SimObserver* observer) {
  return impl_->sim.set_observer(observer);
}

const des::Simulation& ClusterSim::engine() const { return impl_->sim; }

std::vector<ClusterSim::NodeSnapshot> ClusterSim::node_snapshots() const {
  const Impl& im = *impl_;
  std::vector<NodeSnapshot> out;
  out.reserve(im.nodes.size());
  for (std::size_t i = 0; i < im.nodes.size(); ++i) {
    NodeSnapshot s;
    s.idle = im.node_idle[i] != 0;
    s.down = im.node_down[i] != 0;
    s.utilization = im.node_util[i];
    s.reserved = im.nodes[i].reserved;
    s.occupants = im.nodes[i].occupants;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ClusterSim::inflight_migrations() const {
  return impl_->inflight_migrations;
}

const fault::FaultSchedule& ClusterSim::fault_schedule() const {
  return impl_->faults;
}

double ClusterSim::foreground_delay_ratio() const {
  return impl_->fg_cpu > 0.0 ? impl_->fg_delay / impl_->fg_cpu : 0.0;
}

double ClusterSim::observed_idle_fraction() const {
  return impl_->total_node_time > 0.0
             ? impl_->idle_node_time / impl_->total_node_time
             : 0.0;
}

}  // namespace ll::cluster
