#include "parallel/parallel_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>

#include "des/simulation.hpp"
#include "parallel/reconfig.hpp"

namespace ll::parallel {
namespace {

// The contention sampler rejects utilizations indistinguishable from 1; a
// saturated owner window still leaves scheduler slack in practice.
constexpr double kMaxUtil = 0.99;

}  // namespace

std::string_view to_string(WidthPolicy policy) {
  switch (policy) {
    case WidthPolicy::Reconfigure:
      return "reconfigure";
    case WidthPolicy::FixedLinger:
      return "fixed-linger";
    case WidthPolicy::Hybrid:
      return "hybrid";
  }
  throw std::logic_error("to_string: unknown WidthPolicy");
}

double ParallelJobRecord::turnaround() const {
  if (!completion) throw std::logic_error("turnaround: job not complete");
  return *completion - submit_time;
}

double ParallelJobRecord::queue_wait() const {
  if (!start_time) throw std::logic_error("queue_wait: job never started");
  return *start_time - submit_time;
}

struct ParallelClusterSim::Impl {
  Impl(ParallelClusterSim& owner, ParallelClusterConfig config,
       const workload::BurstTable& burst_table)
      : self(owner),
        cfg(std::move(config)),
        table(&burst_table),
        sampler(burst_table, cfg.context_switch),
        sim(des::Simulation::Options{cfg.queue}) {}

  ParallelClusterSim& self;
  ParallelClusterConfig cfg;
  const workload::BurstTable* table;
  ContentionSampler sampler;
  des::Simulation sim;
  double period = 2.0;

  struct NodeState {
    const trace::CoarseTrace* trace = nullptr;
    const std::vector<bool>* flags = nullptr;
    std::size_t offset_windows = 0;
    int job = -1;  // assigned parallel job, -1 when free
    // Fault overlays (inert on fault-free runs). A down node keeps its job
    // assignment — the process restarts in place at recovery.
    bool down = false;
    double down_until = 0.0;
    double forced_busy_until = 0.0;  // reclamation storm
    double forced_util = 0.0;
  };
  std::vector<NodeState> nodes;
  // The pool's derivation under cfg.recruitment (its idle flags only).
  std::shared_ptr<const trace::PoolDerived> derived;

  struct JobRuntime {
    ParallelJobSpec spec;
    std::vector<std::size_t> assigned;
    double remaining = 0.0;
    rng::Stream stream{0};
    des::EventId phase_event = des::kNoEvent;  // pending barrier completion
    bool stalled = false;  // a member node is (or was) down mid-phase
  };
  // Deque: grows from completion callbacks while engine frames still hold
  // references to existing entries.
  std::deque<JobRuntime> rt;
  std::deque<std::uint32_t> queue;
  std::function<void(const ParallelJobRecord&)> on_complete;
  rng::Stream job_streams{0};  // master for per-job phase randomness

  // Observability (optional; nullptr = detached, zero work).
  obs::Counter* m_submitted = nullptr;
  obs::Counter* m_completed = nullptr;
  obs::Counter* m_phases = nullptr;
  obs::Gauge* g_delivered = nullptr;
  obs::TimeWeighted* tw_queue = nullptr;
  obs::TimeWeighted* tw_busy = nullptr;

  void note_metrics() {
    if (tw_queue) tw_queue->set(now(), static_cast<double>(queue.size()));
    if (tw_busy) {
      std::size_t busy = 0;
      for (const NodeState& n : nodes) {
        if (n.job >= 0) ++busy;
      }
      tw_busy->set(now(), static_cast<double>(busy));
    }
  }

  bool retry_scheduled = false;
  double run_horizon = 0.0;

  [[nodiscard]] double now() const { return sim.now(); }

  [[nodiscard]] std::size_t window_of(const NodeState& n) const {
    const std::size_t count = n.trace->samples().size();
    return (n.offset_windows +
            static_cast<std::size_t>(std::floor(now() / period + 1e-9))) %
           count;
  }

  [[nodiscard]] double util_of(const NodeState& n) const {
    double u = std::clamp(n.trace->samples()[window_of(n)].cpu, 0.0, kMaxUtil);
    if (n.forced_busy_until > now() + 1e-12) {
      u = std::clamp(std::max(u, n.forced_util), 0.0, kMaxUtil);
    }
    return u;
  }

  [[nodiscard]] bool idle_now(const NodeState& n) const {
    if (n.down || n.forced_busy_until > now() + 1e-12) return false;
    return (*n.flags)[window_of(n)];
  }

  /// Free nodes split and sorted: idle first (by utilization), then busy.
  [[nodiscard]] std::vector<std::size_t> ranked_free_nodes(
      std::size_t* idle_count) const {
    std::vector<std::size_t> idle;
    std::vector<std::size_t> busy;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].job >= 0 || nodes[i].down) continue;
      (idle_now(nodes[i]) ? idle : busy).push_back(i);
    }
    auto by_util = [this](std::size_t a, std::size_t b) {
      const double ua = util_of(nodes[a]);
      const double ub = util_of(nodes[b]);
      if (ua != ub) return ua < ub;
      return a < b;
    };
    std::sort(idle.begin(), idle.end(), by_util);
    std::sort(busy.begin(), busy.end(), by_util);
    if (idle_count) *idle_count = idle.size();
    std::vector<std::size_t> out = std::move(idle);
    out.insert(out.end(), busy.begin(), busy.end());
    return out;
  }

  [[nodiscard]] std::size_t width_cap(std::size_t available,
                                      std::size_t max_width) const {
    const std::size_t cap = std::min(available, max_width);
    if (cap == 0) return 0;
    return cfg.power_of_two ? floor_pow2(cap) : cap;
  }

  /// Cost-model predicted completion of `spec` on the first `w` of `ranked`.
  [[nodiscard]] double predict_completion(const ParallelJobSpec& spec,
                                          std::span<const std::size_t> chosen) const {
    const auto w = chosen.size();
    BspConfig bsp = spec.bsp;
    bsp.processes = w;
    double worst_stretch = 1.0;
    double worst_util = 0.0;
    for (std::size_t node : chosen) {
      const double u = util_of(nodes[node]);
      worst_util = std::max(worst_util, u);
      worst_stretch = std::max(
          worst_stretch, sampler.expected(spec.bsp.granularity, u) /
                             spec.bsp.granularity);
    }
    const double phase_compute = spec.bsp.granularity * worst_stretch;
    const double wire = bsp.per_message_overhead +
                        static_cast<double>(bsp.bytes_per_message) * 8.0 /
                            bsp.bandwidth_bps;
    const double comm =
        wire * static_cast<double>(bsp.messages_per_process) +
        expected_handler_delay(bsp, worst_util, *table);
    const double phases =
        spec.total_work / (static_cast<double>(w) * spec.bsp.granularity);
    return phases * (phase_compute + comm);
  }

  /// Chooses the node set for the queue-head job, or empty if it must wait.
  [[nodiscard]] std::vector<std::size_t> choose_assignment(
      const ParallelJobSpec& spec) const {
    std::size_t idle_count = 0;
    const std::vector<std::size_t> ranked = ranked_free_nodes(&idle_count);

    switch (cfg.policy) {
      case WidthPolicy::Reconfigure: {
        // Idle nodes only; wait when none exist.
        const std::size_t w = width_cap(idle_count, spec.max_width);
        if (w == 0) return {};
        return {ranked.begin(), ranked.begin() + static_cast<long>(w)};
      }
      case WidthPolicy::FixedLinger: {
        const std::size_t w = std::min(cfg.fixed_width, spec.max_width);
        if (ranked.size() < w || w == 0) return {};
        return {ranked.begin(), ranked.begin() + static_cast<long>(w)};
      }
      case WidthPolicy::Hybrid: {
        if (ranked.empty()) return {};
        double best_time = std::numeric_limits<double>::infinity();
        std::size_t best_w = 0;
        for (std::size_t w = cfg.power_of_two ? 1 : ranked.size();
             w <= std::min(ranked.size(), spec.max_width);
             w = cfg.power_of_two ? w * 2 : w + 1) {
          const std::span<const std::size_t> chosen(ranked.data(), w);
          const double t = predict_completion(spec, chosen);
          // Prefer wider on near-ties: it frees the queue sooner.
          if (t < best_time * 0.999) {
            best_time = t;
            best_w = w;
          } else if (t <= best_time * 1.001 && w > best_w) {
            best_w = w;
          }
        }
        return {ranked.begin(), ranked.begin() + static_cast<long>(best_w)};
      }
    }
    throw std::logic_error("choose_assignment: unknown policy");
  }

  void try_dispatch() {
    while (!queue.empty()) {
      const std::uint32_t id = queue.front();
      std::vector<std::size_t> assignment = choose_assignment(rt[id].spec);
      if (assignment.empty()) break;  // FIFO head-of-line
      queue.pop_front();
      start_job(id, std::move(assignment));
    }
    ensure_retry();
    // Dispatch is the only place queue length or node assignment changes
    // besides submit/complete, and both of those end here.
    note_metrics();
  }

  void start_job(std::uint32_t id, std::vector<std::size_t> assignment) {
    JobRuntime& r = rt[id];
    ParallelJobRecord& job = self.jobs_[id];
    r.assigned = std::move(assignment);
    std::size_t idle = 0;
    for (std::size_t node : r.assigned) {
      nodes[node].job = static_cast<int>(id);
      if (idle_now(nodes[node])) ++idle;
    }
    job.start_time = now();
    job.width = r.assigned.size();
    job.idle_at_dispatch = idle;
    schedule_phase(id);
  }

  void schedule_phase(std::uint32_t id) {
    JobRuntime& r = rt[id];
    const auto w = r.assigned.size();
    const double full = r.spec.bsp.granularity;
    const double work_per_phase = full * static_cast<double>(w);
    const double fraction = std::min(1.0, r.remaining / work_per_phase);
    const double g = full * fraction;

    BspConfig bsp = r.spec.bsp;
    bsp.processes = w;
    std::vector<double> utils;
    utils.reserve(w);
    for (std::size_t node : r.assigned) utils.push_back(util_of(nodes[node]));
    const double duration =
        sample_phase_duration(bsp, g, utils, sampler, *table, r.stream);

    const double work_done = work_per_phase * fraction;
    r.phase_event = sim.schedule_in(
        duration,
        [this, id, work_done] {
          JobRuntime& job_rt = rt[id];
          job_rt.phase_event = des::kNoEvent;
          job_rt.remaining -= work_done;
          self.delivered_work_ += work_done;
          if (m_phases) m_phases->add();
          if (g_delivered) g_delivered->set(self.delivered_work_);
          if (job_rt.remaining <= 1e-9) {
            complete(id);
          } else {
            schedule_phase(id);
          }
        },
        ParallelClusterSim::kTagPhase);
  }

  void complete(std::uint32_t id) {
    JobRuntime& r = rt[id];
    ParallelJobRecord& job = self.jobs_[id];
    for (std::size_t node : r.assigned) nodes[node].job = -1;
    r.assigned.clear();
    r.remaining = 0.0;
    job.completion = now();
    --self.active_jobs_;
    if (m_completed) m_completed->add();
    if (on_complete) on_complete(job);
    try_dispatch();
  }

  // ---- fault injection ----------------------------------------------------

  fault::FaultSchedule faults;

  void schedule_faults() {
    for (const fault::FaultEvent& ev : faults.events()) {
      const fault::FaultEvent* e = &ev;  // stable: events_ never mutates
      sim.schedule_at(ev.time, [this, e] { apply_fault(*e); },
                      ParallelClusterSim::kTagFault);
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
        break;  // no paging model here (see ParallelClusterConfig::faults)
    }
  }

  [[nodiscard]] bool all_members_up(const JobRuntime& r) const {
    for (std::size_t node : r.assigned) {
      if (nodes[node].down) return false;
    }
    return true;
  }

  void crash_node(std::size_t idx, double downtime) {
    NodeState& n = nodes[idx];
    ++self.crashes_;
    const double until = now() + downtime;
    if (n.down) {
      if (until > n.down_until) {
        n.down_until = until;
        sim.schedule_at(until, [this, idx] { recover_node(idx); },
                        ParallelClusterSim::kTagFault);
      }
      return;
    }
    n.down = true;
    n.down_until = until;
    // The hosted process dies mid-phase: the barrier can never complete, so
    // the whole phase aborts and every member of the job stalls until the
    // node is back (work is only credited at phase completion, so the
    // aborted phase is lost in full — barrier-granularity checkpointing).
    if (n.job >= 0) {
      const auto id = static_cast<std::uint32_t>(n.job);
      JobRuntime& r = rt[id];
      if (r.phase_event != des::kNoEvent) {
        sim.cancel(r.phase_event);
        r.phase_event = des::kNoEvent;
        ++self.jobs_[id].restarts;
        ++self.restarts_;
      }
      r.stalled = true;
    }
    sim.schedule_at(n.down_until, [this, idx] { recover_node(idx); },
                    ParallelClusterSim::kTagFault);
  }

  void recover_node(std::size_t idx) {
    NodeState& n = nodes[idx];
    if (!n.down) return;
    if (now() + 1e-9 < n.down_until) return;  // superseded by a longer outage
    n.down = false;
    if (n.job >= 0) {
      const auto id = static_cast<std::uint32_t>(n.job);
      JobRuntime& r = rt[id];
      if (r.stalled && all_members_up(r)) {
        // Last member back: restart the aborted phase after the process
        // reload delay. The callback re-checks — another member may crash
        // during the delay.
        sim.schedule_in(
            cfg.crash_restart_delay,
            [this, id] {
              JobRuntime& job_rt = rt[id];
              if (!job_rt.stalled || !all_members_up(job_rt)) return;
              job_rt.stalled = false;
              schedule_phase(id);
            },
            ParallelClusterSim::kTagFault);
      }
    }
    try_dispatch();  // a recovered free node may unblock the queue head
  }

  void start_storm(const fault::FaultEvent& ev) {
    for (std::size_t idx : ev.nodes) {
      NodeState& n = nodes[idx];
      if (n.down) continue;
      n.forced_busy_until = std::max(n.forced_busy_until, now() + ev.duration);
      n.forced_util = std::max(n.forced_util, cfg.faults.storm.utilization);
    }
    // Running phases sampled their stretch at phase start; the storm slows
    // the phases that *start* inside it, same as any owner return.
  }

  /// While jobs wait, re-attempt dispatch every trace window — the set of
  /// idle nodes changes as owners come and go.
  void ensure_retry() {
    if (retry_scheduled || queue.empty()) return;
    retry_scheduled = true;
    const double next = (std::floor(now() / period + 1e-9) + 1.0) * period;
    sim.schedule_at(
        next,
        [this] {
          retry_scheduled = false;
          try_dispatch();
        },
        ParallelClusterSim::kTagRetry);
  }
};

ParallelClusterSim::ParallelClusterSim(ParallelClusterConfig config,
                                       const trace::TracePool& pool,
                                       const workload::BurstTable& table,
                                       rng::Stream stream)
    : impl_(std::make_unique<Impl>(*this, std::move(config), table)) {
  Impl& im = *impl_;
  if (im.cfg.node_count == 0) {
    throw std::invalid_argument("ParallelClusterSim: node_count must be > 0");
  }
  if (im.cfg.policy == WidthPolicy::FixedLinger &&
      (im.cfg.fixed_width == 0 || im.cfg.fixed_width > im.cfg.node_count)) {
    throw std::invalid_argument(
        "ParallelClusterSim: fixed_width outside [1, node_count]");
  }
  im.derived = pool.derived(im.cfg.recruitment);
  im.period = im.derived->period;

  if (!(im.cfg.crash_restart_delay >= 0.0)) {
    throw std::invalid_argument(
        "ParallelClusterSim: crash_restart_delay must be >= 0");
  }
  im.cfg.faults.validate();

  im.job_streams = stream.fork("jobs");
  rng::Stream setup = stream.fork("node-setup");
  im.nodes.resize(im.cfg.node_count);
  for (std::size_t i = 0; i < im.cfg.node_count; ++i) {
    auto& n = im.nodes[i];
    const auto pick = im.cfg.randomize_placement
                          ? setup.uniform_index(pool.size())
                          : i % pool.size();
    n.trace = &pool[pick];
    n.flags = &im.derived->idle_flags[pick];
    n.offset_windows = im.cfg.randomize_placement
                           ? setup.uniform_index(n.trace->samples().size())
                           : 0;
  }

  // Empty spec: no schedule compiled, no stream forked, no events — the
  // fault layer is invisible to fault-free runs (golden-pinned).
  if (!im.cfg.faults.empty()) {
    im.faults = fault::FaultSchedule::compile(im.cfg.faults, im.cfg.node_count,
                                              stream.fork("faults"));
    im.schedule_faults();
  }
}

ParallelClusterSim::~ParallelClusterSim() = default;

std::uint32_t ParallelClusterSim::submit(ParallelJobSpec spec) {
  Impl& im = *impl_;
  if (!(spec.total_work > 0.0)) {
    throw std::invalid_argument("submit: total_work must be > 0");
  }
  if (spec.max_width == 0) {
    throw std::invalid_argument("submit: max_width must be > 0");
  }
  if (!(spec.bsp.granularity > 0.0)) {
    throw std::invalid_argument("submit: granularity must be > 0");
  }
  spec.max_width = std::min(spec.max_width, im.cfg.node_count);

  const auto id = static_cast<std::uint32_t>(jobs_.size());
  ParallelJobRecord record;
  record.id = id;
  record.total_work = spec.total_work;
  record.submit_time = im.now();
  jobs_.push_back(record);

  Impl::JobRuntime runtime;
  runtime.remaining = spec.total_work;
  runtime.spec = std::move(spec);
  runtime.stream = im.job_streams.fork("job", id);
  im.rt.push_back(std::move(runtime));
  ++active_jobs_;
  if (im.m_submitted) im.m_submitted->add();
  im.queue.push_back(id);
  im.try_dispatch();
  return id;
}

void ParallelClusterSim::set_metrics(obs::MetricRegistry* registry) {
  Impl& im = *impl_;
  if (!registry) {
    im.m_submitted = im.m_completed = im.m_phases = nullptr;
    im.g_delivered = nullptr;
    im.tw_queue = im.tw_busy = nullptr;
    return;
  }
  im.m_submitted = &registry->counter("parallel.jobs_submitted");
  im.m_completed = &registry->counter("parallel.jobs_completed");
  im.m_phases = &registry->counter("parallel.phases_completed");
  im.g_delivered = &registry->gauge("parallel.delivered_work_seconds");
  im.tw_queue = &registry->time_weighted("parallel.queue_length");
  im.tw_busy = &registry->time_weighted("parallel.busy_nodes");
  im.note_metrics();
}

des::SimObserver* ParallelClusterSim::set_sim_observer(
    des::SimObserver* observer) {
  return impl_->sim.set_observer(observer);
}

const des::Simulation& ParallelClusterSim::engine() const {
  return impl_->sim;
}

void ParallelClusterSim::set_completion_callback(
    std::function<void(const ParallelJobRecord&)> cb) {
  impl_->on_complete = std::move(cb);
}

void ParallelClusterSim::run_until_all_complete(double max_horizon) {
  Impl& im = *impl_;
  while (active_jobs_ > 0) {
    if (!im.sim.step()) {
      throw std::logic_error(
          "ParallelClusterSim: event queue drained with jobs incomplete");
    }
    if (im.now() > max_horizon) {
      throw std::runtime_error("ParallelClusterSim: exceeded max horizon");
    }
  }
}

void ParallelClusterSim::run_for(double duration) {
  Impl& im = *impl_;
  if (!(duration >= 0.0)) {
    throw std::invalid_argument("run_for: negative duration");
  }
  im.run_horizon = im.now() + duration;
  im.sim.run_until(im.run_horizon);
}

double ParallelClusterSim::now() const { return impl_->now(); }

}  // namespace ll::parallel
