#include "verify/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "node/fine_node_sim.hpp"
#include "shard/sharded_sim.hpp"
#include "parallel/bsp.hpp"
#include "trace/coarse_generator.hpp"
#include "trace/trace_pool.hpp"
#include "workload/burst_table.hpp"
#include "workload/fine_generator.hpp"

namespace ll::verify {
namespace {

/// Harness state shared by every scenario body: a registry in the requested
/// mode and a digest, folded into one ScenarioResult at the end.
struct Harness {
  explicit Harness(const ScenarioOptions& options)
      : registry(options.mode) {}

  InvariantRegistry registry;
  Digest digest;

  ScenarioResult finish(std::uint64_t events = 0) {
    ScenarioResult res;
    res.digest = digest;
    res.events = events;
    res.checks = registry.checks();
    res.violations = registry.violations();
    return res;
  }
};

void fold_fine_result(Digest& d, const node::FineNodeResult& r) {
  d.add_double(r.local_cpu);
  d.add_double(r.local_delay);
  d.add_double(r.idle_cpu);
  d.add_double(r.foreign_cpu);
  d.add_u64(r.preemptions);
  d.add_double(r.wall);
}

void check_fine_result(const node::FineNodeConfig& cfg,
                       const node::FineNodeResult& r,
                       InvariantRegistry& reg) {
  reg.check(r.foreign_cpu <= r.idle_cpu + 1e-9, "node.steals-only-idle-cycles",
            "foreign CPU exceeds the idle cycles offered");
  reg.check(r.local_delay >= 0.0 && r.foreign_cpu >= 0.0,
            "node.nonnegative-accounting", "negative delay or foreign CPU");
  reg.check(r.wall >= cfg.duration - 1e-9, "node.covers-duration",
            "simulation ended before the configured duration");
}

/// State digest of a cluster run on either engine: per-job lifecycle (id,
/// submit, remaining, transition history) plus the canonical-order global
/// reductions. Fault scenarios additionally pin the rollback accounting;
/// fault-free scenarios fold nothing extra, keeping their digests
/// byte-identical to the pre-fault suite.
template <class Sim>
void fold_cluster(Digest& d, const Sim& sim) {
  for (const cluster::JobRecord& job : sim.jobs()) {
    d.add_u64(job.id);
    d.add_double(job.submit_time);
    d.add_double(job.remaining);
    for (const auto& tr : job.history) {
      d.add_double(tr.time);
      d.add_u64(static_cast<std::uint64_t>(tr.to));
    }
  }
  d.add_double(sim.delivered_cpu());
  d.add_u64(sim.migrations_started());
  if (!sim.config().faults.empty() || sim.config().checkpoint.enabled()) {
    d.add_double(sim.work_lost());
    d.add_u64(sim.restarts());
    d.add_u64(sim.crashes());
    d.add_u64(sim.checkpoints_taken());
  }
}

/// Occupancy legality and the per-job record checks on either engine. The
/// monolithic engine's event conservation is its SimInvariantObserver's
/// job; each shard's private engine is checked here.
template <class Sim>
void check_cluster(const Sim& sim, InvariantRegistry& reg) {
  check_cluster_occupancy(sim, reg);
  if constexpr (std::is_same_v<Sim, shard::ShardedClusterSim>) {
    for (std::size_t k = 0; k < sim.shard_count(); ++k) {
      const des::Simulation& engine = sim.engine(k);
      reg.check(engine.events_scheduled() ==
                    engine.events_fired() + engine.events_cancelled() +
                        engine.pending_count(),
                "shard.engine-conservation",
                "scheduled != fired + cancelled + pending");
    }
  }
  for (const cluster::JobRecord& job : sim.jobs()) {
    check_job_record(job, reg);
  }
}

trace::TracePool small_pool(rng::Stream stream, std::size_t machines,
                            double hours) {
  trace::CoarseGenConfig gen;
  gen.duration = hours * 3600.0;
  gen.start_hour = 9.0;  // working hours: mixed idle/busy structure
  return trace::TracePool(
      trace::generate_machine_pool(gen, machines, std::move(stream)));
}

// ---- des ------------------------------------------------------------------

/// A self-exciting event storm: events spawn children, cancel random
/// victims, and pile up in equal-time clusters — exercising ordering,
/// cancellation and FIFO tie-breaking under observer digests.
ScenarioResult des_storm(const ScenarioOptions& options) {
  Harness h(options);
  des::Simulation sim(des::Simulation::Options{options.queue});
  DigestObserver digest;
  SimInvariantObserver inv(sim, h.registry, &digest);
  sim.set_observer(options.wrap_observer ? options.wrap_observer(&inv) : &inv);

  rng::Stream stream = scenario_stream(options, "des-storm");
  std::vector<des::EventId> live;

  std::function<void(int)> body = [&](int depth) {
    // Spawn up to two children with decreasing probability; cancel a random
    // live event a third of the time.
    if (depth < 6) {
      const std::uint64_t spawns = stream.uniform_index(3);
      for (std::uint64_t s = 0; s < spawns; ++s) {
        const double delta = stream.uniform(0.0, 5.0);
        const std::uint64_t tag = 10 + stream.uniform_index(4);
        live.push_back(sim.schedule_in(
            delta, [&body, depth] { body(depth + 1); }, tag));
      }
    }
    if (!live.empty() && stream.uniform01() < 0.33) {
      sim.cancel(live[stream.uniform_index(live.size())]);
    }
  };

  for (int i = 0; i < 96; ++i) {
    const double t = stream.uniform(0.0, 50.0);
    live.push_back(sim.schedule_at(t, [&body] { body(0); }, 1));
  }
  // Equal-time cluster: 32 events at exactly t = 25, FIFO among themselves.
  for (int i = 0; i < 32; ++i) {
    live.push_back(sim.schedule_at(25.0, [&body] { body(5); }, 2));
  }
  sim.run();
  inv.finalize();
  sim.set_observer(nullptr);

  h.digest = digest.digest();
  h.digest.add_u64(sim.events_fired());
  h.digest.add_u64(sim.events_cancelled());
  return h.finish(digest.events());
}

/// Cancellation churn with staged run_until horizons landing exactly on
/// event times — the paths the -ffast-math audit hardened.
ScenarioResult des_cancel_churn(const ScenarioOptions& options) {
  Harness h(options);
  des::Simulation sim(des::Simulation::Options{options.queue});
  DigestObserver digest;
  SimInvariantObserver inv(sim, h.registry, &digest);
  sim.set_observer(options.wrap_observer ? options.wrap_observer(&inv) : &inv);

  rng::Stream stream = scenario_stream(options, "des-cancel-churn");
  std::vector<des::EventId> ids;
  ids.reserve(512);
  for (int i = 0; i < 512; ++i) {
    const double t = std::floor(stream.uniform(0.0, 64.0) * 4.0) / 4.0;
    ids.push_back(sim.schedule_at(t, [] {}, 3));
  }
  // Cancel a pseudo-random half before running.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (stream.uniform01() < 0.5) sim.cancel(ids[i]);
  }
  // Drain in stages whose horizons coincide with quantized event times.
  for (double horizon = 8.0; horizon <= 64.0; horizon += 8.0) {
    sim.run_until(horizon);
    h.digest.add_double(sim.now());
    h.digest.add_u64(sim.pending_count());
  }
  sim.run();
  inv.finalize();
  sim.set_observer(nullptr);

  const Digest events = digest.digest();
  h.digest.add_u64(events.value());
  return h.finish(digest.events());
}

// ---- node -----------------------------------------------------------------

ScenarioResult node_fine(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "node-fine");
  const auto& table = workload::default_burst_table();
  std::size_t i = 0;
  for (double u : {0.1, 0.4, 0.7}) {
    node::FineNodeConfig cfg;
    cfg.utilization = u;
    cfg.duration = 300.0;
    const auto r = node::simulate_fine_node(cfg, table, stream.fork("u", i++));
    check_fine_result(cfg, r, h.registry);
    fold_fine_result(h.digest, r);
  }
  return h.finish();
}

ScenarioResult node_trace(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "node-trace");
  trace::CoarseGenConfig gen;
  gen.duration = 1800.0;
  gen.start_hour = 10.0;
  const trace::CoarseTrace coarse =
      trace::generate_coarse_trace(gen, stream.fork("coarse"));
  const auto r = node::simulate_fine_node_trace(
      coarse, workload::default_burst_table(), 100e-6, 900.0,
      stream.fork("fine"));
  node::FineNodeConfig cfg;
  cfg.duration = 900.0;
  check_fine_result(cfg, r, h.registry);
  fold_fine_result(h.digest, r);
  return h.finish();
}

// ---- cluster --------------------------------------------------------------

/// One cluster scenario on the engine ScenarioOptions::shards picks. Both
/// engines share the pool, config, workload and stream derivation. The
/// monolithic digest starts from the fired-event stream; the sharded one
/// folds no engine-level (time, id) events, because each shard runs a
/// private tick chain, so raw event streams vary with K while the state
/// evolution does not. Its digest is pinned in <name>.shards.golden and
/// must be byte-identical for every shard count and queue backend.
ScenarioResult cluster_run(
    const ScenarioOptions& options, std::string_view name,
    core::PolicyKind policy, std::size_t nodes, std::size_t jobs,
    double demand, bool closed,
    const std::function<void(cluster::ClusterConfig&)>& configure = {}) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, name);
  const auto pool = small_pool(stream.fork("pool"), nodes, 2.0);

  cluster::ClusterConfig cfg;
  cfg.node_count = nodes;
  cfg.policy = policy;
  cfg.job_bytes = 1ull << 20;
  cfg.queue = options.queue;
  if (configure) configure(cfg);
  const auto run_jobs = [&](auto& sim) {
    if (closed) {
      sim.set_completion_callback(
          [&sim, demand](const cluster::JobRecord&) { sim.submit(demand); });
      for (std::size_t j = 0; j < jobs; ++j) sim.submit(demand);
      sim.run_for(1800.0);
    } else {
      for (std::size_t j = 0; j < jobs; ++j) sim.submit(demand);
      sim.run_until_all_complete(1e6);
    }
  };

  if (options.shards > 0) {
    shard::ShardedClusterSim sim(cfg, options.shards, pool,
                                 workload::default_burst_table(),
                                 stream.fork("sim"));
    run_jobs(sim);
    check_cluster(sim, h.registry);
    fold_cluster(h.digest, sim);
    return h.finish(sim.logical_events());
  }

  cluster::ClusterSim sim(cfg, pool, workload::default_burst_table(),
                          stream.fork("sim"));
  if (options.cluster_hook) options.cluster_hook(sim);
  DigestObserver digest;
  SimInvariantObserver inv(sim.engine(), h.registry, &digest);
  sim.set_sim_observer(options.wrap_observer ? options.wrap_observer(&inv)
                                             : &inv);
  run_jobs(sim);
  inv.finalize();
  sim.set_sim_observer(nullptr);

  check_cluster(sim, h.registry);
  h.digest = digest.digest();
  fold_cluster(h.digest, sim);
  return h.finish(digest.events());
}

// ---- parallel -------------------------------------------------------------

ScenarioResult parallel_bsp(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "parallel-bsp");
  parallel::BspConfig cfg;
  cfg.processes = 8;
  cfg.phases = 40;
  cfg.granularity = 0.05;
  std::vector<double> utils(cfg.processes);
  for (double& u : utils) u = stream.uniform(0.0, 0.6);
  const auto r = parallel::simulate_bsp(cfg, utils,
                                        workload::default_burst_table(),
                                        stream.fork("bsp"));
  check_bsp_result(cfg, r, h.registry);
  h.digest.add_double(r.time);
  h.digest.add_double(r.ideal);
  h.digest.add_u64(r.phases);
  return h.finish();
}

ScenarioResult parallel_bsp_work(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "parallel-bsp-work");
  parallel::BspConfig cfg;
  cfg.processes = 6;
  cfg.granularity = 0.1;
  cfg.closing_barrier = false;
  std::vector<double> utils(cfg.processes);
  for (double& u : utils) u = stream.uniform(0.0, 0.5);
  const auto r = parallel::simulate_bsp_work(cfg, 6.0, utils,
                                             workload::default_burst_table(),
                                             stream.fork("bsp"));
  check_bsp_result(cfg, r, h.registry);
  h.digest.add_double(r.time);
  h.digest.add_double(r.ideal);
  h.digest.add_u64(r.phases);
  return h.finish();
}

// ---- trace / workload / rng ----------------------------------------------

ScenarioResult trace_pool(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "trace-pool");
  trace::CoarseGenConfig gen;
  gen.duration = 3600.0;
  gen.start_hour = 9.0;
  const auto pool = trace::generate_machine_pool(gen, 4, stream.fork("pool"));
  for (const auto& t : pool) {
    h.digest.add_double(t.period());
    for (const auto& s : t.samples()) {
      h.digest.add_double(s.cpu);
      h.digest.add_u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(s.mem_free_kb)));
      h.digest.add_byte(s.keyboard ? 1 : 0);
      h.registry.check(s.cpu >= 0.0 && s.cpu <= 1.0, "trace.cpu-in-range",
                       "sample CPU outside [0,1]");
      h.registry.check(s.mem_free_kb >= 0 &&
                           s.mem_free_kb <= gen.mem_total_kb,
                       "trace.mem-in-range", "free memory outside [0,total]");
    }
  }
  return h.finish();
}

ScenarioResult workload_bursts(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream stream = scenario_stream(options, "workload-bursts");
  const auto fine = workload::generate_fine_trace(
      workload::default_burst_table(), 0.3, 2000.0, stream.fork("trace"));
  for (const auto& b : fine.bursts()) {
    h.digest.add_u64(static_cast<std::uint64_t>(b.kind));
    h.digest.add_double(b.duration);
  }
  h.registry.check(!fine.empty(), "workload.nonempty", "no bursts generated");
  // Wide statistical guard: a 2000 s trace at target 0.3 never drifts this
  // far unless the generator itself broke.
  h.registry.check_lazy(
      fine.utilization() > 0.1 && fine.utilization() < 0.6,
      "workload.utilization-near-target", [&] {
        return "measured utilization " + std::to_string(fine.utilization()) +
               " for target 0.3";
      });
  return h.finish();
}

ScenarioResult rng_streams(const ScenarioOptions& options) {
  Harness h(options);
  rng::Stream master(options.seed);

  // Fork-order independence: the same child reached through different fork
  // orders yields the identical sequence.
  rng::Stream a_first = master.fork("a");
  rng::Stream b_then_a = master.fork("b");
  rng::Stream a_second = master.fork("a");
  bool identical = true;
  for (int i = 0; i < 64; ++i) {
    if (a_first.engine()() != a_second.engine()()) identical = false;
  }
  h.registry.check(identical, "rng.fork-order-independence",
                   "fork(\"a\") sequence depends on sibling fork order");

  // Fork purity: forking consumes no parent entropy.
  rng::Stream parent1(options.seed ^ 0x9E3779B97F4A7C15ULL);
  rng::Stream parent2(options.seed ^ 0x9E3779B97F4A7C15ULL);
  (void)parent1.fork("child", 7);
  bool pure = true;
  for (int i = 0; i < 64; ++i) {
    if (parent1.engine()() != parent2.engine()()) pure = false;
  }
  h.registry.check(pure, "rng.fork-is-pure",
                   "forking consumed parent entropy");

  // Digest the canonical sequences so the generator algorithm itself is
  // golden-pinned (a silent xoshiro/SplitMix change fails the suite).
  for (int i = 0; i < 32; ++i) h.digest.add_u64(b_then_a.engine()());
  rng::Stream indexed = master.fork("sub", 3);
  for (int i = 0; i < 32; ++i) h.digest.add_u64(indexed.engine()());
  return h.finish();
}

}  // namespace

rng::Stream scenario_stream(const ScenarioOptions& options,
                            std::string_view name) {
  rng::Stream master(options.seed);
  if (options.reordered_streams) {
    // Forking is a pure function of (seed, label, index): interleaving decoy
    // forks must not change what the scenario's own streams produce.
    (void)master.fork("decoy-before");
    rng::Stream root = master.fork(name);
    (void)root.fork("decoy-inside");
    (void)master.fork("decoy-after");
    return root;
  }
  return master.fork(name);
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = [] {
    std::vector<Scenario> v;
    v.push_back({"des-storm", "des",
                 "self-exciting event storm with spawning and cancellation",
                 des_storm});
    v.push_back({"des-cancel-churn", "des",
                 "cancellation churn with horizons on exact event times",
                 des_cancel_churn});
    v.push_back({"node-fine", "node",
                 "fine-grain node simulation at three utilization levels",
                 node_fine});
    v.push_back({"node-trace", "node",
                 "trace-driven fine node run over a generated coarse trace",
                 node_trace});
    v.push_back({"cluster-open-ll", "cluster",
                 "open-mode Linger-Longer run on a generated pool",
                 [](const ScenarioOptions& o) {
                   return cluster_run(o, "cluster-open-ll",
                                      core::PolicyKind::LingerLonger, 6, 10,
                                      50.0, /*closed=*/false);
                 }});
    v.push_back({"cluster-evict-ie", "cluster",
                 "immediate-eviction run forcing migrations",
                 [](const ScenarioOptions& o) {
                   return cluster_run(o, "cluster-evict-ie",
                                      core::PolicyKind::ImmediateEviction, 4,
                                      8, 40.0, /*closed=*/false);
                 }});
    v.push_back({"cluster-closed-pm", "cluster",
                 "closed-system pause-and-migrate run with resubmission",
                 [](const ScenarioOptions& o) {
                   return cluster_run(o, "cluster-closed-pm",
                                      core::PolicyKind::PauseAndMigrate, 4, 5,
                                      30.0, /*closed=*/true);
                 }});
    v.push_back({"fault-crash-migration", "fault",
                 "crashes + link drops during eviction migrations, with "
                 "checkpointing",
                 [](const ScenarioOptions& o) {
                   return cluster_run(
                       o, "fault-crash-migration",
                       core::PolicyKind::ImmediateEviction, 4, 8, 40.0,
                       /*closed=*/false, [](cluster::ClusterConfig& cfg) {
                         cfg.faults.crash.arrivals =
                             fault::ArrivalProcess::exponential(1.0 / 400.0);
                         cfg.faults.crash.mean_downtime = 60.0;
                         cfg.faults.link.drop_probability = 0.3;
                         cfg.faults.link.max_retries = 2;
                         cfg.faults.link.retry_backoff = 5.0;
                         cfg.checkpoint.interval = 120.0;
                       });
                 }});
    v.push_back({"fault-storm-pm", "fault",
                 "reclamation storms + memory pressure under pause-and-"
                 "migrate, closed system",
                 [](const ScenarioOptions& o) {
                   return cluster_run(
                       o, "fault-storm-pm", core::PolicyKind::PauseAndMigrate,
                       4, 5, 30.0,
                       /*closed=*/true, [](cluster::ClusterConfig& cfg) {
                         cfg.faults.storm.arrivals =
                             fault::ArrivalProcess::fixed(
                                 {300.0, 900.0, 1500.0});
                         cfg.faults.storm.node_fraction = 0.5;
                         cfg.faults.storm.duration = 200.0;
                         cfg.faults.storm.utilization = 0.95;
                         cfg.faults.pressure.arrivals =
                             fault::ArrivalProcess::fixed({600.0});
                         cfg.faults.pressure.duration = 400.0;
                         cfg.faults.pressure.extra_kb = 16384;
                         cfg.checkpoint.interval = 300.0;
                       });
                 }});
    v.push_back({"parallel-bsp", "parallel",
                 "barrier-synchronized BSP job under owner contention",
                 parallel_bsp});
    v.push_back({"parallel-bsp-work", "parallel",
                 "fixed-work BSP run without a closing barrier",
                 parallel_bsp_work});
    v.push_back({"trace-pool", "trace",
                 "synthetic coarse trace pool, every sample digested",
                 trace_pool});
    v.push_back({"workload-bursts", "workload",
                 "fine-grain burst trace generation at fixed utilization",
                 workload_bursts});
    v.push_back({"rng-streams", "rng",
                 "stream forking purity, order independence, pinned draws",
                 rng_streams});
    return v;
  }();
  return kScenarios;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool scenario_sharded(const Scenario& scenario) {
  return scenario.module == "cluster" || scenario.module == "fault";
}

}  // namespace ll::verify
