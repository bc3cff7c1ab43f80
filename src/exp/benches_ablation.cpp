/// \file benches_ablation.cpp
/// Registered ablations of DESIGN.md §5's design decisions: abl_pause_time,
/// abl_predictor, abl_ctx_switch, abl_migration_cost, abl_memory_priority,
/// abl_owner_restore and abl_multi_occupancy run on the engine;
/// abl_burst_model prints its own single-node and BSP tables.

#include <algorithm>
#include <array>
#include <memory>

#include "cluster/experiment.hpp"
#include "core/cost_model.hpp"
#include "exp/bench_util.hpp"
#include "exp/benches.hpp"
#include "exp/drivers.hpp"
#include "exp/registry.hpp"
#include "node/fine_node_sim.hpp"
#include "parallel/bsp.hpp"
#include "trace/coarse_generator.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

int run_abl_pause_time(const std::vector<std::string>& args,
                       std::ostream& out) {
  util::Flags flags("llsim bench abl_pause_time",
                    "Pause-and-Migrate grace-period sweep.");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_pause_time", args);

  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  ExperimentSpec spec;
  spec.name = "abl_pause_time: PM pause time";
  spec.axes = {"pause_s"};
  apply_standard_flags(spec, std_flags);
  cluster::ExperimentConfig base;
  base.cluster.node_count = static_cast<std::size_t>(*nodes);
  base.workload = cluster::WorkloadSpec{64, 600.0};
  for (double pause : {10.0, 30.0, 60.0, 120.0, 300.0, 900.0}) {
    cluster::ExperimentConfig cfg = base;
    cfg.cluster.policy = core::PolicyKind::PauseAndMigrate;
    cfg.cluster.policy_params.pause_time = pause;
    spec.add_cell({{"pause_s", util::fixed(pause, 0)}},
                  [cfg, pool, &table](std::uint64_t seed) mutable {
                    cfg.seed = seed;
                    return cluster_cell(cfg, pool, table);
                  });
  }
  // Reference row: Linger-Longer on the same configuration.
  {
    cluster::ExperimentConfig cfg = base;
    cfg.cluster.policy = core::PolicyKind::LingerLonger;
    spec.add_cell({{"pause_s", "LL reference"}},
                  [cfg, pool, &table](std::uint64_t seed) mutable {
                    cfg.seed = seed;
                    return cluster_cell(cfg, pool, table);
                  });
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Repo default is 60 s (the recruitment threshold); short pauses "
             "migrate\nneedlessly, long pauses strand suspended jobs.");
  return 0;
}

int run_abl_predictor(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench abl_predictor",
                    "Linger-duration scale sweep around the 2T rule.");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_predictor", args);

  const workload::BurstTable& table = workload::default_burst_table();

  struct PoolSpec {
    const char* name;
    double hours;  // < 24 starts at 09:00 (working hours; busier nodes)
  };

  ExperimentSpec spec;
  spec.name = "abl_predictor: episode predictor (linger-duration scale)";
  spec.axes = {"pool", "predictor"};
  apply_standard_flags(spec, std_flags);
  for (const PoolSpec& pspec :
       {PoolSpec{"full-day pool (light owner load)", 24.0},
        PoolSpec{"working-hours pool (heavy owner load)", 8.0}}) {
    const auto pool = TracePoolCache::shared().standard(
        static_cast<std::size_t>(*machines), pspec.hours, *std_flags.seed + 1);
    // scale < 0 encodes the oracle baseline row.
    for (double scale : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, -1.0}) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
      cfg.cluster.policy = scale < 0.0 ? core::PolicyKind::OracleLinger
                                       : core::PolicyKind::LingerLonger;
      cfg.cluster.policy_params.linger_scale = std::max(scale, 0.0);
      // Sub-saturated on purpose: idle target nodes must exist for the
      // migrate-or-linger decision to bind.
      cfg.workload = cluster::WorkloadSpec{
          static_cast<std::size_t>(*nodes) * 3 / 4, 600.0};
      const std::string label =
          scale < 0.0 ? "oracle" : "2T x " + util::fixed(scale, 2);
      spec.add_cell({{"pool", pspec.name}, {"predictor", label}},
                    [cfg, pool, &table](std::uint64_t seed) mutable {
                      cfg.seed = seed;
                      return cluster_cell(cfg, pool, table);
                    });
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "scale 0 = eager migration, 1 = the paper's 2T rule, large = "
             "Linger-Forever.");
  if (!*std_flags.json) {
    out << "\nReading: on realistic traces non-idle nodes are mostly lightly "
           "loaded,\nso migrating rarely pays and every scale performs alike "
           "— the same reason\nLF nearly matches LL in the paper's Figure "
           "7.\n";
  }
  return 0;
}

int run_abl_ctx_switch(const std::vector<std::string>& args,
                       std::ostream& out) {
  util::Flags flags("llsim bench abl_ctx_switch",
                    "Effective context-switch cost sweep.");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  auto util_flag = flags.add_double("util", 0.3, "single-node test load");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_ctx_switch", args);

  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();
  const double load = *util_flag;

  ExperimentSpec spec;
  spec.name = "abl_ctx_switch: effective context-switch cost";
  spec.axes = {"ctx_us"};
  apply_standard_flags(spec, std_flags);
  for (double cs : {25e-6, 50e-6, 100e-6, 200e-6, 300e-6, 500e-6, 1000e-6}) {
    spec.add_cell(
        {{"ctx_us", util::fixed(cs * 1e6, 0)}},
        [cs, load, pool, nodes = static_cast<std::size_t>(*nodes),
         &table](std::uint64_t seed) {
          rng::Stream stream(seed);
          node::FineNodeConfig fine;
          fine.utilization = load;
          fine.context_switch = cs;
          fine.duration = 3000.0;
          const auto single =
              node::simulate_fine_node(fine, table, stream.fork("fine"));

          cluster::ExperimentConfig cfg;
          cfg.cluster.node_count = nodes;
          cfg.cluster.policy = core::PolicyKind::LingerLonger;
          cfg.cluster.context_switch = cs;
          cfg.workload = cluster::WorkloadSpec{64, 600.0};
          cfg.seed = stream.fork("cluster").seed();
          const auto closed = cluster::run_closed(cfg, *pool, table, 3600.0);

          RunResult r;
          r.set("ldr", single.ldr());
          r.set("fcsr", single.fcsr());
          r.set("throughput", closed.throughput);
          r.set("fg_delay", closed.foreground_delay);
          return r;
        });
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper's operating point is 100 us; delays stay <5% to 300 us, "
             "reach ~8% at 500 us.");
  return 0;
}

int run_abl_migration_cost(const std::vector<std::string>& args,
                           std::ostream& out) {
  util::Flags flags("llsim bench abl_migration_cost",
                    "Migration bandwidth and image-size sweep.");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_migration_cost", args);

  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  ExperimentSpec spec;
  spec.name = "abl_migration_cost: migration cost (bandwidth x image size)";
  spec.axes = {"bw_mbps", "image_mb"};
  apply_standard_flags(spec, std_flags);
  for (double mbps : {1.5, 3.0, 10.0}) {
    for (double mb : {4.0, 8.0, 16.0}) {
      spec.add_cell(
          {{"bw_mbps", util::fixed(mbps, 1)}, {"image_mb", util::fixed(mb, 0)}},
          [mbps, mb, pool, nodes = static_cast<std::size_t>(*nodes),
           &table](std::uint64_t seed) {
            auto run_policy = [&](core::PolicyKind policy,
                                  std::size_t& migrations) {
              cluster::ExperimentConfig cfg;
              cfg.cluster.node_count = nodes;
              cfg.cluster.policy = policy;
              cfg.cluster.migration.bandwidth_bps = mbps * 1e6;
              cfg.cluster.job_bytes =
                  static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
              cfg.cluster.job_mem_kb = static_cast<std::uint32_t>(mb * 1024.0);
              cfg.workload = cluster::WorkloadSpec{64, 600.0};
              cfg.seed = seed;
              const auto report =
                  cluster::run_closed(cfg, *pool, table, 3600.0);
              migrations = report.migrations;
              return report.throughput;
            };
            std::size_t ll_migr = 0;
            std::size_t ie_migr = 0;
            const double ll =
                run_policy(core::PolicyKind::LingerLonger, ll_migr);
            const double ie =
                run_policy(core::PolicyKind::ImmediateEviction, ie_migr);
            core::MigrationCostModel model;
            model.bandwidth_bps = mbps * 1e6;
            RunResult r;
            r.set("t_migr",
                  model.cost(static_cast<std::uint64_t>(mb * 1024 * 1024)));
            r.set("ll_throughput", ll);
            r.set("ie_throughput", ie);
            r.set("ll_over_ie", ll / ie);
            r.set("ll_migrations", static_cast<double>(ll_migr));
            r.set("ie_migrations", static_cast<double>(ie_migr));
            return r;
          });
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper's point: 8 MB @ 3 Mbps effective => ~23 s per migration; "
             "the LL/IE gap\nwidens as migration gets more expensive.");
  return 0;
}

/// Burst table with the same means as the default but exponential (cv^2=1)
/// burst durations — the abl_burst_model ablation of design decision #3.
workload::BurstTable exponential_burst_table() {
  std::array<workload::BurstMoments, workload::kUtilizationLevels> levels{};
  const workload::BurstTable& h2 = workload::default_burst_table();
  for (std::size_t i = 0; i < workload::kUtilizationLevels; ++i) {
    const workload::BurstMoments& m = h2.level(i);
    levels[i] = workload::BurstMoments{m.run_mean, m.run_mean * m.run_mean,
                                       m.idle_mean, m.idle_mean * m.idle_mean};
  }
  return workload::BurstTable(levels);
}

/// Ablation of design decision #3 (DESIGN.md): hyperexponential (cv^2 > 1)
/// burst durations versus a memoryless exponential model with the same
/// means. The burst-length tail is what drives barrier amplification in the
/// parallel results; single-node stealing ratios barely notice.
int run_abl_burst_model(const std::vector<std::string>& args,
                        std::ostream& out) {
  util::Flags flags("llsim bench abl_burst_model",
                    "H2 bursts vs exponential bursts with equal means.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  parse_args(flags, "llsim bench abl_burst_model", args);

  print_banner(out, "Ablation: burst distribution (H2 vs exponential)",
               "Same means, different tails: the H2 tail is what the "
               "barrier max amplifies.",
               *seed);

  const workload::BurstTable& h2 = workload::default_burst_table();
  const workload::BurstTable expo = exponential_burst_table();

  util::CsvWriter csv(*csv_path);
  csv.row({"metric", "utilization", "h2", "exponential"});

  // Single-node stealing metrics.
  util::Table fine({"util", "LDR h2", "LDR exp", "FCSR h2", "FCSR exp"});
  for (double u : {0.2, 0.5, 0.8}) {
    auto run = [&](const workload::BurstTable& t) {
      node::FineNodeConfig cfg;
      cfg.utilization = u;
      cfg.duration = 3000.0;
      return node::simulate_fine_node(
          cfg, t,
          rng::Stream(*seed).fork("fine", static_cast<std::uint64_t>(u * 100)));
    };
    const auto a = run(h2);
    const auto b = run(expo);
    fine.add_row({util::percent(u, 0), util::percent(a.ldr(), 2),
                  util::percent(b.ldr(), 2), util::percent(a.fcsr(), 1),
                  util::percent(b.fcsr(), 1)});
    csv.row({"ldr", util::fixed(u, 1), util::fixed(a.ldr(), 5),
             util::fixed(b.ldr(), 5)});
    csv.row({"fcsr", util::fixed(u, 1), util::fixed(a.fcsr(), 5),
             util::fixed(b.fcsr(), 5)});
  }
  out << "Single-node stealing metrics:\n" << fine.render() << "\n";

  // Parallel barrier amplification (Figure 9 setup).
  util::Table par({"busy-node util", "slowdown h2", "slowdown exp"});
  parallel::BspConfig bsp;
  bsp.processes = 8;
  bsp.granularity = 0.1;
  bsp.phases = 150;
  for (double u : {0.2, 0.4, 0.6, 0.8}) {
    std::vector<double> utils(8, 0.0);
    for (std::size_t i = 0; i < 4; ++i) utils[i] = u;  // 4 busy nodes
    const auto a = parallel::simulate_bsp(
        bsp, utils, h2,
        rng::Stream(*seed).fork("h2", static_cast<std::uint64_t>(u * 100)));
    const auto b = parallel::simulate_bsp(
        bsp, utils, expo,
        rng::Stream(*seed).fork("exp", static_cast<std::uint64_t>(u * 100)));
    par.add_row({util::percent(u, 0), util::fixed(a.slowdown(), 2),
                 util::fixed(b.slowdown(), 2)});
    csv.row({"bsp_slowdown_4busy", util::fixed(u, 1),
             util::fixed(a.slowdown(), 4), util::fixed(b.slowdown(), 4)});
  }
  out << "8-process BSP, 4 busy nodes:\n"
      << par.render()
      << "\nThe exponential model understates barrier slowdown — "
         "evidence the cv^2 > 1 fit matters.\n";
  return 0;
}

/// A full-day trace pool whose machines keep only ~`free_mb` MB free on
/// average (the memory-pressure knob; CPU behaviour is the standard
/// generator's). A session's used-memory base is drawn within
/// ±`active_spread` KB of the target while the owner is active, and from
/// `away_spread` KB below to 2 MB above it while the owner is away.
TracePoolCache::PoolPtr pressured_pool(std::size_t machines, double free_mb,
                                       std::int32_t active_spread,
                                       std::int32_t away_spread,
                                       std::uint64_t seed) {
  trace::CoarseGenConfig gen;
  gen.duration = 24.0 * 3600.0;
  const auto base_used = static_cast<std::int32_t>(65536 - free_mb * 1024.0);
  gen.mem_base_active_lo = base_used - active_spread;
  gen.mem_base_active_hi = base_used + active_spread;
  gen.mem_base_away_lo = base_used - away_spread;
  gen.mem_base_away_hi = base_used + 2048;
  return std::make_shared<const TracePoolCache::Pool>(
      trace::generate_machine_pool(gen, machines, rng::Stream(seed)));
}

/// Ablation of design decision #6 (DESIGN.md): the priority page pools
/// (§3.2, after the Stealth scheduler). On memory-tight machines the
/// foreign job's working set can only partially reside in donated pages;
/// modelling this matters for jobs larger than the typical free headroom.
/// Sweeps the foreign working-set size against machines with varying
/// memory pressure; each cell runs the same seed with the model on and off.
int run_abl_memory_priority(const std::vector<std::string>& args,
                            std::ostream& out) {
  util::Flags flags("llsim bench abl_memory_priority",
                    "Priority page pools vs ignoring memory entirely.");
  auto nodes = flags.add_uint64("nodes", 16, "cluster size");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_memory_priority", args);

  const workload::BurstTable& table = workload::default_burst_table();

  ExperimentSpec spec;
  spec.name = "abl_memory_priority: priority page pools (memory model on/off)";
  spec.axes = {"free_mb", "job_mb"};
  apply_standard_flags(spec, std_flags);
  for (double free_mb : {24.0, 12.0, 6.0}) {
    const auto pool = pressured_pool(static_cast<std::size_t>(*nodes), free_mb,
                                     4096, 6144, *std_flags.seed + 1);
    for (double job_mb : {4.0, 8.0, 16.0}) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
      cfg.cluster.policy = core::PolicyKind::LingerLonger;
      cfg.cluster.job_mem_kb = static_cast<std::uint32_t>(job_mb * 1024);
      cfg.cluster.job_bytes = static_cast<std::uint64_t>(job_mb * 1024 * 1024);
      cfg.workload = cluster::WorkloadSpec{32, 600.0};
      spec.add_cell(
          {{"free_mb", util::fixed(free_mb, 0)},
           {"job_mb", util::fixed(job_mb, 0)}},
          [cfg, pool, &table](std::uint64_t seed) mutable {
            cfg.seed = seed;
            cfg.cluster.model_memory = true;
            const double with_model =
                cluster::run_closed(cfg, *pool, table, 3600.0).throughput;
            cfg.cluster.model_memory = false;
            const double without =
                cluster::run_closed(cfg, *pool, table, 3600.0).throughput;
            RunResult r;
            r.set("throughput_mem_model", with_model);
            r.set("throughput_no_mem", without);
            r.set("ratio", with_model / without);
            return r;
          });
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper: >=10 MB free 95% of the time, so one 8 MB job fits; "
             "the model matters\nexactly when that assumption breaks.");
  if (!*std_flags.json) {
    out << "\nRatio ~1: the paper's 'one moderate job fits' claim holds; "
           "ratios << 1 mark\nconfigurations where ignoring memory would "
           "overstate lingering's benefit.\n";
  }
  return 0;
}

/// Ablation: the hidden owner cost of eviction (paper §1: "existing systems
/// that exploit free workstations also have an indirect impact on users due
/// to the time required to re-load virtual memory pages and caches after a
/// foreign job has been evicted").
///
/// The baseline simulator charges owners only for context-switch overhead
/// while a guest lingers, which makes eviction policies look perfectly
/// owner-friendly. This sweep charges the restore cost to the legacy
/// eviction systems (Condor/NOW-style IE and PM, which have no page
/// priority: the guest freely displaced owner pages while the owner was
/// away, and the returning owner re-faults them). Linger-Longer ships the
/// Stealth-style priority page pools of §3.2 — the guest only ever holds
/// donated free pages — so its owners have nothing to re-load: it is one
/// reference row at zero restore cost.
int run_abl_owner_restore(const std::vector<std::string>& args,
                          std::ostream& out) {
  util::Flags flags("llsim bench abl_owner_restore",
                    "Owner-side eviction restore-cost sweep.");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_owner_restore", args);

  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  ExperimentSpec spec;
  spec.name = "abl_owner_restore: owner restore cost after guest departure";
  spec.axes = {"restore_s"};
  apply_standard_flags(spec, std_flags);
  cluster::ExperimentConfig base;
  base.cluster.node_count = static_cast<std::size_t>(*nodes);
  base.workload = cluster::WorkloadSpec{64, 600.0};
  // Reference row: LL has page priority, so owners never lose pages.
  {
    cluster::ExperimentConfig cfg = base;
    cfg.cluster.policy = core::PolicyKind::LingerLonger;
    spec.add_cell({{"restore_s", "LL reference"}},
                  [cfg, pool, &table](std::uint64_t seed) mutable {
                    cfg.seed = seed;
                    RunResult r;
                    r.set("ll_delay",
                          cluster::run_closed(cfg, *pool, table, 3600.0)
                              .foreground_delay);
                    return r;
                  });
  }
  for (double restore : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    cluster::ExperimentConfig cfg = base;
    cfg.cluster.owner_restore_penalty = restore;
    spec.add_cell({{"restore_s", util::fixed(restore, 1)}},
                  [cfg, pool, &table](std::uint64_t seed) mutable {
                    cfg.seed = seed;
                    cfg.cluster.policy = core::PolicyKind::ImmediateEviction;
                    const auto ie =
                        cluster::run_closed(cfg, *pool, table, 3600.0);
                    cfg.cluster.policy = core::PolicyKind::PauseAndMigrate;
                    const auto pm =
                        cluster::run_closed(cfg, *pool, table, 3600.0);
                    RunResult r;
                    r.set("ie_delay", ie.foreground_delay);
                    r.set("pm_delay", pm.foreground_delay);
                    r.set("ie_evictions", static_cast<double>(ie.migrations));
                    return r;
                  });
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper §1: eviction is not free for owners either — pages and "
             "caches must\nbe re-loaded after the guest leaves.");
  if (!*std_flags.json) {
    out << "\nLL's owner impact is the flat fine-grain switching cost; the "
           "legacy eviction\nsystems' impact scales with how much state the "
           "returning owner must re-load.\nThe lines cross at sub-second "
           "restore costs — the paper's §1 point, quantified.\n";
  }
  return 0;
}

/// Ablation of the paper's one-guest-per-node constraint (§3.2: the free
/// memory "is sufficient to accommodate ONE compute-bound foreign job of
/// moderate size"). Allowing co-resident guests processor-shares the
/// leftover rate and splits the donated page pool. On a demand-saturated
/// cluster, extra slots cannot add capacity — they only shuffle it — and
/// once memory gets tight they actively destroy throughput to paging.
int run_abl_multi_occupancy(const std::vector<std::string>& args,
                            std::ostream& out) {
  util::Flags flags("llsim bench abl_multi_occupancy",
                    "Guests-per-node sweep (paper fixes this at 1).");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench abl_multi_occupancy", args);

  const workload::BurstTable& table = workload::default_burst_table();
  struct PoolSpec {
    const char* name;
    double free_mb;  // average free memory on the machines
  };

  ExperimentSpec spec;
  spec.name = "abl_multi_occupancy: foreign jobs allowed per node";
  spec.axes = {"pool", "slots"};
  apply_standard_flags(spec, std_flags);
  for (const PoolSpec& pspec :
       {PoolSpec{"roomy memory (~24 MB free)", 24.0},
        PoolSpec{"tight memory (~10 MB free)", 10.0}}) {
    const auto pool = pressured_pool(static_cast<std::size_t>(*nodes),
                                     pspec.free_mb, 3072, 4096,
                                     *std_flags.seed + 1);
    for (std::size_t slots : {1u, 2u, 4u}) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
      cfg.cluster.policy = core::PolicyKind::LingerLonger;
      cfg.cluster.max_foreign_per_node = slots;
      cfg.workload = cluster::WorkloadSpec{96, 600.0};
      spec.add_cell({{"pool", pspec.name}, {"slots", std::to_string(slots)}},
                    [cfg, pool, &table](std::uint64_t seed) mutable {
                      cfg.seed = seed;
                      return cluster_cell(cfg, pool, table);
                    });
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Paper constraint: one moderate guest per node (memory "
             "headroom argument).");
  if (!*std_flags.json) {
    out << "\nProcessor sharing keeps aggregate throughput flat when memory "
           "is roomy but\ninflates mean completion (jobs overlap instead of "
           "pipelining); with tight\nmemory, extra guests thrash the donated "
           "page pool and throughput drops —\nthe quantitative case for the "
           "paper's one-guest rule.\n";
  }
  return 0;
}

}  // namespace

void register_ablation_benches(BenchRegistry& registry) {
  registry.add(Bench{"abl_pause_time",
                     "Ablation — PM grace-period sweep (design decision #5)",
                     run_abl_pause_time});
  registry.add(Bench{"abl_predictor",
                     "Ablation — 2T linger-duration scale (design decision #1)",
                     run_abl_predictor});
  registry.add(Bench{"abl_ctx_switch",
                     "Ablation — context-switch cost sweep (design decision #2)",
                     run_abl_ctx_switch});
  registry.add(Bench{"abl_migration_cost",
                     "Ablation — migration bandwidth x image (design decision #4)",
                     run_abl_migration_cost});
  registry.add(Bench{"abl_burst_model",
                     "Ablation — H2 vs exponential bursts (design decision #3)",
                     run_abl_burst_model});
  registry.add(Bench{"abl_memory_priority",
                     "Ablation — priority page pools on/off (design decision #6)",
                     run_abl_memory_priority});
  registry.add(Bench{"abl_owner_restore",
                     "Ablation — owner restore cost of eviction (design "
                     "decision #7)",
                     run_abl_owner_restore});
  registry.add(Bench{"abl_multi_occupancy",
                     "Ablation — foreign jobs per node (design decision #8)",
                     run_abl_multi_occupancy});
}

}  // namespace ll::exp
