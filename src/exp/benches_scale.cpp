/// \file benches_scale.cpp
/// Registered scale extension: ext_scale drives the full cluster pipeline
/// at 100k nodes — the population the calendar event queue and the SoA
/// node-state layout exist for — and reports the Figure-7 metrics under
/// both queue backends side by side. Backend invariance means the two rows
/// must agree on every simulated metric (only wall time may differ), and
/// the engine guarantees the sweep is deterministic across --jobs.

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "cluster/experiment.hpp"
#include "des/event_queue.hpp"
#include "exp/bench_util.hpp"
#include "exp/benches.hpp"
#include "exp/drivers.hpp"
#include "exp/registry.hpp"
#include "shard/experiment.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

int run_ext_scale(const std::vector<std::string>& args, std::ostream& out) {
  util::Flags flags("llsim bench ext_scale",
                    "100k-node cluster end to end: binary heap vs calendar "
                    "event queue at scale.");
  auto nodes = flags.add_uint64("nodes", 100000, "cluster size");
  auto machines = flags.add_uint64(
      "machines", 256, "distinct machine traces (nodes share the pool)");
  auto jobs_per_knode = flags.add_uint64(
      "jobs-per-knode", 250, "foreign jobs submitted per 1000 nodes");
  auto demand = flags.add_double("demand", 600.0, "CPU-seconds per job");
  auto closed_duration = flags.add_double(
      "closed-duration", 1800.0, "seconds the closed-system run is held");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench ext_scale", args);

  const auto node_count = static_cast<std::size_t>(*nodes);
  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  cluster::WorkloadSpec workload;
  workload.jobs = std::max<std::size_t>(
      1, node_count * static_cast<std::size_t>(*jobs_per_knode) / 1000);
  workload.demand = *demand;

  // One single-cell sweep per backend, merged afterwards: cell seeds derive
  // from the cell *index*, so putting both backends in one sweep would hand
  // them different seeds and turn the invariance check into noise. With the
  // backend as the only difference, every simulated metric must agree
  // bit-for-bit.
  struct BackendSpec {
    const char* label;
    des::QueueBackend backend;
  };
  SweepResult merged;
  for (const BackendSpec& b :
       {BackendSpec{"heap", des::QueueBackend::kHeap},
        BackendSpec{"calendar", des::QueueBackend::kCalendar}}) {
    ExperimentSpec spec;
    spec.name = "ext_scale: 100k-node cluster, heap vs calendar event queue";
    spec.axes = {"queue"};
    apply_standard_flags(spec, std_flags);
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = node_count;
    cfg.cluster.queue = b.backend;
    cfg.workload = workload;
    const double duration = *closed_duration;
    spec.add_cell({{"queue", b.label}},
                  [cfg, pool, &table, duration](std::uint64_t seed) mutable {
                    cfg.seed = seed;
                    return cluster_cell(cfg, pool, table, duration);
                  });
    SweepResult one = run_sweep(spec, engine_options(std_flags));
    if (merged.cells.empty()) {
      merged = std::move(one);
    } else {
      merged.cells.push_back(std::move(one.cells.front()));
    }
  }

  // Backend invariance, enforced: identical seeds must yield identical
  // metrics regardless of which queue ordered the events.
  const CellResult& heap_cell = merged.cells.front();
  const CellResult& cal_cell = merged.cells.back();
  for (std::size_t r = 0; r < heap_cell.replications.size(); ++r) {
    const auto& hm = heap_cell.replications[r].metrics();
    const auto& cm = cal_cell.replications[r].metrics();
    if (hm != cm) {
      out << "FAIL: heap and calendar backends disagree on simulated "
             "metrics (replication "
          << r << ")\n";
      return 1;
    }
  }

  emit_sweep(merged, std_flags, out,
             "The queue backend must not change a single simulated metric —\n"
             "the rows are checked bit-identical before printing; only wall\n"
             "time may differ. Results are deterministic across --jobs by "
             "the\nengine's slot contract.");
  out << "\nOK: " << heap_cell.replications.size()
      << " replication(s) bit-identical across queue backends\n";
  return 0;
}

/// ext_scale_sharded: the same 100k-node closed-system run on the
/// conservative time-windowed sharded engine at 1, 2 and 4 shards. Two
/// gates:
///  * correctness — every simulated metric must be bit-identical across
///    shard counts (the shard-count diff gate CI runs at reduced size);
///  * performance — 4 shards on the work-stealing runner must finish
///    >= --min-speedup x faster than 1 shard, enforced only when the box
///    has >= 4 hardware threads (below that the parallelism being measured
///    cannot manifest, so the gate relaxes and says so).
int run_ext_scale_sharded(const std::vector<std::string>& args,
                          std::ostream& out) {
  util::Flags flags("llsim bench ext_scale_sharded",
                    "100k-node cluster on the sharded engine: shard-count "
                    "invariance + parallel speedup.");
  auto nodes = flags.add_uint64("nodes", 100000, "cluster size");
  auto machines = flags.add_uint64(
      "machines", 256, "distinct machine traces (nodes share the pool)");
  auto jobs_per_knode = flags.add_uint64(
      "jobs-per-knode", 250, "foreign jobs submitted per 1000 nodes");
  auto demand = flags.add_double("demand", 600.0, "CPU-seconds per job");
  auto closed_duration = flags.add_double(
      "closed-duration", 1800.0, "seconds the closed-system run is held");
  auto queue_name = flags.add_string(
      "queue", "calendar", "event-queue backend per shard (heap | calendar)");
  auto seed = flags.add_uint64("seed", 42, "master RNG seed");
  auto min_speedup = flags.add_double(
      "min-speedup", 1.5,
      "required wall-time speedup of 4 shards over 1 (0 disables the gate)");
  parse_args(flags, "llsim bench ext_scale_sharded", args);

  const auto backend = des::parse_queue_backend(*queue_name);
  if (!backend) {
    out << "ext_scale_sharded: unknown --queue '" << *queue_name << "'\n";
    return 2;
  }
  const auto node_count = static_cast<std::size_t>(*nodes);
  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = node_count;
  cfg.cluster.queue = *backend;
  cfg.workload.jobs = std::max<std::size_t>(
      1, node_count * static_cast<std::size_t>(*jobs_per_knode) / 1000);
  cfg.workload.demand = *demand;
  cfg.seed = *seed;

  struct Row {
    std::size_t shards = 0;
    double wall = 0.0;
    cluster::ClusterReport report;
    shard::ShardStats stats;
  };
  std::vector<Row> rows;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Row row;
    row.shards = k;
    shard::RunHooks hooks;
    hooks.on_finish = [&row](shard::ShardedClusterSim& sim) {
      row.stats = sim.stats();
    };
    util::TaskRunner runner(k);
    const auto t0 = std::chrono::steady_clock::now();
    row.report = shard::run_closed(cfg, k, *pool, table, *closed_duration,
                                   k > 1 ? &runner : nullptr, &hooks);
    row.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    rows.push_back(std::move(row));
  }

  // Gate 1: shard-count invariance — every simulated metric bit-identical.
  const cluster::ClusterReport& base = rows.front().report;
  for (const Row& row : rows) {
    const cluster::ClusterReport& r = row.report;
    if (r.throughput != base.throughput || r.completed != base.completed ||
        r.migrations != base.migrations ||
        r.foreground_delay != base.foreground_delay ||
        r.work_lost != base.work_lost || r.wall_time != base.wall_time) {
      out << "FAIL: simulated metrics diverge between --shards 1 and "
             "--shards "
          << row.shards << " (shard-count invariance broken)\n";
      return 1;
    }
  }

  util::Table report({"shards", "wall s", "speedup", "throughput",
                      "completions", "migrations", "windows",
                      "max barrier wait us"});
  for (const Row& row : rows) {
    report.add_row(
        {std::to_string(row.shards), util::fixed(row.wall, 3),
         util::fixed(rows.front().wall / row.wall, 2),
         util::fixed(row.report.throughput, 2),
         std::to_string(row.report.completed),
         std::to_string(row.report.migrations),
         std::to_string(row.stats.windows),
         util::fixed(static_cast<double>(row.stats.max_barrier_wait_ns) / 1e3,
                     1)});
  }
  out << "=== ext_scale_sharded: conservative time-windowed engine ===\n"
      << "Simulated metrics are bit-identical across shard counts (checked\n"
      << "before printing); wall time is the only column allowed to move.\n"
      << "seed=" << *seed << "\n\n"
      << report.render();

  // Gate 2: parallel speedup at 4 shards.
  const double speedup = rows.front().wall / rows.back().wall;
  double required = *min_speedup;
  const std::size_t hw = std::thread::hardware_concurrency();
  if (required > 0.0 && hw < 4) {
    out << "\nnote: only " << hw
        << " hardware thread(s) — window parallelism cannot manifest; "
           "relaxing speedup gate (invariance gate still enforced)\n";
    required = 0.0;
  }
  if (required > 0.0 && speedup < required) {
    out << "\nFAIL: 4-shard speedup " << util::fixed(speedup, 2)
        << "x < required " << util::fixed(required, 2) << "x\n";
    return 1;
  }
  out << "\nOK: metrics bit-identical across {1,2,4} shards; 4-shard "
         "speedup "
      << util::fixed(speedup, 2) << "x"
      << (required > 0.0 ? " (gate " + util::fixed(required, 2) + "x)" : "")
      << "\n";
  return 0;
}

}  // namespace

void register_scale_benches(BenchRegistry& registry) {
  registry.add(Bench{"ext_scale",
                     "Extension — 100k-node run, heap vs calendar queue",
                     run_ext_scale});
  registry.add(Bench{"ext_scale_sharded",
                     "Extension — sharded time-windowed engine: invariance "
                     "across {1,2,4} shards + parallel speedup",
                     run_ext_scale_sharded});
}

}  // namespace ll::exp
