/// \file abl_multi_occupancy.cpp
/// Ablation of the paper's one-guest-per-node constraint (§3.2: the free
/// memory "is sufficient to accommodate ONE compute-bound foreign job of
/// moderate size"). Allowing co-resident guests processor-shares the
/// leftover rate and splits the donated page pool. On a demand-saturated
/// cluster, extra slots cannot add capacity — they only shuffle it — and
/// once memory gets tight they actively destroy throughput to paging.

#include <cstdio>

#include "cluster/experiment.hpp"
#include "common.hpp"
#include "trace/coarse_generator.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("abl_multi_occupancy",
                    "Guests-per-node sweep (paper fixes this at 1).");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Ablation: foreign jobs allowed per node",
                 "Paper constraint: one moderate guest per node (memory "
                 "headroom argument).",
                 *seed);

  const auto& table = workload::default_burst_table();
  util::CsvWriter csv(*csv_path);
  csv.row({"pool", "slots", "throughput", "avg_job", "p50", "p90",
           "fg_delay"});

  struct PoolSpec {
    const char* name;
    double free_mb;  // average free memory on the machines
  };
  for (const PoolSpec& spec :
       {PoolSpec{"roomy memory (~24 MB free)", 24.0},
        PoolSpec{"tight memory (~10 MB free)", 10.0}}) {
    trace::CoarseGenConfig gen;
    gen.duration = 24.0 * 3600.0;
    const auto base_used =
        static_cast<std::int32_t>(65536 - spec.free_mb * 1024.0);
    gen.mem_base_active_lo = base_used - 3072;
    gen.mem_base_active_hi = base_used + 3072;
    gen.mem_base_away_lo = base_used - 4096;
    gen.mem_base_away_hi = base_used + 2048;
    const auto pool = trace::generate_machine_pool(
        gen, static_cast<std::size_t>(*nodes), rng::Stream(*seed + 1));

    util::Table out({"slots/node", "throughput", "avg job (s)", "p50 (s)",
                     "p90 (s)", "owner delay"});
    for (std::size_t slots : {1u, 2u, 4u}) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
      cfg.cluster.policy = core::PolicyKind::LingerLonger;
      cfg.cluster.max_foreign_per_node = slots;
      cfg.workload = cluster::WorkloadSpec{96, 600.0};
      cfg.seed = *seed;

      const auto open = cluster::run_open(cfg, pool, table);
      const auto closed = cluster::run_closed(cfg, pool, table, 3600.0);
      out.add_row({std::to_string(slots), util::fixed(closed.throughput, 1),
                   util::fixed(open.avg_completion, 0),
                   util::fixed(open.p50_completion, 0),
                   util::fixed(open.p90_completion, 0),
                   util::percent(open.foreground_delay, 2)});
      csv.row({spec.name, std::to_string(slots),
               util::fixed(closed.throughput, 2),
               util::fixed(open.avg_completion, 1),
               util::fixed(open.p50_completion, 1),
               util::fixed(open.p90_completion, 1),
               util::fixed(open.foreground_delay, 5)});
    }
    std::printf("%s:\n%s\n", spec.name, out.render().c_str());
  }
  std::printf("Processor sharing keeps aggregate throughput flat when memory "
              "is roomy but\ninflates mean completion (jobs overlap instead "
              "of pipelining); with tight\nmemory, extra guests thrash the "
              "donated page pool and throughput drops —\nthe quantitative "
              "case for the paper's one-guest rule.\n");
  return 0;
}
