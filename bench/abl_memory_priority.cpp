/// \file abl_memory_priority.cpp
/// Ablation of design decision #6 (DESIGN.md): the priority page pools
/// (§3.2, after the Stealth scheduler). On memory-tight machines the foreign
/// job's working set can only partially reside in donated pages; modelling
/// this matters for jobs larger than the typical free headroom. Sweeps the
/// foreign working-set size against machines with varying memory pressure.

#include <cstdio>

#include "cluster/experiment.hpp"
#include "common.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

/// A trace pool whose machines keep only ~`free_mb` MB free on average
/// (memory pressure knob; CPU behaviour is the standard generator's).
std::vector<ll::trace::CoarseTrace> pressured_pool(std::size_t machines,
                                                   double free_mb,
                                                   std::uint64_t seed) {
  ll::trace::CoarseGenConfig gen;
  gen.duration = 24.0 * 3600.0;
  const auto base_used =
      static_cast<std::int32_t>(65536 - free_mb * 1024.0);
  gen.mem_base_active_lo = base_used - 4096;
  gen.mem_base_active_hi = base_used + 4096;
  gen.mem_base_away_lo = base_used - 6144;
  gen.mem_base_away_hi = base_used + 2048;
  return ll::trace::generate_machine_pool(gen, machines, ll::rng::Stream(seed));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("abl_memory_priority",
                    "Priority page pools vs ignoring memory entirely.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto nodes = flags.add_uint64("nodes", 16, "cluster size");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Ablation: priority page pools (memory model on/off)",
                 "Paper: >=10 MB free 95% of the time, so one 8 MB job fits; "
                 "the model matters\nexactly when that assumption breaks.",
                 *seed);

  const auto& table = workload::default_burst_table();

  util::CsvWriter csv(*csv_path);
  csv.row({"free_mb", "job_mb", "throughput_mem_model", "throughput_no_mem",
           "ratio"});

  util::Table out({"avg free (MB)", "job ws (MB)", "thpt (mem model)",
                   "thpt (no model)", "ratio"});
  for (double free_mb : {24.0, 12.0, 6.0}) {
    const auto pool =
        pressured_pool(static_cast<std::size_t>(*nodes), free_mb, *seed + 1);
    for (double job_mb : {4.0, 8.0, 16.0}) {
      auto run = [&](bool model_memory) {
        cluster::ExperimentConfig cfg;
        cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
        cfg.cluster.policy = core::PolicyKind::LingerLonger;
        cfg.cluster.model_memory = model_memory;
        cfg.cluster.job_mem_kb = static_cast<std::uint32_t>(job_mb * 1024);
        cfg.cluster.job_bytes =
            static_cast<std::uint64_t>(job_mb * 1024 * 1024);
        cfg.workload = cluster::WorkloadSpec{32, 600.0};
        cfg.seed = *seed;
        return cluster::run_closed(cfg, pool, table, 3600.0).throughput;
      };
      const double with_model = run(true);
      const double without = run(false);
      out.add_row({util::fixed(free_mb, 0), util::fixed(job_mb, 0),
                   util::fixed(with_model, 2), util::fixed(without, 2),
                   util::fixed(with_model / without, 2)});
      csv.row({util::fixed(free_mb, 0), util::fixed(job_mb, 0),
               util::fixed(with_model, 3), util::fixed(without, 3),
               util::fixed(with_model / without, 3)});
    }
  }
  std::printf("%s", out.render().c_str());
  std::printf("\nRatio ~1: the paper's 'one moderate job fits' claim holds; "
              "ratios << 1 mark\nconfigurations where ignoring memory would "
              "overstate lingering's benefit.\n");
  return 0;
}
