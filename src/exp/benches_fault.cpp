/// \file benches_fault.cpp
/// Registered fault-robustness extension: ext_fault_robustness sweeps crash
/// rate x checkpoint interval x scheduling policy and reports goodput,
/// work lost, and restart counts next to the usual Figure-7 metrics.

#include <string>

#include "cluster/experiment.hpp"
#include "core/policy.hpp"
#include "exp/bench_util.hpp"
#include "exp/benches.hpp"
#include "exp/drivers.hpp"
#include "exp/registry.hpp"
#include "fault/fault_spec.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

int run_ext_fault_robustness(const std::vector<std::string>& args,
                             std::ostream& out) {
  util::Flags flags("llsim bench ext_fault_robustness",
                    "Policy robustness under node crashes, link drops, and "
                    "checkpointing.");
  auto nodes = flags.add_uint64("nodes", 16, "cluster size");
  auto machines = flags.add_uint64("machines", 16, "distinct machine traces");
  auto drop = flags.add_double("drop", 0.05,
                               "migration-link drop probability (faulty rows)");
  const StandardFlags std_flags = add_standard_flags(flags, 1);
  parse_args(flags, "llsim bench ext_fault_robustness", args);

  const auto pool = TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *std_flags.seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  struct MtbfSpec {
    const char* label;
    double per_node_mtbf;  // seconds; 0 = fault-free reference
  };
  struct CkptSpec {
    const char* label;
    double interval;  // seconds; 0 = no checkpointing
  };

  ExperimentSpec spec;
  spec.name = "ext_fault_robustness: goodput under crashes and checkpoints";
  spec.axes = {"policy", "mtbf", "checkpoint"};
  apply_standard_flags(spec, std_flags);
  for (core::PolicyKind policy :
       {core::PolicyKind::LingerLonger, core::PolicyKind::LingerForever,
        core::PolicyKind::ImmediateEviction,
        core::PolicyKind::PauseAndMigrate}) {
    for (const MtbfSpec& mtbf : {MtbfSpec{"none", 0.0}, MtbfSpec{"2 h", 7200.0},
                                 MtbfSpec{"30 min", 1800.0}}) {
      for (const CkptSpec& ckpt :
           {CkptSpec{"off", 0.0}, CkptSpec{"600 s", 600.0}}) {
        // mtbf=none x checkpoint=off is the fig07 reference row; the
        // fault-free-with-checkpoint row isolates pure checkpoint overhead.
        cluster::ExperimentConfig cfg;
        cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
        cfg.cluster.policy = policy;
        cfg.workload = cluster::WorkloadSpec{
            static_cast<std::size_t>(*nodes) * 2, 600.0};
        if (mtbf.per_node_mtbf > 0.0) {
          // Cluster-wide crash rate: node_count / per-node MTBF.
          cfg.cluster.faults.crash.arrivals = fault::ArrivalProcess::exponential(
              static_cast<double>(cfg.cluster.node_count) / mtbf.per_node_mtbf);
          cfg.cluster.faults.link.drop_probability = *drop;
        }
        cfg.cluster.checkpoint.interval = ckpt.interval;
        spec.add_cell({{"policy", std::string(core::to_string(policy))},
                       {"mtbf", mtbf.label},
                       {"checkpoint", ckpt.label}},
                      [cfg, pool, &table](std::uint64_t seed) mutable {
                        cfg.seed = seed;
                        return fault_cell(cfg, pool, table);
                      });
      }
    }
  }

  const SweepResult sweep = run_sweep(spec, engine_options(std_flags));
  emit_sweep(sweep, std_flags, out,
             "Checkpointing trades steady-state overhead for bounded work "
             "loss; eviction-based\npolicies lose less to crashes (smaller "
             "resident footprint) but deliver less overall.");
  return 0;
}

}  // namespace

void register_fault_benches(BenchRegistry& registry) {
  registry.add(
      Bench{"ext_fault_robustness",
            "Extension — policy robustness under crashes/checkpointing",
            run_ext_fault_robustness});
}

}  // namespace ll::exp
