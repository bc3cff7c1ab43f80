/// \file llverify.cpp
/// Differential determinism and invariant harness.
///
/// For every registered verification scenario (src/verify/scenarios.hpp),
/// llverify:
///   1. runs it twice with identical seeds and diffs the state digests
///      (differential determinism — any divergence means hidden state);
///   2. runs it with a perturbed seed and requires a *different* digest
///      (negative control — a digest blind to the seed proves nothing);
///   3. re-derives its RNG streams through a perturbed fork order and
///      requires the same digest (sub-stream independence);
///   4. runs the built-in invariant checkers and fails on any violation.
///
/// With --golden DIR it additionally compares each digest against the
/// committed golden file; --write-golden DIR regenerates them (do this only
/// for *intentional* behavior changes, and say so in the commit message).
///
/// Usage:
///   llverify --all [--seed N]
///   llverify --scenario NAME [--scenario ...]
///   llverify --list
///   llverify --golden tests/golden
///   llverify --write-golden tests/golden
///   llverify --all --golden tests/golden --jobs 4
///
/// --jobs N runs the scenario checks as a batch on the lock-free
/// work-stealing TaskRunner (util/runner.hpp) instead of sequentially —
/// each scenario writes its outcome to a disjoint slot, so the report and
/// the verdict are byte-identical to --jobs 1. CI uses this to prove the
/// pinned goldens hold when driven through the concurrent runner itself.

#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/runner.hpp"
#include "verify/scenarios.hpp"

namespace {

using ll::verify::Digest;
using ll::verify::Scenario;
using ll::verify::ScenarioOptions;
using ll::verify::ScenarioResult;

struct GoldenEntry {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

std::string golden_path(const std::string& dir, const std::string& name,
                        bool sharded) {
  return dir + "/" + name + (sharded ? ".shards.golden" : ".golden");
}

bool read_golden(const std::string& path, GoldenEntry& out,
                 std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::string hex;
  if (!(in >> hex >> out.events)) {
    error = "malformed golden file " + path;
    return false;
  }
  const auto parsed = Digest::parse_hex(hex);
  if (!parsed) {
    error = "bad digest in " + path;
    return false;
  }
  out.digest = *parsed;
  return true;
}

bool write_golden(const std::string& path, const ScenarioResult& result,
                  std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot write " + path;
    return false;
  }
  out << result.digest.hex() << " " << result.events << "\n";
  return static_cast<bool>(out);
}

struct CheckOutcome {
  bool ok = true;
  std::vector<std::string> failures;

  void fail(std::string message) {
    ok = false;
    failures.push_back(std::move(message));
  }
};

CheckOutcome check_scenario(const Scenario& scenario, std::uint64_t seed,
                            ll::des::QueueBackend queue, std::size_t shards,
                            const std::string& golden_dir, bool update_golden,
                            std::ostream& out) {
  CheckOutcome outcome;
  const bool sharded = shards > 0 && ll::verify::scenario_sharded(scenario);
  ScenarioOptions options;
  options.seed = seed;
  options.mode = ll::verify::Mode::kCount;
  options.queue = queue;
  options.shards = shards;

  const ScenarioResult first = scenario.run(options);
  const ScenarioResult second = scenario.run(options);

  // 1. Differential determinism: identical seeds, byte-identical digests.
  if (first.digest.value() != second.digest.value() ||
      first.events != second.events) {
    outcome.fail("NON-DETERMINISTIC: run1 " + first.digest.hex() + " run2 " +
                 second.digest.hex());
  }

  // 2. Negative control: a perturbed seed must perturb the digest.
  ScenarioOptions perturbed = options;
  perturbed.seed = seed + 1;
  const ScenarioResult control = scenario.run(perturbed);
  if (control.digest.value() == first.digest.value()) {
    outcome.fail("SEED-BLIND: digest unchanged under perturbed seed");
  }

  // 3. Sub-stream independence: decoy forks must not move the digest.
  ScenarioOptions reordered = options;
  reordered.reordered_streams = true;
  const ScenarioResult reran = scenario.run(reordered);
  if (reran.digest.value() != first.digest.value()) {
    outcome.fail("STREAM-ORDER-DEPENDENT: digest " + first.digest.hex() +
                 " became " + reran.digest.hex() +
                 " under a perturbed fork order");
  }

  // 3b. Shard-count invariance: the sharded model's digest is a pure
  //     function of the scenario, never of the partition — one shard must
  //     reproduce the K-shard digest byte for byte.
  if (sharded && shards > 1) {
    ScenarioOptions solo = options;
    solo.shards = 1;
    const ScenarioResult single = scenario.run(solo);
    if (single.digest.value() != first.digest.value() ||
        single.events != first.events) {
      outcome.fail("SHARD-COUNT-DEPENDENT: --shards " +
                   std::to_string(shards) + " digest " + first.digest.hex() +
                   " != --shards 1 digest " + single.digest.hex());
    }
  }

  // 4. Invariants: checks must run, and must pass.
  if (first.checks == 0) {
    outcome.fail("NO-CHECKS: scenario executed zero invariant checks");
  }
  if (first.violations > 0) {
    outcome.fail("INVARIANT: " + std::to_string(first.violations) + "/" +
                 std::to_string(first.checks) + " checks failed");
  }

  // 5. Golden comparison (only at the pinned seed — goldens are
  //    seed-specific by construction).
  if (!golden_dir.empty()) {
    const std::string path = golden_path(golden_dir, scenario.name, sharded);
    if (update_golden) {
      std::string error;
      if (!write_golden(path, first, error)) outcome.fail(error);
    } else if (seed != ll::verify::kGoldenSeed) {
      outcome.fail("golden comparison requires --seed " +
                   std::to_string(ll::verify::kGoldenSeed));
    } else {
      GoldenEntry golden;
      std::string error;
      if (!read_golden(path, golden, error)) {
        outcome.fail(error);
      } else if (golden.digest != first.digest.value() ||
                 golden.events != first.events) {
        Digest expected;
        outcome.fail("GOLDEN-DRIFT: expected " + path + " digest, got " +
                     first.digest.hex());
      }
    }
  }

  out << (outcome.ok ? "ok   " : "FAIL ") << scenario.name << "  digest="
      << first.digest.hex() << " events=" << first.events
      << " checks=" << first.checks << "\n";
  for (const std::string& f : outcome.failures) {
    out << "       " << f << "\n";
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  ll::util::Flags flags("llverify",
                        "Differential determinism and invariant harness: "
                        "reruns pinned scenarios, diffs state digests, and "
                        "checks engine/model invariants.");
  auto all = flags.add_bool("all", false, "run every registered scenario");
  auto list = flags.add_bool("list", false, "list scenarios and exit");
  auto seed = flags.add_uint64("seed", ll::verify::kGoldenSeed,
                               "master seed for the determinism runs");
  auto scenario_name = flags.add_string(
      "scenario", "", "run a single scenario by name (see --list)");
  auto golden = flags.add_string(
      "golden", "", "directory of golden digests to compare against");
  auto write = flags.add_string(
      "write-golden", "",
      "regenerate golden digests into this directory (intentional "
      "behavior changes only)");
  auto jobs = flags.add_uint64(
      "jobs", 1,
      "run scenario checks on the work-stealing runner with this many "
      "workers (0 = hardware concurrency); output is identical to --jobs 1");
  auto queue_name = flags.add_string(
      "queue", "heap",
      "event-queue backend for every engine the scenarios build (heap | "
      "calendar); digests are backend-invariant, so goldens must pass "
      "under both");
  auto shards = flags.add_uint64(
      "shards", 0,
      "run the cluster-backed scenarios on the conservative time-windowed "
      "sharded engine with this many shards (0 = monolithic ClusterSim); "
      "sharded digests compare against <name>.shards.golden and must be "
      "shard-count invariant");

  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "llverify: " << e.what() << "\n";
    return 2;
  }

  const auto queue = ll::des::parse_queue_backend(*queue_name);
  if (!queue) {
    std::cerr << "llverify: unknown --queue '" << *queue_name
              << "' (heap | calendar)\n";
    return 2;
  }

  const auto& registry = ll::verify::scenarios();

  if (*list) {
    for (const Scenario& s : registry) {
      std::cout << s.name << "  [" << s.module << "]  " << s.description
                << "\n";
    }
    return 0;
  }

  std::vector<const Scenario*> selected;
  if (!scenario_name->empty()) {
    const Scenario* s = ll::verify::find_scenario(*scenario_name);
    if (!s) {
      std::cerr << "llverify: unknown scenario '" << *scenario_name
                << "' (try --list)\n";
      return 2;
    }
    selected.push_back(s);
  } else if (*all || !write->empty() || !golden->empty()) {
    for (const Scenario& s : registry) selected.push_back(&s);
  } else {
    std::cerr << "llverify: nothing to do; pass --all, --scenario NAME, "
                 "--golden DIR or --write-golden DIR (see --help)\n";
    return 2;
  }

  const bool updating = !write->empty();
  const std::string golden_dir = updating ? *write : *golden;

  std::size_t failures = 0;
  if (*jobs == 1 || updating || selected.size() < 2) {
    // Sequential path (and always for golden regeneration — file writes
    // stay ordered and easy to reason about).
    for (const Scenario* s : selected) {
      if (!check_scenario(*s, *seed, *queue, *shards, golden_dir, updating,
                          std::cout)
               .ok) {
        ++failures;
      }
    }
  } else {
    // One task per scenario on the work-stealing runner; each writes its
    // outcome and report text to a disjoint slot, printed afterwards in
    // registration order — byte-identical to the sequential path.
    std::vector<CheckOutcome> outcomes(selected.size());
    std::vector<std::ostringstream> reports(selected.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      tasks.push_back([&, i] {
        outcomes[i] =
            check_scenario(*selected[i], *seed, *queue, *shards, golden_dir,
                           /*update_golden=*/false, reports[i]);
      });
    }
    ll::util::TaskRunner runner(static_cast<std::size_t>(*jobs));
    runner.run(std::move(tasks));
    for (std::size_t i = 0; i < selected.size(); ++i) {
      std::cout << reports[i].str();
      if (!outcomes[i].ok) ++failures;
    }
  }

  if (updating) {
    std::cout << "wrote " << selected.size() << " golden digests to "
              << golden_dir << "\n";
  }
  if (failures > 0) {
    std::cout << failures << "/" << selected.size() << " scenarios FAILED\n";
    return 1;
  }
  std::cout << "all " << selected.size() << " scenarios verified\n";
  return 0;
}
