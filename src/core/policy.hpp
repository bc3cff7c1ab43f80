#pragma once

/// \file policy.hpp
/// The four foreign-job scheduling policies the paper compares (§2, §4):
///
///  * LL — Linger-Longer: keep running at starvation-priority on a non-idle
///    node; after the cost-model linger duration, migrate if a better node
///    exists.
///  * LF — Linger-Forever: never migrate; maximizes cluster throughput at
///    the cost of response-time variance for unlucky jobs.
///  * IE — Immediate-Eviction: evict and migrate the moment the owner
///    returns (the Condor/NOW social contract).
///  * PM — Pause-and-Migrate: suspend in place for a fixed grace period,
///    resume if the node goes idle again, otherwise migrate.
///
/// A policy is a pure decision function: the cluster simulator asks it what
/// to do with the job occupying a node that is (still) non-idle, given the
/// episode age and the cost-model inputs. Policies own no job state, so one
/// instance serves a whole cluster.

#include <limits>
#include <memory>
#include <string_view>

#include "core/cost_model.hpp"

namespace ll::core {

enum class PolicyKind {
  LingerLonger,
  LingerForever,
  ImmediateEviction,
  PauseAndMigrate,
  /// Research baseline (not in the paper): an oracle that knows how long the
  /// current non-idle episode will actually last and migrates exactly when
  /// the cost model's break-even condition holds. Upper-bounds what any
  /// episode-length predictor (such as the paper's 2T rule) could achieve.
  OracleLinger,
};

[[nodiscard]] std::string_view to_string(PolicyKind kind);

/// Parses a policy name as to_string prints it (LL, LF, IE, PM, LL-oracle),
/// the one parser behind llsim's --policy flags and serve's "policy" key.
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] PolicyKind parse_policy_name(std::string_view name);

/// Inputs to a policy decision about one job on one non-idle node.
struct PolicyContext {
  /// How long the node's current non-idle episode has lasted (seconds).
  double episode_age = 0.0;
  /// Local (owner) CPU utilization on the occupied node — "h" in the model.
  double node_utilization = 0.0;
  /// Expected local utilization on a destination idle node — "l".
  double idle_utilization = 0.0;
  /// Migration cost for this job's image, T_migr (seconds).
  double migration_cost = 0.0;
  /// How much longer the current non-idle episode will actually last.
  /// Infinity when unknown (the normal case); the trace-driven simulator can
  /// look it up for the OracleLinger baseline.
  double episode_remaining = std::numeric_limits<double>::infinity();
};

/// A policy's verdict.
struct Decision {
  enum class Action {
    Continue,  ///< keep running where it is; no future re-check needed
    Linger,    ///< keep running; re-check in `recheck_in` seconds
    Pause,     ///< suspend in place; re-check in `recheck_in` seconds
    Migrate,   ///< move to a better node as soon as a target exists
  };
  Action action = Action::Continue;
  /// Delay until the policy wants to be consulted again (Linger/Pause only).
  double recheck_in = 0.0;
};

/// Tunable parameters; only the fields relevant to a given policy apply.
struct PolicyParams {
  /// PM: fixed suspension before migrating. The paper calls it "a fixed
  /// time" without giving the value; 60 s matches the recruitment threshold
  /// and is swept in bench/abl_pause_time.
  double pause_time = 60.0;
  /// LL: multiplier on the cost-model linger duration. 1.0 is the paper's
  /// 2T median-remaining-life rule; 0 migrates at the first opportunity
  /// (an eager predictor); large values approach Linger-Forever. Swept in
  /// bench/abl_predictor.
  double linger_scale = 1.0;
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual PolicyKind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(kind()); }

  /// May foreign jobs run (at starvation priority) while the owner is
  /// active? False for the eviction-based policies: their jobs may only
  /// occupy idle nodes.
  [[nodiscard]] virtual bool allows_lingering() const = 0;

  /// Decision for a job whose node is non-idle. Called on the idle->non-idle
  /// transition and whenever a previously requested re-check fires with the
  /// node still non-idle.
  [[nodiscard]] virtual Decision on_nonidle(const PolicyContext& ctx) const = 0;
};

/// Factory for the four paper policies.
[[nodiscard]] std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                                  const PolicyParams& params = {});

}  // namespace ll::core
