#include <cmath>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"

namespace ll::core {
namespace {

class LingerLongerPolicy final : public Policy {
 public:
  explicit LingerLongerPolicy(double linger_scale) : scale_(linger_scale) {
    if (linger_scale < 0.0) {
      throw std::invalid_argument("LingerLonger: linger_scale must be >= 0");
    }
  }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::LingerLonger;
  }
  [[nodiscard]] bool allows_lingering() const override { return true; }

  [[nodiscard]] Decision on_nonidle(const PolicyContext& ctx) const override {
    const double base = linger_duration(
        ctx.node_utilization, ctx.idle_utilization, ctx.migration_cost);
    if (std::isinf(base)) {
      // Destination is no better than here; lingering costs nothing extra.
      // Ask to be re-consulted after the migration-cost timescale in case
      // conditions change.
      return {Decision::Action::Linger,
              ctx.migration_cost > 0.0 ? ctx.migration_cost : 1.0};
    }
    const double t_lingr = scale_ * base;
    if (ctx.episode_age + 1e-9 >= t_lingr) {
      return {Decision::Action::Migrate, 0.0};
    }
    return {Decision::Action::Linger, t_lingr - ctx.episode_age};
  }

 private:
  double scale_;
};

class LingerForeverPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::LingerForever;
  }
  [[nodiscard]] bool allows_lingering() const override { return true; }

  [[nodiscard]] Decision on_nonidle(const PolicyContext&) const override {
    return {Decision::Action::Continue, 0.0};
  }
};

class ImmediateEvictionPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::ImmediateEviction;
  }
  [[nodiscard]] bool allows_lingering() const override { return false; }

  [[nodiscard]] Decision on_nonidle(const PolicyContext&) const override {
    return {Decision::Action::Migrate, 0.0};
  }
};

class OracleLingerPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::OracleLinger;
  }
  [[nodiscard]] bool allows_lingering() const override { return true; }

  [[nodiscard]] Decision on_nonidle(const PolicyContext& ctx) const override {
    // Migrating now beats lingering out the episode iff the *remaining*
    // episode length exceeds the cost-model tail (1-l)/(h-l) * T_migr.
    const double tail = linger_duration(ctx.node_utilization,
                                        ctx.idle_utilization, ctx.migration_cost);
    if (!std::isinf(ctx.episode_remaining) && ctx.episode_remaining > tail) {
      return {Decision::Action::Migrate, 0.0};
    }
    // Episode about to end (or remaining unknown): ride it out; the
    // simulator resumes the job when the owner departs.
    return {Decision::Action::Continue, 0.0};
  }
};

class PauseAndMigratePolicy final : public Policy {
 public:
  explicit PauseAndMigratePolicy(double pause_time) : pause_time_(pause_time) {
    if (!(pause_time > 0.0)) {
      throw std::invalid_argument("PauseAndMigrate: pause_time must be > 0");
    }
  }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::PauseAndMigrate;
  }
  [[nodiscard]] bool allows_lingering() const override { return false; }

  [[nodiscard]] Decision on_nonidle(const PolicyContext& ctx) const override {
    if (ctx.episode_age + 1e-9 >= pause_time_) {
      return {Decision::Action::Migrate, 0.0};
    }
    return {Decision::Action::Pause, pause_time_ - ctx.episode_age};
  }

 private:
  double pause_time_;
};

}  // namespace

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::LingerLonger:
      return "LL";
    case PolicyKind::LingerForever:
      return "LF";
    case PolicyKind::ImmediateEviction:
      return "IE";
    case PolicyKind::PauseAndMigrate:
      return "PM";
    case PolicyKind::OracleLinger:
      return "LL-oracle";
  }
  throw std::logic_error("to_string: unknown PolicyKind");
}

PolicyKind parse_policy_name(std::string_view name) {
  for (const PolicyKind kind :
       {PolicyKind::LingerLonger, PolicyKind::LingerForever,
        PolicyKind::ImmediateEviction, PolicyKind::PauseAndMigrate,
        PolicyKind::OracleLinger}) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown policy '" + std::string(name) +
                              "' (LL, LF, IE, PM, LL-oracle)");
}

std::unique_ptr<Policy> make_policy(PolicyKind kind, const PolicyParams& params) {
  switch (kind) {
    case PolicyKind::LingerLonger:
      return std::make_unique<LingerLongerPolicy>(params.linger_scale);
    case PolicyKind::LingerForever:
      return std::make_unique<LingerForeverPolicy>();
    case PolicyKind::ImmediateEviction:
      return std::make_unique<ImmediateEvictionPolicy>();
    case PolicyKind::PauseAndMigrate:
      return std::make_unique<PauseAndMigratePolicy>(params.pause_time);
    case PolicyKind::OracleLinger:
      return std::make_unique<OracleLingerPolicy>();
  }
  throw std::logic_error("make_policy: unknown PolicyKind");
}

}  // namespace ll::core
