#pragma once

/// \file scenario.hpp
/// The serving layer's scenario model is exp::ClusterScenario, the one
/// scenario definition `llsim cluster` and `llsim trace` run as well. A run
/// request's params are parsed by its from_json, keyed by its
/// config_digest, and answered with its run(): the same code path that
/// prints `llsim cluster --json`, so served and offline bytes agree by
/// construction.

#include "core/policy.hpp"
#include "exp/scenario.hpp"

namespace ll::serve {

using ScenarioRequest = exp::ClusterScenario;

/// The wire policy names are the CLI's (LL, LF, IE, PM, LL-oracle).
using core::parse_policy_name;

}  // namespace ll::serve
