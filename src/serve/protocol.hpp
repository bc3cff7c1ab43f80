#pragma once

/// \file protocol.hpp
/// The `llsim serve` wire protocol: newline-delimited JSON over TCP, one
/// request object per line in, one response object per line out.
///
/// Requests:
///   {"id": 7, "op": "run", "params": {"policy": "IE", "reps": 3, ...}}
///   {"id": 8, "op": "ping"}
///   {"id": 9, "op": "stats"}
///
/// Responses (always a single line, `id` echoed so clients may pipeline):
///   {"id": 7, "status": "ok", "cache": "miss", "key": "<digest>:<seed>",
///    "result": "<sweep JSON, escaped into one string>"}
///   {"id": 8, "status": "ok", "pong": true}
///   {"id": 9, "status": "ok", "stats": {...}}
///   {"id": 7, "status": "error", "error": "<message>"}
///   {"id": 7, "status": "rejected", "error": "queue full",
///    "retry_after_ms": 25}
///
/// The sweep result rides as an escaped *string*, not an embedded object:
/// exp::to_json is multi-line by contract (its bytes are the determinism
/// artifact golden tests pin), and NDJSON framing requires one line per
/// response. Clients unescape the string to recover the exact bytes
/// `llsim cluster --json` prints for the same fields (one code path,
/// exp::ClusterScenario; tests/cli and tests/serve pin it).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/scenario.hpp"

namespace ll::serve {

enum class Op { kRun, kPing, kStats };

struct ParsedRequest {
  std::uint64_t id = 0;
  Op op = Op::kRun;
  ScenarioRequest scenario;  // meaningful for kRun only
};

/// Parse failure; carries the request id when one was recovered before the
/// failure, so the error response can still be correlated.
class RequestError : public std::runtime_error {
 public:
  RequestError(std::uint64_t id, const std::string& message)
      : std::runtime_error(message), id_(id) {}
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Parses one request line (without the trailing newline). Throws
/// RequestError on malformed JSON, unknown ops, or invalid params.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// The cache key's wire rendering: "<16-hex config digest>:<seed>".
[[nodiscard]] std::string format_key(std::uint64_t config_digest,
                                     std::uint64_t seed);

// Response serializers. Each returns one complete line ending in '\n'.
[[nodiscard]] std::string run_response(std::uint64_t id, bool cache_hit,
                                       const std::string& key,
                                       const std::string& result_json);
[[nodiscard]] std::string pong_response(std::uint64_t id);
/// `stats_object` must already be a single-line JSON object.
[[nodiscard]] std::string stats_response(std::uint64_t id,
                                         const std::string& stats_object);
[[nodiscard]] std::string error_response(std::uint64_t id,
                                         const std::string& message);
[[nodiscard]] std::string rejected_response(std::uint64_t id,
                                            int retry_after_ms);

}  // namespace ll::serve
