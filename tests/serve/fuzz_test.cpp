/// Seeded-mutation fuzzing of the serve request parser, the first parser an
/// untrusted client reaches. Valid request lines, fault keys included, are
/// mutated byte- and token-wise; every input must either parse to a
/// scenario that passes validate() and serve's caps, or throw RequestError.
/// A crash, a hang or any other exception is a bug, pinned below once
/// found.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "rng/rng.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace ll::serve {
namespace {

/// Parses one line; a contract violation fails the test, naming the line.
void check(const std::string& line) {
  try {
    const ParsedRequest req = parse_request(line);
    if (req.op != Op::kRun) return;
    // Admitted: valid, and its own params are admitted back unchanged.
    req.scenario.validate(exp::FieldNames::kParams);
    const auto again = exp::ClusterScenario::from_json(
        util::json::parse(req.scenario.to_json()));
    EXPECT_EQ(again, req.scenario) << line;
  } catch (const RequestError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception '" << e.what() << "' for: " << line;
  }
}

const std::vector<std::string>& seed_lines() {
  static const std::vector<std::string> lines = [] {
    exp::ClusterScenario faulty;
    faulty.nodes = 8;
    faulty.closed = 3600.0;
    faulty.mtbf = 900.0;
    faulty.downtime = 60.0;
    faulty.drop = 0.05;
    faulty.checkpoint = 300.0;
    faulty.storm_every = 7200.0;
    faulty.pressure_every = 3600.0;
    return std::vector<std::string>{
        R"({"id": 1, "op": "run", "params": {"policy": "IE", "nodes": 8, )"
        R"("jobs": 16, "demand": 60, "machines": 4, "days": 0.05, )"
        R"("seed": 42}})",
        R"({"id": 2, "op": "run", "params": )" + faulty.to_json() + "}",
        R"({"id": 3, "op": "run", "params": )" +
            exp::ClusterScenario{}.to_json() + "}",
        R"({"id": 4, "op": "run"})",
        R"({"id": 5, "op": "ping"})",
        R"({"id": 6, "op": "stats"})",
    };
  }();
  return lines;
}

/// Tokens spliced into lines: structure, boundary numbers, keys and values.
const std::vector<std::string> kTokens = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\\u0000", "null", "true",
    "0", "-0", "-1", "1", "0.5", "1e-300", "1e999", "-1e999", "4096", "4097",
    "18446744073709551615", "18446744073709551616", "9007199254740993",
    "\"LL\"", "\"PM\"", "\"x\"", "\"params\"", "\"mtbf\"", "\"checkpoint\"",
    "\"storm_every\"", "\"machines\"", "\"days\"", "\"op\"", "\"run\"",
};

std::string mutate(std::string s, rng::Stream& rng) {
  const std::uint64_t edits = 1 + rng.uniform_index(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform_index(s.size() + 1);
    switch (rng.uniform_index(6)) {
      case 0:  // overwrite a byte with any value
        if (at < s.size()) {
          s[at] = static_cast<char>(rng.uniform_index(256));
        }
        break;
      case 1:  // delete a short range
        s.erase(at, rng.uniform_index(8) + 1);
        break;
      case 2:  // splice in a token
      case 3:
        s.insert(at, kTokens[rng.uniform_index(kTokens.size())]);
        break;
      case 4:  // duplicate a short range
        s.insert(at, s.substr(at, rng.uniform_index(16) + 1));
        break;
      case 5: {  // open a deep nest
        const char open = rng.uniform_index(2) ? '[' : '{';
        s.insert(at, std::string(rng.uniform_index(2000) + 1, open));
        break;
      }
    }
  }
  return s;
}

TEST(RequestFuzz, EveryMutatedLineParsesValidOrThrowsRequestError) {
  for (const std::string& line : seed_lines()) check(line);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    rng::Stream rng(seed);
    for (int i = 0; i < 400; ++i) {
      const std::string& base =
          seed_lines()[rng.uniform_index(seed_lines().size())];
      check(mutate(base, rng));
    }
  }
}

TEST(RequestFuzz, PinnedCases) {
  // 64 KiB of '[' (the longest line the server reads by default) is
  // refused, not recursed into until the JSON parser's stack overflows.
  check(std::string(65536, '['));
  check(R"({"id": 1, "op": "run", "params": )" + std::string(65000, '{'));
  check(R"({"id": 1, "op": "run", "params": {"nodes": )" +
        std::string(30000, '[') + "}}");
}

}  // namespace
}  // namespace ll::serve
