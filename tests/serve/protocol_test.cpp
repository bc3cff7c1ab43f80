#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace ll::serve {
namespace {

namespace json = util::json;

TEST(Protocol, ParsesRunRequestWithParams) {
  const ParsedRequest req = parse_request(
      R"({"id": 9, "op": "run", "params": {"policy": "IE", "nodes": 8,)"
      R"( "seed": 123, "reps": 2}})");
  EXPECT_EQ(req.id, 9u);
  EXPECT_EQ(req.op, Op::kRun);
  EXPECT_EQ(req.scenario.policy, core::PolicyKind::ImmediateEviction);
  EXPECT_EQ(req.scenario.nodes, 8u);
  EXPECT_EQ(req.scenario.seed, 123u);
  EXPECT_EQ(req.scenario.reps, 2u);
  // Unspecified fields keep the CLI defaults.
  EXPECT_EQ(req.scenario.jobs, 128u);
  EXPECT_DOUBLE_EQ(req.scenario.demand, 600.0);
}

TEST(Protocol, RunWithoutParamsIsAllDefaults) {
  const ParsedRequest req = parse_request(R"({"id": 1, "op": "run"})");
  EXPECT_EQ(req.scenario.config_digest(), ScenarioRequest{}.config_digest());
}

TEST(Protocol, MalformedJsonThrowsRequestError) {
  EXPECT_THROW((void)parse_request("{nope"), RequestError);
  EXPECT_THROW((void)parse_request("[1,2]"), RequestError);
  EXPECT_THROW((void)parse_request(""), RequestError);
}

TEST(Protocol, ErrorsAfterIdParseCarryTheId) {
  try {
    (void)parse_request(R"({"id": 4, "op": "explode"})");
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.id(), 4u);
  }
  try {
    (void)parse_request(R"({"id": 5, "op": "run", "params": {"nodes": 0}})");
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.id(), 5u);
  }
}

TEST(Protocol, UnknownParamKeyIsRejected) {
  EXPECT_THROW(
      (void)parse_request(R"({"id": 1, "op": "run", "params": {"node": 8}})"),
      RequestError);
}

TEST(Protocol, PoolSizeIsCappedInMachineDays) {
  // Each field within its own cap, but together 1024 x 32 machine-days:
  // a ~22.6 GB trace pool for one request.
  EXPECT_THROW((void)parse_request(R"({"id": 1, "op": "run", "params": )"
                                   R"({"machines": 1024, "days": 32}})"),
               RequestError);
  // The default days (1) put 1024 machines past the cap too.
  EXPECT_THROW((void)parse_request(
                   R"({"id": 2, "op": "run", "params": {"machines": 1024}})"),
               RequestError);
  // At the cap, and a long trace over few machines, are admitted.
  EXPECT_EQ(parse_request(R"({"id": 3, "op": "run", "params": )"
                          R"({"machines": 256, "days": 1}})")
                .scenario.machines,
            256u);
  EXPECT_DOUBLE_EQ(parse_request(R"({"id": 4, "op": "run", "params": )"
                                 R"({"machines": 8, "days": 32}})")
                       .scenario.days,
                   32.0);
}

TEST(Protocol, ServedRangesKeepTheirFloors) {
  // A 1e-6-day synthetic trace holds no 2-s sample: refused before its
  // pool of empty traces is built, however many machines it asks for.
  for (const char* params :
       {R"({"days": 1e-6})", R"({"machines": 1024, "days": 1e-6})",
        R"({"days": 0.0009})", R"({"demand": 1e-7})"}) {
    EXPECT_THROW((void)parse_request(std::string(R"({"id": 1, "op": "run", )"
                                                 R"("params": )") +
                                     params + "}"),
                 RequestError)
        << params;
  }
  const ParsedRequest floor = parse_request(
      R"({"id": 2, "op": "run", "params": {"days": 0.001, "demand": 1e-6}})");
  EXPECT_DOUBLE_EQ(floor.scenario.days, 1e-3);
  EXPECT_DOUBLE_EQ(floor.scenario.demand, 1e-6);
}

TEST(Protocol, FaultPlanIsCappedInExpectedArrivals) {
  // 64 nodes at a 300-s per-node MTBF expect 18,432 crashes over the
  // one-day horizon: over the 1e4 a served plan may expect per category.
  EXPECT_THROW((void)parse_request(
                   R"({"id": 1, "op": "run", "params": {"mtbf": 300}})"),
               RequestError);
  EXPECT_THROW(
      (void)parse_request(
          R"({"id": 2, "op": "run", "params": {"pressure_every": 8}})"),
      RequestError);
  // The CI serve smoke's plan (8 nodes, 900 s) expects 768.
  const ParsedRequest ok = parse_request(
      R"({"id": 3, "op": "run", "params": {"nodes": 8, "mtbf": 900, )"
      R"("checkpoint": 300}})");
  EXPECT_DOUBLE_EQ(ok.scenario.mtbf, 900.0);
  EXPECT_DOUBLE_EQ(ok.scenario.checkpoint, 300.0);
  EXPECT_NE(ok.scenario.config_digest(), ScenarioRequest{}.config_digest());
}

TEST(Protocol, ConfigDigestIgnoresSeedAndSeparatesConfigs) {
  ScenarioRequest a;
  ScenarioRequest b;
  b.seed = 999;
  EXPECT_EQ(a.config_digest(), b.config_digest());
  b.nodes = 65;
  EXPECT_NE(a.config_digest(), b.config_digest());
}

TEST(Protocol, ResponsesAreSingleParseableLines) {
  for (const std::string& line :
       {run_response(1, true, "abc:42", "{\n  \"x\": 1\n}\n"),
        pong_response(2), stats_response(3, "{\"ok\": 1}"),
        error_response(4, "bad \"quote\""), rejected_response(5, 25)}) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    EXPECT_NO_THROW((void)json::parse(line)) << line;
  }
}

TEST(Protocol, RunResponseRoundTripsResultBytes) {
  const std::string sweep = "{\n  \"name\": \"cluster\",\n  \"x\": [1,2]\n}\n";
  const std::string line = run_response(7, false, "k:1", sweep);
  const json::Value doc = json::parse(line);
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_EQ(doc.find("cache")->as_string(), "miss");
  EXPECT_EQ(doc.find("result")->as_string(), sweep);  // exact bytes back
}

TEST(Protocol, RejectedResponseCarriesRetryAfter) {
  const json::Value doc = json::parse(rejected_response(6, 40));
  EXPECT_EQ(doc.find("status")->as_string(), "rejected");
  EXPECT_EQ(doc.find("retry_after_ms")->as_u64(), 40u);
}

TEST(Protocol, FormatKeyIsHexDigestColonSeed) {
  EXPECT_EQ(format_key(0xabcULL, 7), "0000000000000abc:7");
}

}  // namespace
}  // namespace ll::serve
