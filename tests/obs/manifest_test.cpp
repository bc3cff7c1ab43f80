#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "des/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/json.hpp"

namespace ll::obs {
namespace {

constexpr std::string_view kSchema = R"({
  "required": {
    "tool": "string",
    "version": "string",
    "seed": "number",
    "config": "object",
    "metrics": "array"
  }
})";

RunManifest sample_manifest() {
  RunManifest m;
  m.tool = "llsim cluster";
  m.version = "abc1234";
  m.seed = 1998;
  m.config = {{"policy", "LL"}, {"nodes", "8"}};
  MetricRegistry reg;
  reg.counter("jobs").add(3);
  m.metrics = reg.snapshot(0.0);
  return m;
}

std::string render(const RunManifest& m) {
  std::ostringstream out;
  write_manifest_json(m, out);
  return out.str();
}

TEST(Manifest, WritesParseableJsonWithAllSections) {
  RunManifest m = sample_manifest();
  des::Simulation sim;
  EventLoopProfiler prof;
  sim.set_observer(&prof);
  sim.schedule_at(1.0, [] {}, 7);
  sim.run();
  m.profile = prof.snapshot(sim);

  const auto doc = util::json::parse(render(m));
  EXPECT_EQ(doc.find("tool")->as_string(), "llsim cluster");
  EXPECT_EQ(doc.find("version")->as_string(), "abc1234");
  EXPECT_DOUBLE_EQ(doc.find("seed")->as_number(), 1998.0);
  const auto* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("policy")->as_string(), "LL");
  EXPECT_EQ(config->find("nodes")->as_string(), "8");
  ASSERT_EQ(doc.find("metrics")->kind(), util::json::Kind::kArray);
  const auto* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_DOUBLE_EQ(profile->find("total_fired")->as_number(), 1.0);
}

TEST(Manifest, ProfileSectionIsOptional) {
  const auto doc = util::json::parse(render(sample_manifest()));
  EXPECT_EQ(doc.find("profile"), nullptr);
}

TEST(Manifest, ValidatesAgainstSchema) {
  EXPECT_EQ(validate_manifest(render(sample_manifest()), kSchema), "");
}

TEST(Manifest, MissingKeyFailsValidation) {
  RunManifest m = sample_manifest();
  std::string text = render(m);
  // Strip the "seed" member from the rendered document.
  const auto pos = text.find("\"seed\"");
  ASSERT_NE(pos, std::string::npos);
  const auto end = text.find(',', pos);
  text.erase(pos, end - pos + 1);
  const std::string error = validate_manifest(text, kSchema);
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST(Manifest, KindMismatchFailsValidation) {
  constexpr std::string_view bad =
      R"({"tool": 5, "version": "v", "seed": 1, "config": {}, "metrics": []})";
  const std::string error = validate_manifest(bad, kSchema);
  EXPECT_NE(error.find("tool"), std::string::npos) << error;
  EXPECT_NE(error.find("number"), std::string::npos) << error;
}

TEST(Manifest, GoodputFieldsWrittenWhenSet) {
  RunManifest m = sample_manifest();
  m.goodput = 0.875;
  m.work_lost = 42.5;
  const auto doc = util::json::parse(render(m));
  EXPECT_DOUBLE_EQ(doc.find("goodput")->as_number(), 0.875);
  EXPECT_DOUBLE_EQ(doc.find("work_lost")->as_number(), 42.5);
  // Absent when unset (fault-free tools keep their old shape).
  const auto plain = util::json::parse(render(sample_manifest()));
  EXPECT_EQ(plain.find("goodput"), nullptr);
  EXPECT_EQ(plain.find("work_lost"), nullptr);
}

TEST(Manifest, OptionalSchemaKeysCheckedOnlyWhenPresent) {
  constexpr std::string_view schema = R"({
    "required": {
      "tool": "string",
      "version": "string",
      "seed": "number",
      "config": "object",
      "metrics": "array"
    },
    "optional": {
      "goodput": "number",
      "work_lost": "number"
    }
  })";
  // Absent optional keys: valid.
  EXPECT_EQ(validate_manifest(render(sample_manifest()), schema), "");
  // Present with the right kind: valid.
  RunManifest m = sample_manifest();
  m.goodput = 0.9;
  m.work_lost = 1.0;
  EXPECT_EQ(validate_manifest(render(m), schema), "");
  // Present with the wrong kind: rejected.
  std::string text = render(m);
  const auto pos = text.find("\"goodput\": ");
  ASSERT_NE(pos, std::string::npos);
  const auto value_end = text.find_first_of(",\n", pos);
  ASSERT_NE(value_end, std::string::npos);
  text.replace(pos, value_end - pos, "\"goodput\": \"high\"");
  const std::string error = validate_manifest(text, schema);
  EXPECT_NE(error.find("goodput"), std::string::npos) << error;
}

TEST(Manifest, TraceSectionWrittenWhenSet) {
  RunManifest m = sample_manifest();
  TraceStats trace;
  trace.tracer_recorded = 5000;
  trace.tracer_dropped = 904;
  m.trace = trace;
  const auto doc = util::json::parse(render(m));
  const auto* section = doc.find("trace");
  ASSERT_NE(section, nullptr);
  EXPECT_DOUBLE_EQ(section->find("tracer_recorded")->as_number(), 5000.0);
  EXPECT_DOUBLE_EQ(section->find("tracer_dropped")->as_number(), 904.0);
  // Absent when unset (trace-free tools keep their old shape).
  EXPECT_EQ(util::json::parse(render(sample_manifest())).find("trace"),
            nullptr);
}

TEST(Manifest, TraceSectionValidatesAsOptionalObject) {
  constexpr std::string_view schema = R"({
    "required": {
      "tool": "string",
      "version": "string",
      "seed": "number",
      "config": "object",
      "metrics": "array"
    },
    "optional": {
      "trace": "object"
    }
  })";
  EXPECT_EQ(validate_manifest(render(sample_manifest()), schema), "");
  RunManifest m = sample_manifest();
  m.trace = TraceStats{};
  EXPECT_EQ(validate_manifest(render(m), schema), "");
}

TEST(Manifest, MalformedSchemaReportsError) {
  EXPECT_NE(validate_manifest(render(sample_manifest()), R"({"nope": 1})"),
            "");
}

TEST(Manifest, ConfigValuesAreEscaped) {
  RunManifest m = sample_manifest();
  m.config.emplace_back("note", "a \"quoted\" value\n");
  const auto doc = util::json::parse(render(m));
  EXPECT_EQ(doc.find("config")->find("note")->as_string(),
            "a \"quoted\" value\n");
}

TEST(Manifest, GitDescribeNeverEmpty) {
  EXPECT_FALSE(current_git_describe().empty());
}

}  // namespace
}  // namespace ll::obs
