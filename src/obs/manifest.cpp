#include "obs/manifest.hpp"

#include <cstdio>
#include <ostream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace ll::obs {

void write_manifest_json(const RunManifest& manifest, std::ostream& out) {
  out << "{\n  \"tool\": \"" << util::json::escape(manifest.tool)
      << "\",\n  \"version\": \"" << util::json::escape(manifest.version)
      << "\",\n  \"seed\": " << manifest.seed << ",\n  \"config\": {";
  for (std::size_t i = 0; i < manifest.config.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n    \"" << util::json::escape(manifest.config[i].first)
        << "\": \"" << util::json::escape(manifest.config[i].second) << "\"";
  }
  out << (manifest.config.empty() ? "}" : "\n  }");
  if (manifest.goodput) {
    out << ",\n  \"goodput\": " << util::format("%.17g", *manifest.goodput);
  }
  if (manifest.work_lost) {
    out << ",\n  \"work_lost\": "
        << util::format("%.17g", *manifest.work_lost);
  }
  if (manifest.trace) {
    const TraceStats& t = *manifest.trace;
    out << ",\n  \"trace\": {\"tracer_recorded\": " << t.tracer_recorded
        << ", \"tracer_dropped\": " << t.tracer_dropped << "}";
  }
  if (manifest.shards) {
    const ShardSection& s = *manifest.shards;
    out << ",\n  \"shards\": {\"count\": " << s.count
        << ", \"windows\": " << s.windows
        << ", \"mailbox_sent\": " << s.mailbox_sent
        << ", \"mailbox_delivered\": " << s.mailbox_delivered
        << ", \"max_barrier_wait_ns\": " << s.max_barrier_wait_ns << "}";
  }
  out << ",\n  \"metrics\": ";
  write_samples_json(manifest.metrics, out);
  if (manifest.profile) {
    out << ",\n  \"profile\": ";
    EventLoopProfiler::write_json(*manifest.profile, out);
  }
  out << "\n}\n";
}

std::string current_git_describe() {
  static const std::string cached = [] {
    std::string desc = "unknown";
    // popen keeps this dependency-free; any failure degrades to "unknown".
    if (FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null",
                             "r")) {
      char buf[256];
      std::string out;
      while (std::fgets(buf, sizeof(buf), pipe)) out += buf;
      const int rc = ::pclose(pipe);
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
      if (rc == 0 && !out.empty()) desc = out;
    }
    return desc;
  }();
  return cached;
}

std::string validate_manifest(std::string_view manifest_text,
                              std::string_view schema_text) {
  using util::json::Kind;
  using util::json::Value;
  Value manifest;
  Value schema;
  try {
    manifest = util::json::parse(manifest_text);
  } catch (const std::exception& e) {
    return std::string("manifest does not parse: ") + e.what();
  }
  try {
    schema = util::json::parse(schema_text);
  } catch (const std::exception& e) {
    return std::string("schema does not parse: ") + e.what();
  }
  if (manifest.kind() != Kind::kObject) return "manifest is not an object";
  if (schema.kind() != Kind::kObject) return "schema is not an object";
  const Value* required = schema.find("required");
  if (!required || required->kind() != Kind::kObject) {
    return "schema has no \"required\" object";
  }
  for (const auto& [key, want] : required->as_object()) {
    if (want.kind() != Kind::kString) {
      return "schema \"required\" value for '" + key + "' is not a string";
    }
    const Value* got = manifest.find(key);
    if (!got) return "manifest missing required key '" + key + "'";
    const std::string_view want_kind = want.as_string();
    if (Value::kind_name(got->kind()) != want_kind) {
      return "manifest key '" + key + "' has kind '" +
             std::string(Value::kind_name(got->kind())) + "', schema wants '" +
             std::string(want_kind) + "'";
    }
  }
  if (const Value* optional = schema.find("optional")) {
    if (optional->kind() != Kind::kObject) {
      return "schema \"optional\" is not an object";
    }
    for (const auto& [key, want] : optional->as_object()) {
      if (want.kind() != Kind::kString) {
        return "schema \"optional\" value for '" + key + "' is not a string";
      }
      const Value* got = manifest.find(key);
      if (!got) continue;
      const std::string_view want_kind = want.as_string();
      if (Value::kind_name(got->kind()) != want_kind) {
        return "manifest key '" + key + "' has kind '" +
               std::string(Value::kind_name(got->kind())) +
               "', schema wants '" + std::string(want_kind) + "'";
      }
    }
  }
  return {};
}

}  // namespace ll::obs
