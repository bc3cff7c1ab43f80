// lltrace — validate and summarize a Chrome trace-event JSON file written
// by `llsim trace` (or any tool emitting the same subset).
//
//   lltrace <trace.json> [--top=N] [--shard-tracks=OUT.json]
//
// Validation: the document must be an object with a "traceEvents" array;
// every event needs a string "name", a string "ph", and numeric
// "pid"/"tid"; "X" events additionally need numeric "ts" and "dur" >= 0,
// "i" events a numeric "ts". Exit 1 on any violation — CI uses this as the
// well-formedness gate for the tracer's exporter.
//
// Summary: a top-N hot-tag table over the wall-clock track (pid 1) with
// total and *self* time per name — self time excludes time covered by
// events nested inside an event on the same (pid, tid) track, computed by
// the usual sorted-interval stack sweep — plus virtual-time totals for the
// pid 2 track and the instant-event counts.
//
// Sharded traces (`llsim trace --shards K`): "shard:<k>" window spans get
// their own per-shard table and "shard.barrier" instants (arg = imbalance
// wait ns) a barrier-wait summary. --shard-tracks=OUT.json rewrites the
// trace with one Chrome track per shard — shard:<k> spans move to pid 3 /
// tid k+1 (barrier instants to tid 0) so Perfetto renders the window
// timeline per shard instead of per recording thread.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

namespace json = ll::util::json;

struct Span {
  std::string name;
  double pid = 0.0;
  double tid = 0.0;
  double ts = 0.0;
  double dur = 0.0;
};

struct NameStats {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Accumulates self time for one (pid, tid) track: spans sorted by
/// (ts, -dur) nest like a call stack (Chrome "X" events on one thread
/// never partially overlap; ties open the longer span first).
void fold_track(std::vector<Span>& spans, std::map<std::string, NameStats>& by_name) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() &&
           spans[stack.back()].ts + spans[stack.back()].dur <= s.ts) {
      stack.pop_back();
    }
    NameStats& stats = by_name[s.name];
    ++stats.count;
    stats.total_us += s.dur;
    stats.self_us += s.dur;
    if (!stack.empty()) {
      // The enclosing span does not own the time this one covers.
      by_name[spans[stack.back()].name].self_us -= s.dur;
    }
    stack.push_back(i);
  }
}

int fail(const std::string& message) {
  std::cerr << "lltrace: " << message << "\n";
  return 1;
}

/// Parses the k out of "shard:<k>"; -1 when the name is not a shard span.
long shard_index(const std::string& name) {
  constexpr std::string_view kPrefix = "shard:";
  if (name.rfind(kPrefix, 0) != 0 || name.size() == kPrefix.size()) return -1;
  long k = 0;
  for (std::size_t i = kPrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    k = k * 10 + (name[i] - '0');
  }
  return k;
}

/// Re-emits one validated trace event, optionally overriding its track.
/// Only the exporter's known field subset (name/ph/s/pid/tid/ts/dur and
/// args.vt/args.arg) survives the rewrite — lltrace has already validated
/// that this subset is all the event carries meaning in.
void write_event(std::ostream& out, const json::Value& ev, double pid,
                 double tid) {
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  out << "{\"name\":\"" << json::escape(ev.find("name")->as_string())
      << "\",\"ph\":\"" << json::escape(ev.find("ph")->as_string()) << "\"";
  if (const json::Value* s = ev.find("s");
      s && s->kind() == json::Kind::kString) {
    out << ",\"s\":\"" << json::escape(s->as_string()) << "\"";
  }
  out << ",\"pid\":" << num(pid) << ",\"tid\":" << num(tid);
  for (const char* key : {"ts", "dur"}) {
    if (const json::Value* v = ev.find(key);
        v && v->kind() == json::Kind::kNumber) {
      out << ",\"" << key << "\":" << num(v->as_number());
    }
  }
  if (const json::Value* args = ev.find("args");
      args && args->kind() == json::Kind::kObject) {
    out << ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : args->as_object()) {
      if (value.kind() == json::Kind::kNumber) {
        out << (first ? "" : ",") << "\"" << json::escape(key)
            << "\":" << num(value.as_number());
        first = false;
      } else if (value.kind() == json::Kind::kString) {
        out << (first ? "" : ",") << "\"" << json::escape(key) << "\":\""
            << json::escape(value.as_string()) << "\"";
        first = false;
      }
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

int main(int argc, const char** argv) {
  ll::util::Flags flags("lltrace",
                        "Validate and summarize a Chrome trace-event JSON "
                        "file written by `llsim trace`.");
  auto top = flags.add_uint64("top", 12, "rows in the hot-tag table");
  auto shard_tracks = flags.add_string(
      "shard-tracks", "",
      "rewrite the trace to this path with one Chrome track per shard "
      "(shard:<k> spans on pid 3 / tid k+1, barrier instants on tid 0)");
  std::string path;
  try {
    std::vector<const char*> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        rest.push_back(argv[i]);
      } else if (path.empty()) {
        path = arg;
      } else {
        return fail("unexpected positional argument '" + std::string(arg) +
                    "'\n" + flags.usage());
      }
    }
    flags.parse(static_cast<int>(rest.size()), rest.data());
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (path.empty()) return fail("usage: lltrace <trace.json> [--top=N]");

  std::ifstream file(path);
  if (!file) return fail("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();

  json::Value doc;
  try {
    doc = json::parse(buffer.str());
  } catch (const std::exception& e) {
    return fail("invalid JSON: " + std::string(e.what()));
  }
  if (doc.kind() != json::Kind::kObject) {
    return fail("top level is not an object");
  }
  const json::Value* events = doc.find("traceEvents");
  if (!events || events->kind() != json::Kind::kArray) {
    return fail("missing \"traceEvents\" array");
  }

  // Wall spans grouped per (pid, tid) track for the nesting sweep.
  std::map<std::pair<double, double>, std::vector<Span>> wall_tracks;
  std::map<std::string, NameStats> virtual_totals;
  std::map<std::string, std::uint64_t> instants;
  std::size_t span_count = 0;
  std::size_t metadata_count = 0;
  std::uint64_t barrier_count = 0;
  double barrier_wait_ns = 0.0;
  double barrier_max_ns = 0.0;

  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const json::Value& ev = events->as_array()[i];
    const std::string where = "event " + std::to_string(i);
    if (ev.kind() != json::Kind::kObject) {
      return fail(where + " is not an object");
    }
    const auto need = [&](const char* key,
                          json::Kind kind) -> const json::Value* {
      const json::Value* v = ev.find(key);
      if (!v || v->kind() != kind) return nullptr;
      return v;
    };
    const json::Value* name = need("name", json::Kind::kString);
    const json::Value* ph = need("ph", json::Kind::kString);
    const json::Value* pid = need("pid", json::Kind::kNumber);
    const json::Value* tid = need("tid", json::Kind::kNumber);
    if (!name || !ph || !pid || !tid) {
      return fail(where + " lacks name/ph/pid/tid of the required kinds");
    }
    const std::string& phase = ph->as_string();
    if (phase == "M") {
      ++metadata_count;
      continue;
    }
    if (phase == "i") {
      if (!need("ts", json::Kind::kNumber)) {
        return fail(where + " (instant) lacks a numeric ts");
      }
      ++instants[name->as_string()];
      if (name->as_string() == "shard.barrier") {
        // arg carries the window's barrier-imbalance wait in nanoseconds.
        if (const json::Value* args = ev.find("args");
            args && args->kind() == json::Kind::kObject) {
          if (const json::Value* arg = args->find("arg");
              arg && arg->kind() == json::Kind::kNumber) {
            const double ns = arg->as_number();
            ++barrier_count;
            barrier_wait_ns += ns;
            barrier_max_ns = std::max(barrier_max_ns, ns);
          }
        }
      }
      continue;
    }
    if (phase != "X") {
      return fail(where + " has unsupported phase '" + phase + "'");
    }
    const json::Value* ts = need("ts", json::Kind::kNumber);
    const json::Value* dur = need("dur", json::Kind::kNumber);
    if (!ts || !dur) {
      return fail(where + " (complete) lacks numeric ts/dur");
    }
    if (dur->as_number() < 0.0) {
      return fail(where + " has negative dur");
    }
    ++span_count;
    Span span{name->as_string(), pid->as_number(), tid->as_number(),
              ts->as_number(), dur->as_number()};
    if (pid->as_number() == 2.0) {
      NameStats& stats = virtual_totals[span.name];
      ++stats.count;
      stats.total_us += span.dur;
    } else {
      wall_tracks[{span.pid, span.tid}].push_back(std::move(span));
    }
  }

  std::map<std::string, NameStats> wall_totals;
  for (auto& [track, spans] : wall_tracks) fold_track(spans, wall_totals);

  std::cout << path << ": valid Chrome trace — " << span_count << " spans, ";
  std::size_t instant_total = 0;
  for (const auto& [name, count] : instants) instant_total += count;
  std::cout << instant_total << " instants, " << metadata_count
            << " metadata events, " << wall_tracks.size()
            << " wall track(s)\n\n";

  std::vector<std::pair<std::string, NameStats>> ranked(wall_totals.begin(),
                                                        wall_totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us) {
      return a.second.self_us > b.second.self_us;
    }
    return a.first < b.first;
  });
  if (ranked.size() > static_cast<std::size_t>(*top)) {
    ranked.resize(static_cast<std::size_t>(*top));
  }
  ll::util::Table table(
      {"hot tag (wall)", "count", "total ms", "self ms", "events/s"});
  char buf[32];
  const auto ms = [&buf](double us) {
    std::snprintf(buf, sizeof(buf), "%.3f", us / 1000.0);
    return std::string(buf);
  };
  // Events per wall second of *self* time: the tag's processing rate with
  // nested spans' time excluded. Sub-microsecond tags print "-" rather
  // than a rate derived from rounding noise.
  const auto rate = [&buf](const NameStats& stats) {
    if (stats.self_us <= 0.0) return std::string("-");
    std::snprintf(buf, sizeof(buf), "%.0f",
                  static_cast<double>(stats.count) / (stats.self_us / 1e6));
    return std::string(buf);
  };
  for (const auto& [name, stats] : ranked) {
    table.add_row({name, std::to_string(stats.count), ms(stats.total_us),
                   ms(stats.self_us), rate(stats)});
  }
  std::cout << table.render();

  if (!virtual_totals.empty()) {
    ll::util::Table vt({"virtual-time span", "count", "total sim-s"});
    for (const auto& [name, stats] : virtual_totals) {
      std::snprintf(buf, sizeof(buf), "%.3f", stats.total_us / 1e6);
      vt.add_row({name, std::to_string(stats.count), buf});
    }
    std::cout << "\n" << vt.render();
  }
  if (!instants.empty()) {
    ll::util::Table it({"instant", "count"});
    for (const auto& [name, count] : instants) {
      it.add_row({name, std::to_string(count)});
    }
    std::cout << "\n" << it.render();
  }

  // Sharded-engine summary: per-shard window-span totals plus the barrier
  // imbalance recorded by the coordinator's shard.barrier instants.
  std::vector<std::pair<long, NameStats>> shard_rows;
  for (const auto& [name, stats] : wall_totals) {
    const long k = shard_index(name);
    if (k >= 0) shard_rows.emplace_back(k, stats);
  }
  std::sort(shard_rows.begin(), shard_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!shard_rows.empty() || barrier_count > 0) {
    ll::util::Table st({"shard", "windows", "busy ms", "share"});
    double busy_total = 0.0;
    for (const auto& [k, stats] : shard_rows) busy_total += stats.total_us;
    for (const auto& [k, stats] : shard_rows) {
      char share[32];
      std::snprintf(share, sizeof(share), "%.1f%%",
                    busy_total > 0.0 ? 100.0 * stats.total_us / busy_total
                                     : 0.0);
      st.add_row({std::to_string(k), std::to_string(stats.count),
                  ms(stats.total_us), share});
    }
    std::cout << "\n" << st.render();
    if (barrier_count > 0) {
      ll::util::Table bt({"barrier waits", "value"});
      bt.add_row({"barriers", std::to_string(barrier_count)});
      std::snprintf(buf, sizeof(buf), "%.3f", barrier_wait_ns / 1e6);
      bt.add_row({"total wait ms", buf});
      std::snprintf(buf, sizeof(buf), "%.1f",
                    barrier_wait_ns / 1e3 /
                        static_cast<double>(barrier_count));
      bt.add_row({"mean wait us", buf});
      std::snprintf(buf, sizeof(buf), "%.1f", barrier_max_ns / 1e3);
      bt.add_row({"max wait us", buf});
      std::cout << "\n" << bt.render();
    }
  }

  if (!shard_tracks->empty()) {
    std::ofstream rewritten(*shard_tracks, std::ios::trunc);
    if (!rewritten) return fail("cannot open " + *shard_tracks);
    rewritten << "{\"traceEvents\":[\n";
    rewritten << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
                 "\"tid\":0,\"args\":{\"name\":\"shards (re-tracked)\"}}";
    rewritten << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
                 "\"tid\":0,\"args\":{\"name\":\"barriers\"}}";
    for (const auto& [k, stats] : shard_rows) {
      rewritten << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
                   "\"tid\":"
                << (k + 1) << ",\"args\":{\"name\":\"shard " << k << "\"}}";
    }
    for (const json::Value& ev : events->as_array()) {
      const std::string& name = ev.find("name")->as_string();
      const long k = shard_index(name);
      double pid = ev.find("pid")->as_number();
      double tid = ev.find("tid")->as_number();
      if (k >= 0) {
        pid = 3.0;
        tid = static_cast<double>(k + 1);
      } else if (name == "shard.barrier") {
        pid = 3.0;
        tid = 0.0;
      }
      rewritten << ",\n";
      write_event(rewritten, ev, pid, tid);
    }
    rewritten << "\n]}\n";
    std::cout << "\nwrote per-shard tracks to " << *shard_tracks << "\n";
  }
  return 0;
}
