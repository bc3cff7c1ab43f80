// llload — load harness for `llsim serve`.
//
// Opens N connections and drives the NDJSON protocol with a configurable
// pipeline window per connection, so total in-flight requests reach
// connections x pipeline (thousands) from one small process — no
// thread-per-request. The request mix cycles over `--unique` seeds of one
// scenario config, so `--requests` >> `--unique` measures the server's
// content-addressed cache (every seed after its first service is a hit).
//
// Reports client-observed p50/p90/p99 latency, throughput, and the cache
// hit rate taken from the responses' "cache" fields; honors
// {"status":"rejected"} backpressure by retrying after retry_after_ms.
// --min-hit-rate turns the hit rate into an exit code for CI;
// --dump-result writes the (unescaped) sweep JSON served for the base
// seed, which must byte-match `llsim cluster --json` with the same flags:
// the scenario flags are exp::ClusterScenario's field table, and each
// request's params are its to_json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace json = ll::util::json;

struct Mix {
  std::string host;
  int port = 0;
  ll::exp::ClusterScenario scenario;  // every request's; its seed is the base
  std::size_t unique = 16;
};

struct Aggregate {
  std::mutex mu;
  std::vector<double> latencies_s;
  std::uint64_t ok = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t rejected = 0;  // rejection events (each retried)
  std::uint64_t errors = 0;
  std::string base_seed_result;  // first result served for the base seed
};

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection worker: drives `count` requests (seeds cycle through the
/// mix), keeping up to `pipeline` in flight, retrying rejections.
void run_connection(const Mix& mix, std::size_t conn_index, std::size_t count,
                    std::size_t pipeline, Aggregate& agg) {
  const int fd = connect_to(mix.host, mix.port);
  if (fd < 0) {
    std::scoped_lock lock(agg.mu);
    agg.errors += count;
    return;
  }

  struct InFlight {
    std::uint64_t seed;
    Clock::time_point sent;
  };
  std::map<std::uint64_t, InFlight> outstanding;
  struct Retry {
    std::uint64_t seed;
    Clock::time_point not_before;
  };
  std::deque<Retry> retries;
  std::size_t next_request = 0;  // of `count`
  std::size_t completed = 0;
  std::uint64_t next_id = conn_index * 1000000000ull + 1;
  std::string buffer;
  char chunk[65536];

  std::vector<double> latencies;
  latencies.reserve(count);
  std::uint64_t ok = 0, hits = 0, misses = 0, rejected = 0, errors = 0;
  std::string base_result;

  const auto send_request = [&](std::uint64_t seed) -> bool {
    ll::exp::ClusterScenario scenario = mix.scenario;
    scenario.seed = seed;
    if (!send_all(fd, "{\"id\": " + std::to_string(next_id) +
                          ", \"op\": \"run\", \"params\": " +
                          scenario.to_json() + "}\n")) {
      return false;
    }
    outstanding.emplace(next_id, InFlight{seed, Clock::now()});
    ++next_id;
    return true;
  };

  bool dead = false;
  while (completed < count && !dead) {
    // Fill the window: retries whose backoff has passed first, then fresh
    // requests.
    const Clock::time_point now = Clock::now();
    while (outstanding.size() < pipeline && !retries.empty() &&
           retries.front().not_before <= now) {
      const std::uint64_t seed = retries.front().seed;
      retries.pop_front();
      if (!send_request(seed)) {
        dead = true;
        break;
      }
    }
    while (!dead && outstanding.size() < pipeline && next_request < count) {
      const std::uint64_t seed =
          mix.scenario.seed +
          (conn_index + next_request * 7919) % mix.unique;  // scattered mix
      ++next_request;
      if (!send_request(seed)) dead = true;
    }
    if (dead) break;
    if (outstanding.empty()) {
      if (retries.empty()) break;  // nothing left to do
      std::this_thread::sleep_until(retries.front().not_before);
      continue;
    }

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      try {
        const json::Value doc = json::parse(line);
        const json::Value* idv = doc.find("id");
        const json::Value* status = doc.find("status");
        if (!idv || !status) throw std::runtime_error("bad response");
        const std::uint64_t id = idv->as_u64();
        const auto it = outstanding.find(id);
        if (it == outstanding.end()) continue;  // stats/ping echo, ignore
        const std::string& st = status->as_string();
        if (st == "rejected") {
          ++rejected;
          int after_ms = 25;
          if (const json::Value* r = doc.find("retry_after_ms")) {
            after_ms = static_cast<int>(r->as_number());
          }
          retries.push_back(
              Retry{it->second.seed,
                    Clock::now() + std::chrono::milliseconds(after_ms)});
          outstanding.erase(it);
          continue;
        }
        ++completed;
        if (st == "ok") {
          ++ok;
          latencies.push_back(std::chrono::duration<double>(
                                  Clock::now() - it->second.sent)
                                  .count());
          if (const json::Value* cache = doc.find("cache")) {
            (cache->as_string() == "hit" ? hits : misses) += 1;
          }
          if (base_result.empty() && it->second.seed == mix.scenario.seed) {
            if (const json::Value* result = doc.find("result")) {
              base_result = result->as_string();  // parser unescapes
            }
          }
        } else {
          ++errors;
          std::cerr << "llload: server error: " << line << "\n";
        }
        outstanding.erase(it);
      } catch (const std::exception& e) {
        ++errors;
        ++completed;
        std::cerr << "llload: unparseable response: " << e.what() << "\n";
      }
    }
    buffer.erase(0, start);
  }
  if (completed < count) errors += count - completed;
  ::close(fd);

  std::scoped_lock lock(agg.mu);
  agg.ok += ok;
  agg.hits += hits;
  agg.misses += misses;
  agg.rejected += rejected;
  agg.errors += errors;
  agg.latencies_s.insert(agg.latencies_s.end(), latencies.begin(),
                         latencies.end());
  if (agg.base_seed_result.empty()) agg.base_seed_result = base_result;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  ll::util::Flags flags("llload",
                        "Load harness for `llsim serve`: pipelined NDJSON "
                        "requests, latency percentiles, cache hit rate.");
  auto host = flags.add_string("host", "127.0.0.1", "server address");
  auto port = flags.add_int("port", 0, "server port (required)");
  auto connections = flags.add_uint64("connections", 8, "parallel connections");
  auto requests = flags.add_uint64("requests", 1000, "total run requests");
  auto pipeline = flags.add_uint64("pipeline", 64,
                                   "max in-flight requests per connection");
  auto unique = flags.add_uint64("unique", 16,
                                 "distinct seeds in the mix (smaller = more "
                                 "cache hits)");
  // The scenario every request runs; --seed is the mix's base seed.
  const auto read_scenario = ll::exp::ClusterScenario::add_flags(flags);
  auto min_hit_rate = flags.add_double(
      "min-hit-rate", -1.0,
      "exit 1 when the observed hit rate is below this (CI gate)");
  auto dump_result = flags.add_string(
      "dump-result", "",
      "write the sweep JSON served for the base seed to this file");
  auto as_json = flags.add_bool("json", false, "emit the summary as JSON");
  Mix mix;
  try {
    flags.parse(argc, const_cast<const char**>(argv));
    if (*port < 1 || *port > 65535) {
      throw std::invalid_argument("--port is required, in [1, 65535]");
    }
    mix.scenario = read_scenario();
  } catch (const std::exception& e) {
    std::cerr << "llload: " << e.what() << "\n";
    return 2;
  }
  mix.host = *host;
  mix.port = static_cast<int>(*port);
  mix.unique = std::max<std::size_t>(1, static_cast<std::size_t>(*unique));

  const std::size_t conns =
      std::max<std::size_t>(1, static_cast<std::size_t>(*connections));
  const std::size_t total = static_cast<std::size_t>(*requests);
  const std::size_t window =
      std::max<std::size_t>(1, static_cast<std::size_t>(*pipeline));

  Aggregate agg;
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t c = 0; c < conns; ++c) {
    const std::size_t share = total / conns + (c < total % conns ? 1 : 0);
    if (share == 0) continue;
    threads.emplace_back(
        [&mix, c, share, window, &agg] {
          run_connection(mix, c, share, window, agg);
        });
  }
  for (std::thread& t : threads) t.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  std::sort(agg.latencies_s.begin(), agg.latencies_s.end());
  const double p50 = percentile(agg.latencies_s, 0.50) * 1e3;
  const double p90 = percentile(agg.latencies_s, 0.90) * 1e3;
  const double p99 = percentile(agg.latencies_s, 0.99) * 1e3;
  const std::uint64_t classified = agg.hits + agg.misses;
  const double hit_rate =
      classified > 0 ? static_cast<double>(agg.hits) /
                           static_cast<double>(classified)
                     : 0.0;
  const double rps = wall > 0.0 ? static_cast<double>(agg.ok) / wall : 0.0;

  if (*as_json) {
    std::cout << "{\"requests\": " << total << ", \"ok\": " << agg.ok
              << ", \"errors\": " << agg.errors
              << ", \"rejected\": " << agg.rejected
              << ", \"cache_hits\": " << agg.hits
              << ", \"cache_misses\": " << agg.misses << ", \"hit_rate\": "
              << hit_rate << ", \"wall_s\": " << wall
              << ", \"throughput_rps\": " << rps << ", \"p50_ms\": " << p50
              << ", \"p90_ms\": " << p90 << ", \"p99_ms\": " << p99 << "}\n";
  } else {
    std::cout << "llload: " << agg.ok << "/" << total << " ok, "
              << agg.errors << " errors, " << agg.rejected
              << " rejections (retried)\n"
              << "llload: cache " << agg.hits << " hits / " << agg.misses
              << " misses (hit rate " << hit_rate << ")\n"
              << "llload: " << rps << " req/s over " << wall << " s; latency"
              << " p50 " << p50 << " ms, p90 " << p90 << " ms, p99 " << p99
              << " ms\n";
  }

  if (!dump_result->empty()) {
    if (agg.base_seed_result.empty()) {
      std::cerr << "llload: no result observed for the base seed; nothing "
                   "to dump\n";
      return 1;
    }
    std::ofstream f(*dump_result, std::ios::binary);
    f << agg.base_seed_result;
  }
  if (agg.errors > 0) return 1;
  if (*min_hit_rate >= 0.0 && hit_rate < *min_hit_rate) {
    std::cerr << "llload: hit rate " << hit_rate << " below required "
              << *min_hit_rate << "\n";
    return 1;
  }
  return 0;
}
