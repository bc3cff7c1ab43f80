/// \file serve_workload.cpp
/// serve_mix: `run` requests to an in-process serve::Server over loopback
/// TCP. One client thread drives nproc connections in a closed loop: a
/// connection sends its next request only after the reply to its last one.
/// About four in five requests repeat a hot key set warmed during setup
/// (cache hits); the rest are fresh keys (misses), each paying a trace-pool
/// build and a simulation.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/pool_cache.hpp"
#include "rng/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/scenario.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "verify/digest.hpp"
#include "workloads.hpp"

namespace llbench {
namespace {

namespace exp = ll::exp;
namespace json = ll::util::json;
namespace serve = ll::serve;
namespace verify = ll::verify;

// Nominal requests per second of the timed phase (measured on a 4-thread
// x86-64 host), and the requests a smoke run makes.
constexpr double kServeOpsPerSecond = 200.0;
constexpr std::size_t kMinOps = 20;
constexpr std::size_t kSmokeOps = 40;  // also the pinned prefix

constexpr std::size_t kHotKeys = 8;
constexpr std::size_t kMissEvery = 5;  // four in five requests are hits
constexpr std::array<const char*, 4> kPolicies{"LL", "LF", "IE", "PM"};

// Every key is a 64-node scenario over a small pool (4 machines x 6 h), so
// the pools a miss builds stay small however many the cache holds.
constexpr std::size_t kNodes = 64;
constexpr std::size_t kMachines = 4;
constexpr double kDays = 0.25;
constexpr std::size_t kOpenJobs = 96;
constexpr std::size_t kClosedJobs = 64;
constexpr double kClosedSeconds = 3600.0;
constexpr int kReplyTimeoutMs = 120000;
constexpr std::size_t kTimedMisses = 64;

struct Request {
  serve::ScenarioRequest scenario;
  std::string key;  ///< "<config digest>:<seed>", the server's cache key
};

Request make_request(std::size_t policy, bool closed, std::uint64_t seed) {
  Request r;
  r.scenario.policy = serve::parse_policy_name(kPolicies.at(policy));
  r.scenario.nodes = kNodes;
  r.scenario.jobs = closed ? kClosedJobs : kOpenJobs;
  r.scenario.machines = kMachines;
  r.scenario.days = kDays;
  r.scenario.closed = closed ? kClosedSeconds : 0.0;
  r.scenario.seed = seed;
  r.key = serve::format_key(r.scenario.config_digest(), seed);
  return r;
}

std::string request_line(std::size_t id, const serve::ScenarioRequest& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"id\": %zu, \"op\": \"run\", \"params\": {\"policy\": "
                "\"%s\", \"nodes\": %zu, \"jobs\": %zu, \"demand\": %.17g, "
                "\"machines\": %zu, \"days\": %.17g, \"closed\": %.17g, "
                "\"pause\": %.17g, \"reps\": %zu, \"seed\": %llu}}\n",
                id, std::string(ll::core::to_string(s.policy)).c_str(),
                s.nodes, s.jobs, s.demand, s.machines, s.days, s.closed,
                s.pause, s.reps, static_cast<unsigned long long>(s.seed));
  return buf;
}

std::vector<Request> hot_keys(std::uint64_t seed) {
  std::vector<Request> hot;
  for (std::size_t h = 0; h < kHotKeys; ++h) {
    hot.push_back(make_request(h % kPolicies.size(), h >= kHotKeys / 2,
                               op_seed(seed, 1, h)));
  }
  return hot;
}

/// The fixed request sequence, a pure function of the seed (a shorter
/// run's requests are a prefix of a longer run's). Every fifth request is a
/// fresh key, cycling through the policies, open then closed; the others
/// repeat a hot key drawn at random.
std::vector<Request> request_mix(std::uint64_t seed, std::size_t n,
                                 const std::vector<Request>& hot) {
  ll::rng::Stream mix = ll::rng::Stream(seed).fork("serve-mix");
  std::vector<Request> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kMissEvery != kMissEvery - 1) {
      requests.push_back(hot[mix.uniform_index(hot.size())]);
      continue;
    }
    const std::size_t kind = (i / kMissEvery) % (2 * kPolicies.size());
    requests.push_back(make_request(kind % kPolicies.size(),
                                    kind >= kPolicies.size(),
                                    op_seed(seed, 2, i)));
  }
  return requests;
}

struct Reply {
  bool ok = false;  ///< status "ok" with a result
  bool hit = false;
  std::string status;
  std::string result;  ///< the sweep JSON bytes, until filed by key
  double rtt_ms = 0.0;
};

/// The bytes of the first ok reply for each key; every later reply for the
/// key is compared with them as it arrives and then dropped, so the client
/// holds one result per key, not one per request.
using ResultsByKey = std::map<std::string, std::string>;

Reply parse_reply(const std::string& line, std::size_t expected_id) {
  Reply reply;
  try {
    const json::Value v = json::parse(line);
    const json::Value* status = v.find("status");
    const json::Value* id = v.find("id");
    if (status == nullptr || status->kind() != json::Kind::kString) {
      reply.status = "reply without status";
    } else if (id == nullptr || id->as_u64() != expected_id) {
      reply.status = "reply for another request";
    } else {
      reply.status = status->as_string();
    }
    const json::Value* cache = v.find("cache");
    const json::Value* result = v.find("result");
    if (reply.status == "ok" && cache != nullptr && result != nullptr) {
      reply.ok = true;
      reply.hit = cache->as_string() == "hit";
      reply.result = result->as_string();
    }
  } catch (const std::exception& e) {
    reply.status = std::string("unparseable reply: ") + e.what();
  }
  return reply;
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

/// One client thread, several connections, at most one request in flight
/// on each.
class ClosedLoopClient {
 public:
  ClosedLoopClient(int port, std::size_t connections) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    try {
      for (std::size_t c = 0; c < connections; ++c) {
        conns_.emplace_back().fd = ::socket(AF_INET, SOCK_STREAM, 0);
        const int fd = conns_.back().fd;
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) != 0) {
          throw std::runtime_error("serve_mix: cannot connect to the server");
        }
      }
    } catch (...) {
      close_all();
      throw;
    }
  }
  ~ClosedLoopClient() { close_all(); }
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

  /// Sends every request (request i carries id i) and returns the replies
  /// by index, filing their results in `results`. Throws when the server
  /// stops answering.
  std::vector<Reply> run(const std::vector<Request>& requests,
                         ResultsByKey& results, obs::Tracer* tracer) {
    std::vector<Reply> replies(requests.size());
    const std::uint32_t op_label =
        tracer ? tracer->label("op/serve_mix") : 0;
    std::size_t next = 0;
    std::size_t done = 0;
    const auto send_next = [&](Conn& c) {
      c.in_flight = kIdle;
      if (next == requests.size()) return;
      c.in_flight = next++;
      c.sent = Clock::now();
      if (tracer) c.sent_ns = tracer->now_ns();
      if (!send_all(c.fd, request_line(c.in_flight,
                                       requests[c.in_flight].scenario))) {
        throw std::runtime_error("serve_mix: send failed");
      }
    };
    for (Conn& c : conns_) send_next(c);

    std::vector<pollfd> fds;
    std::vector<Conn*> polled;
    std::string chunk(1 << 16, '\0');
    while (done < requests.size()) {
      fds.clear();
      polled.clear();
      for (Conn& c : conns_) {
        if (c.in_flight == kIdle) continue;
        fds.push_back(pollfd{c.fd, POLLIN, 0});
        polled.push_back(&c);
      }
      const int ready = ::poll(fds.data(), fds.size(), kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) throw std::runtime_error("serve_mix: no reply in time");
      for (std::size_t p = 0; p < fds.size(); ++p) {
        if (fds[p].revents == 0) continue;
        Conn& c = *polled[p];
        const ssize_t n = ::recv(c.fd, chunk.data(), chunk.size(), 0);
        if (n <= 0) throw std::runtime_error("serve_mix: connection closed");
        c.buffer.append(chunk.data(), static_cast<std::size_t>(n));
        std::size_t eol = 0;
        while ((eol = c.buffer.find('\n')) != std::string::npos) {
          if (c.in_flight == kIdle) {
            throw std::runtime_error("serve_mix: unrequested reply");
          }
          Reply reply = parse_reply(c.buffer.substr(0, eol), c.in_flight);
          c.buffer.erase(0, eol + 1);
          reply.rtt_ms = ms_between(c.sent, Clock::now());
          if (tracer) {
            tracer->wall_span(op_label, c.sent_ns, 0.0, c.in_flight);
          }
          if (reply.ok) file_result(results, requests[c.in_flight].key, reply);
          replies[c.in_flight] = std::move(reply);
          ++done;
          send_next(c);
        }
      }
    }
    return replies;
  }

 private:
  static void file_result(ResultsByKey& results, const std::string& key,
                          Reply& reply) {
    const auto [it, first] = results.try_emplace(key, std::move(reply.result));
    if (!first && it->second != reply.result) {
      reply.ok = false;
      reply.status = "differs from an earlier reply for its key";
    }
    reply.result = std::string();
  }

  void close_all() {
    for (const Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  struct Conn {
    int fd = -1;
    std::string buffer;
    std::size_t in_flight = kIdle;
    Clock::time_point sent;
    std::uint64_t sent_ns = 0;
  };
  std::vector<Conn> conns_;
};

/// A started server on a benchmark-owned runner, with a connected client.
struct Service {
  std::unique_ptr<OwnedRunner> runner;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<ClosedLoopClient> client;

  void stop() {
    client.reset();
    if (server) server->shutdown();
    server.reset();
    runner.reset();
  }
};

/// What the offline engine returns for one key.
struct Offline {
  std::string result;
  std::string error;
};

/// Runs ScenarioRequest::run(nullptr) for every distinct key on an nproc
/// runner: the bytes every reply for that key must equal.
std::map<std::string, Offline> run_offline(const std::vector<Request>& keys,
                                           obs::Tracer* tracer) {
  std::map<std::string, Offline> out;
  std::vector<std::function<void()>> tasks;
  for (const Request& r : keys) {
    const auto [it, first] = out.try_emplace(r.key);
    if (!first) continue;
    Offline* o = &it->second;
    const serve::ScenarioRequest* s = &r.scenario;
    tasks.emplace_back([o, s, tracer] {
      try {
        Span span(tracer, "serve/ScenarioRequest::run", s->seed);
        o->result = s->run(nullptr);
      } catch (const std::exception& e) {
        o->error = e.what();
      }
    });
  }
  util::TaskRunner(nproc()).run(std::move(tasks));
  return out;
}

/// A miss's work, measured outside the server one key at a time.
struct MissCost {
  double build_ms = 0.0;     ///< its pool, built on a private cache
  double simulate_ms = 0.0;  ///< ScenarioRequest::run with the pool cached
};

/// Costs of the first kTimedMisses distinct miss keys (serial, so the
/// numbers are uncontended).
std::map<std::string, MissCost> time_misses(
    const std::vector<Request>& requests, const std::vector<Reply>& replies,
    obs::Tracer* tracer) {
  std::map<std::string, MissCost> costs;
  for (std::size_t i = 0; i < requests.size() && costs.size() < kTimedMisses;
       ++i) {
    if (!replies[i].ok || replies[i].hit) continue;
    const serve::ScenarioRequest& s = requests[i].scenario;
    MissCost& cost = costs[requests[i].key];
    const double hours = s.days * 24.0;
    {
      exp::TracePoolCache local;
      Span span(tracer, "trace/TracePoolCache::standard", s.machines);
      const Clock::time_point t0 = Clock::now();
      (void)local.standard(s.machines, hours, s.seed + 1);
      cost.build_ms = ms_between(t0, Clock::now());
    }
    (void)exp::TracePoolCache::shared().standard(s.machines, hours,
                                                 s.seed + 1);
    Span span(tracer, "serve/ScenarioRequest::run", i);
    const Clock::time_point t0 = Clock::now();
    (void)s.run(nullptr);
    cost.simulate_ms = ms_between(t0, Clock::now());
  }
  return costs;
}

}  // namespace

Pass run_serve_mix(const Options& options, std::size_t setup_reps,
                   obs::Tracer* tracer) {
  Pass pass;
  const std::size_t n = op_count(options, kServeOpsPerSecond, kMinOps,
                                 kSmokeOps);
  const std::vector<Request> hot = hot_keys(options.seed);
  const std::vector<Request> requests = request_mix(options.seed, n, hot);

  PoolWatch pools;
  Service service;
  repeat_setup(
      pass, setup_reps,
      [&] {
        pools.mark();
        // One runner worker (the dispatcher itself). Batches rarely hold
        // more than one miss in this closed loop, so more workers add no
        // throughput; they only spread pool allocations over more malloc
        // arenas, which made peak RSS vary 10-18% between runs.
        service.runner = std::make_unique<OwnedRunner>(1, tracer);
        serve::ServerConfig config;
        config.runner = &service.runner->get();
        service.server = std::make_unique<serve::Server>(config);
        {
          Span span(tracer, "serve/Server::start");
          service.server->start();
        }
        service.client = std::make_unique<ClosedLoopClient>(
            service.server->port(), nproc());
        Span span(tracer, "serve/warm-up", hot.size());
        ResultsByKey warm;
        for (const Reply& r : service.client->run(hot, warm, nullptr)) {
          if (!r.ok) throw std::runtime_error("serve_mix warm-up: " + r.status);
        }
      },
      [&] { service.stop(); });

  const serve::ServerStats before = service.server->stats();
  const Clock::time_point t0 = Clock::now();
  ResultsByKey results;
  const std::vector<Reply> replies =
      service.client->run(requests, results, tracer);
  pass.wall_s = ms_between(t0, Clock::now()) / 1e3;
  pass.peak_rss_mb = peak_rss_mb();
  pools.stop();
  const serve::ServerStats after = service.server->stats();
  Layers runner_layers;
  if (tracer != nullptr) service.runner->report(runner_layers);
  const std::size_t connections = service.client->connections();
  service.stop();

  // Every key's reply must be byte-identical to the offline engine's.
  const std::map<std::string, Offline> offline =
      run_offline(requests, tracer);
  const std::map<std::string, MissCost> costs =
      tracer ? time_misses(requests, replies, tracer)
              : std::map<std::string, MissCost>{};

  verify::Digest all;
  verify::Digest pinned;
  pass.attempted = n;
  std::vector<double> hit_rtt;
  std::vector<double> miss_rtt;
  std::vector<double> simulate;
  std::vector<double> queue;
  for (std::size_t i = 0; i < n; ++i) {
    const Reply& reply = replies[i];
    for (verify::Digest* d : {&all, &pinned}) {
      if (d == &pinned && i >= kSmokeOps) break;
      d->add_u64(i);
      d->add_string(requests[i].key);
      d->add_string(reply.ok ? results.at(requests[i].key) : "");
    }
    const Offline& ref = offline.at(requests[i].key);
    std::string why;
    if (!reply.ok) {
      why = "status " + reply.status;
    } else if (!ref.error.empty()) {
      why = "offline run failed: " + ref.error;
    } else if (results.at(requests[i].key) != ref.result) {
      why = "reply differs from ScenarioRequest::run(nullptr)";
    }
    if (!why.empty()) {
      fail_op(pass, "serve_mix request " + std::to_string(i) + ": " + why);
      continue;
    }
    pass.op_ms.push_back(reply.rtt_ms);
    (reply.hit ? hit_rtt : miss_rtt).push_back(reply.rtt_ms);
    if (const auto c = costs.find(requests[i].key);
        !reply.hit && c != costs.end()) {
      pools.add_build_ms(c->second.build_ms);
      simulate.push_back(c->second.simulate_ms);
      queue.push_back(reply.rtt_ms - c->second.build_ms -
                      c->second.simulate_ms);
    }
  }
  pass.digest = all.value();
  pass.pinned_digest = pinned.value();

  if (tracer != nullptr) {
    Layers& l = pass.layers;
    l = runner_layers;
    pools.report(l);
    const double ok = static_cast<double>(pass.op_ms.size());
    l["serve.hit_ratio"] = ok > 0 ? hit_rtt.size() / ok : 0.0;
    l["serve.hit_rtt_ms"] = median_or_zero(hit_rtt);
    l["serve.miss_rtt_ms"] = median_or_zero(miss_rtt);
    l["serve.simulate_ms"] = median_or_zero(simulate);
    l["serve.queue_ms"] = median_or_zero(queue);
    const auto batches = static_cast<double>(after.batches - before.batches);
    const auto served = static_cast<double>(
        (after.requests_ok - before.requests_ok) +
        (after.requests_error - before.requests_error));
    l["serve.batches"] = batches;
    l["serve.batch_mean"] = batches > 0 ? served / batches : 0.0;
    l["serve.rejected"] = static_cast<double>(after.requests_rejected -
                                              before.requests_rejected);
    l["serve.errors"] =
        static_cast<double>(after.requests_error - before.requests_error);
    l["exp.busy_share"] =
        std::accumulate(pass.op_ms.begin(), pass.op_ms.end(), 0.0) /
        (pass.wall_s * 1e3 * static_cast<double>(connections));
  }
  return pass;
}

}  // namespace llbench
