#pragma once

/// \file server.hpp
/// `llsim serve`: the simulator as a long-running service. Accepts NDJSON
/// requests (protocol.hpp) over TCP, multiplexes every admitted `run`
/// request onto the shared lock-free util::TaskRunner, and streams the
/// responses back as they complete.
///
/// Threading model:
///  * one accept thread;
///  * one reader thread per connection (blocking reads, line framing,
///    inline ping/stats replies, admission of run requests);
///  * ONE dispatcher thread that drains the bounded admission queue in
///    batches of up to `batch_max`, deduplicates each batch by cache key,
///    executes the unique keys as one TaskRunner batch, and writes the
///    responses. The batch's runner tasks look their keys up in the
///    result cache concurrently (its mutex makes that safe); the
///    dispatcher is the only thread touching the latency recorder, which
///    is what makes the single-writer MetricRegistry contract hold without
///    locks.
///
/// Admission control: the queue is bounded at `queue_capacity`. A full
/// queue rejects immediately with {"status":"rejected",
/// "retry_after_ms":N} — explicit backpressure the client can act on —
/// instead of letting latency collapse under unbounded buffering.
///
/// Graceful shutdown (SIGINT/SIGTERM via cli): stop accepting, shut the
/// read side of every connection, join the readers (queue stops growing),
/// then drain every admitted request and write its response before the
/// dispatcher exits. Admitted work is never dropped.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/latency.hpp"
#include "serve/protocol.hpp"
#include "util/runner.hpp"
#include "util/single_flight_cache.hpp"

namespace ll::obs {
class MetricRegistry;
}

namespace ll::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read the bound port via Server::port())
  std::size_t queue_capacity = 256;  ///< admission queue bound
  std::size_t batch_max = 32;        ///< max requests per dispatcher batch
  std::size_t cache_capacity = 256;  ///< results kept (LRU beyond)
  std::size_t max_request_bytes = 1 << 16;  ///< line-framing bound
  int retry_after_ms = 25;  ///< backpressure hint on rejection
  /// Runner executing the simulations; nullptr = util::TaskRunner::shared().
  util::TaskRunner* runner = nullptr;
  /// Test hook: runs on the dispatcher thread right before each batch
  /// executes (arg = batch size). Lets tests hold the dispatcher still
  /// while they overfill the admission queue deterministically.
  std::function<void(std::size_t)> on_batch_start;
};

/// Monotonic counters, snapshotted from atomics (readable from any thread).
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t cache_hits = 0;    ///< served from cache (incl. batch dedup)
  std::uint64_t cache_misses = 0;  ///< ran a simulation
  std::uint64_t batches = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept + dispatcher threads. Throws
  /// std::invalid_argument, before binding, for a zero batch_max (the
  /// dispatcher would take no request per batch, so shutdown() could never
  /// drain), a zero queue_capacity (every run request would be rejected)
  /// or a zero cache_capacity (no result would be kept), and
  /// std::runtime_error on socket errors (port in use, bad host).
  void start();

  /// The bound port (after start()); meaningful with config.port == 0.
  [[nodiscard]] int port() const { return port_; }

  /// Graceful drain, as documented above. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// Requests admitted but not yet popped by the dispatcher (test probe).
  [[nodiscard]] std::size_t queue_depth() const;

  /// One-line JSON object of the stats + latency quantiles (the `stats`
  /// op's payload). Safe from any thread; quantiles reflect the last
  /// completed batch.
  [[nodiscard]] std::string stats_json() const;

  /// Exports counters + latency quantiles into a registry. Call only
  /// after shutdown() (single-writer contract).
  void export_metrics(obs::MetricRegistry& registry) const;

 private:
  struct Connection;
  struct Work;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void dispatcher_loop();
  void execute_batch(std::vector<Work>& batch);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);

  ServerConfig config_;
  util::TaskRunner* runner_ = nullptr;
  /// Finished sweep JSON by (config digest, seed): the exact bytes
  /// exp::to_json produced, so a hit is a pointer copy and every reply for
  /// a key carries the same bytes.
  util::SingleFlightCache<std::pair<std::uint64_t, std::uint64_t>,
                          std::string>
      cache_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::thread accept_thread_;
  std::thread dispatcher_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> batches_{0};

  // Dispatcher-only; quantile snapshots for stats_json are mirrored into
  // the atomics below after each batch.
  obs::LatencyRecorder latency_;
  std::atomic<double> p50_ms_{0.0};
  std::atomic<double> p90_ms_{0.0};
  std::atomic<double> p99_ms_{0.0};
};

}  // namespace ll::serve
