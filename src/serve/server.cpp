#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace ll::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::string sys_error(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", ms);
  return buf;
}

}  // namespace

/// One client socket. The fd closes when the last reference (reader thread
/// or queued work item) drops, so responses for admitted work can always be
/// written — at worst they fail with EPIPE after a disconnect.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes the full buffer (looping over partial sends, MSG_NOSIGNAL so a
  /// vanished client is an EPIPE, not a process signal). Serialized by
  /// `write_mu` because reader (errors, ping) and dispatcher (results)
  /// both write.
  void send_line(const std::string& line) {
    std::scoped_lock lock(write_mu);
    if (!alive.load(std::memory_order_relaxed)) return;
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        alive.store(false, std::memory_order_relaxed);
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  int fd;
  std::mutex write_mu;
  std::atomic<bool> alive{true};
};

struct Server::Work {
  std::shared_ptr<Connection> conn;
  std::uint64_t id = 0;
  ScenarioRequest scenario;
  std::uint64_t config_digest = 0;
  Clock::time_point admitted;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      runner_(config_.runner ? config_.runner : &util::TaskRunner::shared()),
      cache_(config_.cache_capacity) {}

Server::~Server() { shutdown(); }

void Server::start() {
  if (config_.batch_max == 0) {
    throw std::invalid_argument("serve: batch_max must be >= 1");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error(sys_error("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bad host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = sys_error("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: " + err);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string err = sys_error("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or fatal) — either way, stop accepting
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(fd);
    std::scoped_lock lock(conns_mu_);
    conns_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect, error, or SHUT_RD during drain
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) handle_line(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > config_.max_request_bytes) {
      // An unframed line beyond the bound: the stream cannot be resynced,
      // so report and hang up rather than buffer without limit. (Full
      // SHUT_RDWR — unlike the drain path, there is no pending response
      // this connection is owed.)
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      conn->send_line(error_response(
          0, "request exceeds " + std::to_string(config_.max_request_bytes) +
                 " bytes"));
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
  }
  ::shutdown(conn->fd, SHUT_RD);
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  ParsedRequest req;
  try {
    req = parse_request(line);
  } catch (const RequestError& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    conn->send_line(error_response(e.id(), e.what()));
    return;
  }
  switch (req.op) {
    case Op::kPing:
      conn->send_line(pong_response(req.id));
      return;
    case Op::kStats:
      conn->send_line(stats_response(req.id, stats_json()));
      return;
    case Op::kRun:
      break;
  }
  Work work;
  work.conn = conn;
  work.id = req.id;
  work.scenario = req.scenario;
  work.config_digest = req.scenario.config_digest();
  work.admitted = Clock::now();
  {
    std::scoped_lock lock(queue_mu_);
    if (stopping_.load()) {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      conn->send_line(error_response(req.id, "server shutting down"));
      return;
    }
    if (queue_.size() >= config_.queue_capacity) {
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      conn->send_line(rejected_response(req.id, config_.retry_after_ms));
      return;
    }
    queue_.push_back(std::move(work));
  }
  queue_cv_.notify_one();
}

void Server::dispatcher_loop() {
  for (;;) {
    std::vector<Work> batch;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      const std::size_t n = std::min(queue_.size(), config_.batch_max);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (config_.on_batch_start) config_.on_batch_start(batch.size());
    execute_batch(batch);
  }
}

void Server::execute_batch(std::vector<Work>& batch) {
  // Deduplicate by cache key first: one TaskRunner task per unique key.
  // This guarantees no task in the batch ever blocks on another task's
  // single-flight future (which could deadlock a small worker pool);
  // cross-batch duplicates hit the ready cache entry instead.
  struct Slot {
    ResultCache::ValuePtr value;
    bool hit = false;
    bool failed = false;
    std::string error;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> group_of;
  std::vector<std::size_t> item_group(batch.size());
  std::vector<std::size_t> build_item;  // first item of each group
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto key = std::make_pair(batch[i].config_digest,
                                    batch[i].scenario.seed);
    const auto [it, inserted] = group_of.try_emplace(key, build_item.size());
    if (inserted) build_item.push_back(i);
    item_group[i] = it->second;
  }

  std::vector<Slot> slots(build_item.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(build_item.size());
  for (std::size_t g = 0; g < build_item.size(); ++g) {
    const Work& work = batch[build_item[g]];
    Slot* slot = &slots[g];
    const ScenarioRequest scenario = work.scenario;
    const std::uint64_t digest = work.config_digest;
    util::TaskRunner* runner = runner_;
    ResultCache* cache = &cache_;
    tasks.emplace_back([slot, scenario, digest, runner, cache] {
      try {
        ResultCache::Outcome outcome = cache->get_or_build(
            digest, scenario.seed, [&] { return scenario.run(runner); });
        slot->value = std::move(outcome.value);
        slot->hit = outcome.hit;
      } catch (const std::exception& e) {
        slot->failed = true;
        slot->error = e.what();
      }
    });
  }
  runner_->run(std::move(tasks));

  const Clock::time_point done = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Work& work = batch[i];
    const std::size_t g = item_group[i];
    const Slot& slot = slots[g];
    if (slot.failed) {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      work.conn->send_line(error_response(work.id, slot.error));
      continue;
    }
    // The first item of a group that built counts (and reports) the miss;
    // everyone else was served from cache or coalesced onto the build.
    const bool hit = slot.hit || i != build_item[g];
    (hit ? cache_hits_ : cache_misses_).fetch_add(1,
                                                  std::memory_order_relaxed);
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    work.conn->send_line(
        run_response(work.id, hit,
                     format_key(work.config_digest, work.scenario.seed),
                     *slot.value));
    latency_.record(
        std::chrono::duration<double>(done - work.admitted).count());
  }
  if (latency_.count() > 0) {
    p50_ms_.store(latency_.quantile(0.50) * 1e3, std::memory_order_relaxed);
    p90_ms_.store(latency_.quantile(0.90) * 1e3, std::memory_order_relaxed);
    p99_ms_.store(latency_.quantile(0.99) * 1e3, std::memory_order_relaxed);
  }
}

void Server::shutdown() {
  if (!started_.load()) return;
  {
    std::scoped_lock lock(queue_mu_);
    if (stopping_.exchange(true)) return;  // idempotent
  }
  // 1. Stop accepting: shutting the listener down unblocks accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Wake every reader: SHUT_RD makes blocked recv() return 0, so the
  // queue stops growing once the readers are joined...
  {
    std::scoped_lock lock(conns_mu_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  }
  std::vector<std::thread> readers;
  {
    std::scoped_lock lock(conns_mu_);
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers) t.join();
  // 3. ...and the dispatcher drains everything already admitted (writing
  // each response — the write sides are still open) before exiting.
  queue_cv_.notify_all();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  std::scoped_lock lock(conns_mu_);
  conns_.clear();
}

std::size_t Server::queue_depth() const {
  std::scoped_lock lock(queue_mu_);
  return queue_.size();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  std::ostringstream out;
  out << "{\"connections\": " << s.connections
      << ", \"requests_ok\": " << s.requests_ok
      << ", \"requests_error\": " << s.requests_error
      << ", \"requests_rejected\": " << s.requests_rejected
      << ", \"cache_hits\": " << s.cache_hits
      << ", \"cache_misses\": " << s.cache_misses
      << ", \"batches\": " << s.batches
      << ", \"cache_size\": " << cache_.size() << ", \"latency_p50_ms\": "
      << fmt_ms(p50_ms_.load(std::memory_order_relaxed))
      << ", \"latency_p90_ms\": "
      << fmt_ms(p90_ms_.load(std::memory_order_relaxed))
      << ", \"latency_p99_ms\": "
      << fmt_ms(p99_ms_.load(std::memory_order_relaxed)) << "}";
  return out.str();
}

void Server::export_metrics(obs::MetricRegistry& registry) const {
  const ServerStats s = stats();
  registry.counter("serve.connections").add(s.connections);
  registry.counter("serve.requests.ok").add(s.requests_ok);
  registry.counter("serve.requests.error").add(s.requests_error);
  registry.counter("serve.requests.rejected").add(s.requests_rejected);
  registry.counter("serve.cache.hits").add(s.cache_hits);
  registry.counter("serve.cache.misses").add(s.cache_misses);
  registry.counter("serve.batches").add(s.batches);
  latency_.export_to(registry, "serve.latency");
}

}  // namespace ll::serve
