#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/protocol.hpp"
#include "serve/scenario.hpp"
#include "util/json.hpp"

namespace ll::serve {
namespace {

namespace json = util::json;

/// Blocking line-oriented test client with a receive timeout, so a server
/// bug fails the test instead of hanging the suite.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() { close(); }

  [[nodiscard]] bool connected() const { return connected_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send_text(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next full line (without '\n'); empty string on timeout/EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads one response line and parses it.
  json::Value read_response() {
    const std::string line = read_line();
    EXPECT_FALSE(line.empty()) << "no response (timeout or disconnect)";
    return line.empty() ? json::Value() : json::parse(line);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// The small scenario every test serves: fast to simulate, fully default
/// otherwise.
constexpr const char* kSmallParams =
    R"({"nodes": 4, "jobs": 8, "demand": 30, "machines": 2, "days": 0.05})";

std::string run_request(std::uint64_t id, std::uint64_t seed) {
  return "{\"id\": " + std::to_string(id) + ", \"op\": \"run\", \"params\": " +
         std::string(kSmallParams).insert(1, "\"seed\": " +
                                                 std::to_string(seed) + ", ") +
         "}\n";
}

ScenarioRequest small_scenario(std::uint64_t seed) {
  ScenarioRequest req;
  req.nodes = 4;
  req.jobs = 8;
  req.demand = 30.0;
  req.machines = 2;
  req.days = 0.05;
  req.seed = seed;
  return req;
}

TEST(Server, StartsOnEphemeralPortAndShutsDownCleanly) {
  Server server(ServerConfig{});
  server.start();
  EXPECT_GT(server.port(), 0);
  server.shutdown();
  server.shutdown();  // idempotent
}

TEST(Server, StartRefusesZeroBatchAndQueueBounds) {
  // batch_max = 0 had the dispatcher take no request per batch forever, so
  // shutdown() never drained; queue_capacity = 0 rejected every run;
  // cache_capacity = 0 was raised to 1 without a word.
  ServerConfig zero_batch;
  zero_batch.batch_max = 0;
  Server a(zero_batch);
  EXPECT_THROW(a.start(), std::invalid_argument);
  ServerConfig zero_queue;
  zero_queue.queue_capacity = 0;
  Server b(zero_queue);
  EXPECT_THROW(b.start(), std::invalid_argument);
  ServerConfig zero_cache;
  zero_cache.cache_capacity = 0;
  Server c(zero_cache);
  EXPECT_THROW(c.start(), std::invalid_argument);
}

TEST(Server, AnswersPingAndStats) {
  Server server(ServerConfig{});
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text("{\"id\": 1, \"op\": \"ping\"}\n"));
  json::Value pong = client.read_response();
  EXPECT_EQ(pong.find("id")->as_u64(), 1u);
  EXPECT_EQ(pong.find("status")->as_string(), "ok");
  EXPECT_TRUE(pong.find("pong")->as_bool());

  ASSERT_TRUE(client.send_text("{\"id\": 2, \"op\": \"stats\"}\n"));
  json::Value stats = client.read_response();
  EXPECT_EQ(stats.find("status")->as_string(), "ok");
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_NE(stats.find("stats")->find("requests_ok"), nullptr);
  server.shutdown();
}

TEST(Server, ServedResultIsByteIdenticalToOfflineSweep) {
  Server server(ServerConfig{});
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text(run_request(1, 777)));
  json::Value response = client.read_response();
  ASSERT_EQ(response.find("status")->as_string(), "ok");
  EXPECT_EQ(response.find("cache")->as_string(), "miss");

  // The golden check: the bytes that crossed the wire are exactly what the
  // offline engine prints for the same scenario.
  const std::string offline = small_scenario(777).run(nullptr);
  EXPECT_EQ(response.find("result")->as_string(), offline);
  EXPECT_EQ(response.find("key")->as_string(),
            format_key(small_scenario(777).config_digest(), 777));

  // A fault scenario, its params written by to_json as llload writes them.
  ScenarioRequest faulty = small_scenario(778);
  faulty.mtbf = 600.0;
  faulty.drop = 0.1;
  faulty.checkpoint = 120.0;
  ASSERT_TRUE(client.send_text("{\"id\": 2, \"op\": \"run\", \"params\": " +
                               faulty.to_json() + "}\n"));
  response = client.read_response();
  ASSERT_EQ(response.find("status")->as_string(), "ok");
  EXPECT_EQ(response.find("result")->as_string(), faulty.run(nullptr));
  EXPECT_EQ(response.find("key")->as_string(),
            format_key(faulty.config_digest(), 778));
  server.shutdown();
}

TEST(Server, RepeatedRequestIsACacheHitWithIdenticalBytes) {
  Server server(ServerConfig{});
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text(run_request(1, 5)));
  json::Value first = client.read_response();
  ASSERT_EQ(first.find("status")->as_string(), "ok");
  EXPECT_EQ(first.find("cache")->as_string(), "miss");

  ASSERT_TRUE(client.send_text(run_request(2, 5)));
  json::Value second = client.read_response();
  ASSERT_EQ(second.find("status")->as_string(), "ok");
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(second.find("result")->as_string(),
            first.find("result")->as_string());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  server.shutdown();
}

TEST(Server, MalformedAndInvalidRequestsGetErrorsAndKeepTheConnection) {
  Server server(ServerConfig{});
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_text("this is not json\n"));
  json::Value err1 = client.read_response();
  EXPECT_EQ(err1.find("status")->as_string(), "error");

  ASSERT_TRUE(client.send_text(
      "{\"id\": 3, \"op\": \"run\", \"params\": {\"nodes\": -1}}\n"));
  json::Value err2 = client.read_response();
  EXPECT_EQ(err2.find("status")->as_string(), "error");
  EXPECT_EQ(err2.find("id")->as_u64(), 3u);

  // The connection survived both errors.
  ASSERT_TRUE(client.send_text("{\"id\": 4, \"op\": \"ping\"}\n"));
  EXPECT_EQ(client.read_response().find("status")->as_string(), "ok");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_error, 2u);
  server.shutdown();
}

TEST(Server, OversizedRequestLineIsRejectedAndHungUp) {
  ServerConfig config;
  config.max_request_bytes = 128;
  Server server(config);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_text(std::string(4096, 'x')));  // no newline ever
  json::Value err = client.read_response();
  EXPECT_EQ(err.find("status")->as_string(), "error");
  // After the error the server hangs up: the next read sees EOF.
  EXPECT_EQ(client.read_line(), "");
  server.shutdown();
}

TEST(Server, FullQueueRejectsWithRetryAfter) {
  ServerConfig config;
  config.queue_capacity = 1;
  config.batch_max = 1;
  config.retry_after_ms = 40;
  // Hold the dispatcher on its first batch so the queue stays full while
  // the test overflows it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> batches{0};
  config.on_batch_start = [&](std::size_t) {
    batches.fetch_add(1);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(config);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // r1 is popped into the (blocked) batch; r2 occupies the whole queue;
  // r3 must be rejected immediately by the reader thread.
  ASSERT_TRUE(client.send_text(run_request(1, 1)));
  while (batches.load() == 0) std::this_thread::yield();
  ASSERT_TRUE(client.send_text(run_request(2, 2)));
  while (server.queue_depth() == 0) std::this_thread::yield();
  ASSERT_TRUE(client.send_text(run_request(3, 3)));

  json::Value rejection = client.read_response();
  EXPECT_EQ(rejection.find("status")->as_string(), "rejected");
  EXPECT_EQ(rejection.find("id")->as_u64(), 3u);
  EXPECT_EQ(rejection.find("retry_after_ms")->as_u64(), 40u);

  {
    std::scoped_lock lock(mu);
    release = true;
  }
  cv.notify_all();
  // r1 and r2 still complete: admitted work is never dropped.
  EXPECT_EQ(client.read_response().find("status")->as_string(), "ok");
  EXPECT_EQ(client.read_response().find("status")->as_string(), "ok");
  server.shutdown();
  EXPECT_EQ(server.stats().requests_rejected, 1u);
}

TEST(Server, ClientDisconnectMidStreamDoesNotWedgeTheServer) {
  Server server(ServerConfig{});
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_text(run_request(1, 99)));
    client.close();  // vanish before the response arrives
  }
  // The request still executes; the response write fails harmlessly and
  // shutdown drains without hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().requests_ok == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().requests_ok, 1u);
  server.shutdown();
}

TEST(Server, ShutdownDrainsAdmittedRequests) {
  ServerConfig config;
  config.batch_max = 1;  // force multiple batches
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> batches{0};
  config.on_batch_start = [&](std::size_t) {
    batches.fetch_add(1);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(config);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(client.send_text(run_request(static_cast<std::uint64_t>(i),
                                             static_cast<std::uint64_t>(i))));
  }
  // All four are admitted: one held in the blocked batch, three queued.
  while (batches.load() == 0) std::this_thread::yield();
  while (server.queue_depth() < 3) std::this_thread::yield();
  {
    std::scoped_lock lock(mu);
    release = true;
  }
  cv.notify_all();
  server.shutdown();  // must block until all four responses are written
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string line = client.read_line();
    if (line.empty()) break;
    if (json::parse(line).find("status")->as_string() == "ok") ++ok;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(server.stats().requests_ok, 4u);
}

TEST(Server, BatchCoalescesDuplicateKeysIntoOneSimulation) {
  ServerConfig config;
  config.batch_max = 8;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> batches{0};
  config.on_batch_start = [&](std::size_t) {
    batches.fetch_add(1);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(config);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Hold the dispatcher on the batch containing id 10, then queue three
  // requests — two sharing a *fresh* key (seeds 7,7) and one distinct —
  // so they land in ONE later batch.
  ASSERT_TRUE(client.send_text(run_request(10, 1)));
  while (batches.load() == 0) std::this_thread::yield();
  ASSERT_TRUE(client.send_text(run_request(11, 7)));
  ASSERT_TRUE(client.send_text(run_request(12, 7)));
  ASSERT_TRUE(client.send_text(run_request(13, 8)));
  while (server.queue_depth() < 3) std::this_thread::yield();
  {
    std::scoped_lock lock(mu);
    release = true;
  }
  cv.notify_all();

  int misses = 0, hits = 0;
  for (int i = 0; i < 4; ++i) {
    json::Value response = client.read_response();
    ASSERT_EQ(response.find("status")->as_string(), "ok");
    (response.find("cache")->as_string() == "hit" ? hits : misses) += 1;
  }
  // Key 7 was requested twice in one batch with no cache entry: the batch
  // deduplicates, runs it once, and reports one miss + one coalesced hit.
  EXPECT_EQ(misses, 3);  // seeds 1, 7 (built once), 8
  EXPECT_EQ(hits, 1);    // the coalesced duplicate of seed 7
  server.shutdown();
}

}  // namespace
}  // namespace ll::serve
