#pragma once

/// \file single_flight_cache.hpp
/// Bounded, thread-safe memo of immutable values that are costly to build.
///
/// Single-flight: each key maps to a shared_future that is inserted before
/// the build starts, so two threads missing on the same key concurrently
/// never both build it — the second waits on the first's future. Builds
/// for *different* keys run in parallel (the mutex covers only map
/// bookkeeping, never a build), so one slow build does not serialize
/// unrelated callers. A build that throws rethrows in every caller waiting
/// on it and leaves the key absent, so a later call builds again.
///
/// Bounded: a miss on a full cache first evicts the least-recently-used
/// finished entries. In-flight builds are never evicted, so the cache may
/// transiently hold more than `capacity` entries while builds overlap.
/// Values are shared_ptr-to-const: immutable, so callers on any thread may
/// share them, and an evicted value lives on while a caller holds it.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace ll::util {

template <typename Key, typename Value>
class SingleFlightCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  struct Outcome {
    ValuePtr value;
    bool hit = false;  ///< true when this call did not run the build
  };

  /// `capacity` (>= 1) bounds the finished entries kept.
  explicit SingleFlightCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the value for `key`, running `build` (a callable returning a
  /// Value) exactly once per resident key across all threads. `hit` is
  /// false only for the call that ran `build`; callers that waited on an
  /// in-flight build count as hits (no work ran on their behalf).
  template <typename Build>
  Outcome get_or_build(const Key& key, Build&& build) {
    std::optional<std::promise<ValuePtr>> promise;  // set on a miss only
    std::shared_future<ValuePtr> future;
    {
      std::scoped_lock lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        // Hit — including an in-flight build, whose future blocks below.
        ++hits_;
        it->second.last_use = ++tick_;
        future = it->second.future;
      } else {
        ++builds_;
        future = promise.emplace().get_future().share();
        evict_for_insert_locked();
        entries_.emplace(key, Entry{future, ++tick_, /*ready=*/false});
      }
    }
    if (!promise) return Outcome{future.get(), /*hit=*/true};

    try {
      ValuePtr value = std::make_shared<const Value>(build());
      promise->set_value(value);
      std::scoped_lock lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) it->second.ready = true;
      return Outcome{std::move(value), /*hit=*/false};
    } catch (...) {
      // Propagate to every waiter, then drop the key so a later call
      // retries instead of caching the failure forever.
      promise->set_exception(std::current_exception());
      std::scoped_lock lock(mu_);
      entries_.erase(key);
      throw;
    }
  }

  /// Calls that ran a build / calls that did not, since construction.
  [[nodiscard]] std::size_t builds() const {
    std::scoped_lock lock(mu_);
    return builds_;
  }
  [[nodiscard]] std::size_t hits() const {
    std::scoped_lock lock(mu_);
    return hits_;
  }

  /// Resident entries, in-flight builds included.
  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    return entries_.size();
  }

  /// Drops every entry (the counters keep counting).
  void clear() {
    std::scoped_lock lock(mu_);
    entries_.clear();
  }

 private:
  struct Entry {
    std::shared_future<ValuePtr> future;
    std::uint64_t last_use = 0;  ///< LRU clock tick of the last lookup
    bool ready = false;          ///< build finished (evictable)
  };

  /// Evicts ready entries, oldest last_use first, until one more entry
  /// fits (or only in-flight builds remain). Lock held.
  void evict_for_insert_locked() {
    while (entries_.size() >= capacity_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (!it->second.ready) continue;  // never evict an in-flight build
        if (victim == entries_.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;  // everything is in flight
      entries_.erase(victim);
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t builds_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace ll::util
