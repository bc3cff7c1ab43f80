#pragma once

/// \file digest.hpp
/// Streaming state digests for determinism and regression checking.
///
/// A Digest is a 64-bit FNV-1a hash fed incrementally with typed values.
/// Two runs of a simulation are byte-identical iff they fold the same
/// sequence of values — so a digest over every fired event's
/// (time, id, tag) tuple is a compact, order-sensitive fingerprint of an
/// entire experiment. The golden-trace regression suite (tests/golden/)
/// pins these fingerprints; tools/llverify diffs them across reruns.
///
/// Encoding rules keep digests platform-independent:
///  * integers are folded as 8 little-endian bytes regardless of host order;
///  * doubles are folded by IEEE-754 bit pattern, with -0.0 normalized to
///    +0.0 and every NaN collapsed to one canonical pattern;
///  * strings are length-prefixed so "ab","c" != "a","bc".

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "des/simulation.hpp"

namespace ll::verify {

class Digest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void add_byte(std::uint8_t b) {
    state_ ^= b;
    state_ *= kPrime;
  }

  /// Folds a 64-bit integer as little-endian bytes (host-order independent).
  void add_u64(std::uint64_t v);

  /// Folds a double by canonicalized IEEE-754 bit pattern.
  void add_double(double v);

  /// Folds a string, length-prefixed.
  void add_string(std::string_view s);

  /// Folds one event tuple — the unit the fired-event digests stream.
  void add_event(double time, std::uint64_t id, std::uint64_t tag) {
    add_double(time);
    add_u64(id);
    add_u64(tag);
  }

  [[nodiscard]] std::uint64_t value() const { return state_; }

  /// 16 lowercase hex digits, the format of the golden files.
  [[nodiscard]] std::string hex() const;

  /// Parses the hex() format back; nullopt on malformed input.
  [[nodiscard]] static std::optional<std::uint64_t> parse_hex(
      std::string_view s);

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// SimObserver that folds every *fired* event's (time, id, tag) into a
/// digest. Schedule and cancel calls are not folded directly, but they are
/// not invisible either: the engine issues one id per schedule, so a run
/// that schedules (and later cancels) one extra event shifts the id of
/// every event fired after it. Two runs match iff they fire the same events
/// at the same times in the same order *and* schedule the same number of
/// events before each fire. A change that skips doomed schedules, rather
/// than cancelling them, therefore changes the digest; one that only
/// changes how the queue stores or drops cancelled entries does not.
class DigestObserver final : public des::SimObserver {
 public:
  void on_fire(double time, des::EventId id, std::uint64_t tag) override {
    digest_.add_event(time, id, tag);
    ++events_;
  }

  [[nodiscard]] const Digest& digest() const { return digest_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  Digest digest_;
  std::uint64_t events_ = 0;
};

}  // namespace ll::verify
