#pragma once

/// \file json.hpp
/// Minimal recursive-descent JSON reader.
///
/// The observability layer emits run manifests and metric snapshots as JSON
/// (src/obs/); the tests and the CI manifest validator (tools/llmanifest)
/// need to read that JSON back without adding a dependency. This is a
/// strict, small parser for that closed loop — it accepts exactly the
/// subset our writers produce (RFC 8259 minus \uXXXX surrogate pairs, which
/// our writers never emit; lone \uXXXX escapes decode to UTF-8).
///
/// Objects preserve insertion order (vector of pairs), matching the
/// determinism contract of every serializer in this repo.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ll::util::json {

class Value;

using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;
  explicit Value(std::nullptr_t) {}
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), number_(d) {}
  explicit Value(std::int64_t i)
      : kind_(Kind::kNumber),
        repr_(NumberRepr::kInt64),
        number_(static_cast<double>(i)),
        int_(i) {}
  explicit Value(std::uint64_t u)
      : kind_(Kind::kNumber),
        repr_(NumberRepr::kUint64),
        number_(static_cast<double>(u)),
        uint_(u) {}
  explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool as_bool() const { return bool_; }
  /// Number as double. Integral tokens above 2^53 lose precision through
  /// this accessor — callers that care use as_u64/as_i64 instead.
  [[nodiscard]] double as_number() const { return number_; }
  /// True when the token was an exact integer literal (no '.', exponent or
  /// overflow), so as_u64/as_i64 can return it without precision loss.
  [[nodiscard]] bool is_integer() const { return repr_ != NumberRepr::kDouble; }
  /// Exact unsigned 64-bit value. Throws std::runtime_error when the value
  /// is negative, fractional, or was not representable as an integer —
  /// the accessor FNV-1a digests and seeds must go through (a double
  /// round-trip silently corrupts them above 2^53).
  [[nodiscard]] std::uint64_t as_u64() const;
  /// Exact signed 64-bit value; throws like as_u64 on range/kind mismatch.
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return *array_; }
  [[nodiscard]] const Object& as_object() const { return *object_; }

  /// Object member lookup by key; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Human name of a kind ("object", "number", ...), for error messages.
  [[nodiscard]] static std::string_view kind_name(Kind kind);

 private:
  enum class NumberRepr { kDouble, kInt64, kUint64 };

  Kind kind_ = Kind::kNull;
  NumberRepr repr_ = NumberRepr::kDouble;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws std::runtime_error with a byte offset on
/// malformed input, including arrays and objects nested over 256 deep.
[[nodiscard]] Value parse(std::string_view text);

/// Escapes a string for embedding in JSON output (quotes not included).
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace ll::util::json
