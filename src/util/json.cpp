#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace ll::util::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal (expected '" + std::string(lit) + "')");
    }
    pos_ += lit.size();
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // The parser recurses once per level, so unbounded nesting lets a
        // 64-KiB request line of '[' overflow the stack.
        if (++depth_ > kMaxDepth) fail("nesting deeper than 256 levels");
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value(parse_string());
      case 't':
        expect_literal("true");
        return Value(true);
      case 'f':
        expect_literal("false");
        return Value(false);
      case 'n':
        expect_literal("null");
        return Value(nullptr);
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (consume('}')) return Value(std::move(members));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (consume(']')) return Value(std::move(items));
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // Basic-plane code point to UTF-8 (our writers only escape
          // control characters, so surrogate pairs never occur).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    bool integral = true;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (!std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        integral = false;
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    // Integer literals take an exact int64/uint64 path: seeds and FNV-1a
    // digests are 64-bit and a double round-trip silently corrupts them
    // above 2^53. Out-of-range integers fall through to the double path.
    if (integral && pos_ > start + (negative ? 1u : 0u)) {
      const char* first = token.c_str() + (negative ? 1 : 0);
      const char* last = token.c_str() + token.size();
      if (negative) {
        std::int64_t i = 0;
        const auto [ptr, ec] = std::from_chars(token.c_str(), last, i);
        if (ec == std::errc() && ptr == last) return Value(i);
      } else {
        std::uint64_t u = 0;
        const auto [ptr, ec] = std::from_chars(first, last, u);
        if (ec == std::errc() && ptr == last) return Value(u);
      }
    }
    // strtod on a NUL-terminated copy: the same portability choice
    // util/flags.cpp makes (FP std::from_chars is uneven across libstdc++).
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return Value(value);
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open objects and arrays
};

}  // namespace

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::kNumber) {
    throw std::runtime_error("json: as_u64 on a non-number value");
  }
  switch (repr_) {
    case NumberRepr::kUint64:
      return uint_;
    case NumberRepr::kInt64:
      if (int_ < 0) throw std::runtime_error("json: as_u64 on a negative value");
      return static_cast<std::uint64_t>(int_);
    case NumberRepr::kDouble:
      break;
  }
  // A double-repr token (fraction/exponent form, or an out-of-range integer
  // literal): accept only values that convert back without loss.
  if (number_ < 0.0 || number_ >= 0x1p64 ||
      number_ != static_cast<double>(static_cast<std::uint64_t>(number_))) {
    throw std::runtime_error("json: number is not an exact uint64");
  }
  return static_cast<std::uint64_t>(number_);
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::kNumber) {
    throw std::runtime_error("json: as_i64 on a non-number value");
  }
  switch (repr_) {
    case NumberRepr::kInt64:
      return int_;
    case NumberRepr::kUint64:
      if (uint_ > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max())) {
        throw std::runtime_error("json: as_i64 overflow");
      }
      return static_cast<std::int64_t>(uint_);
    case NumberRepr::kDouble:
      break;
  }
  if (number_ < -0x1p63 || number_ >= 0x1p63 ||
      number_ != static_cast<double>(static_cast<std::int64_t>(number_))) {
    throw std::runtime_error("json: number is not an exact int64");
  }
  return static_cast<std::int64_t>(number_);
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : *object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string_view Value::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "unknown";
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ll::util::json
