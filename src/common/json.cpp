#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace rop::json {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    std::optional<Value> v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        v.reset();
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream os;
      os << what << " at byte " << pos_;
      error_ = os.str();
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (eat(c)) return true;
    fail(std::string("expected '") + c + "'");
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        if (literal("true")) return Value(true);
        return std::nullopt;
      case 'f':
        if (literal("false")) return Value(false);
        return std::nullopt;
      case 'n':
        if (literal("null")) return Value();
        return std::nullopt;
      default:
        return parse_number();
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    fail("invalid literal");
    return false;
  }

  /// Enter an array or object; false (with an error at its byte) past
  /// kMaxDepth, which bounds the recursion on hostile input.
  bool nest() {
    if (++depth_ <= kMaxDepth) return true;
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    return false;
  }

  std::optional<Value> parse_object() {
    if (!nest()) return std::nullopt;
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!expect(':')) return std::nullopt;
      std::optional<Value> val = parse_value();
      if (!val) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*val));
      skip_ws();
      if (eat(',')) continue;
      if (!expect('}')) return std::nullopt;
      --depth_;
      return Value(std::move(obj));
    }
  }

  std::optional<Value> parse_array() {
    if (!nest()) return std::nullopt;
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (eat(']')) {
      --depth_;
      return Value(std::move(arr));
    }
    for (;;) {
      std::optional<Value> val = parse_value();
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (eat(',')) continue;
      if (!expect(']')) return std::nullopt;
      --depth_;
      return Value(std::move(arr));
    }
  }

  std::optional<std::string> parse_string() {
    if (!expect('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          std::uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<std::uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<std::uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<std::uint32_t>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
              return std::nullopt;
            }
          }
          // Basic-multilingual-plane only (no surrogate pairing): enough
          // for the ASCII identifiers these config files contain.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    const bool negative = eat('-');
    bool is_integer = true;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start + (negative ? 1 : 0)) {
      fail("invalid number");
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_integer) {
      errno = 0;
      if (!negative) {
        const std::uint64_t u = std::strtoull(token.c_str(), nullptr, 10);
        if (errno == 0) return Value(u);
      } else {
        const std::int64_t i = std::strtoll(token.c_str(), nullptr, 10);
        if (errno == 0) return Value(i);
      }
      // Out-of-range integers fall back to the double representation.
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), nullptr);
    return Value(d);
  }

  /// Far beyond any campaign spec or stats document, far below the stack.
  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
};

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace rop::json
