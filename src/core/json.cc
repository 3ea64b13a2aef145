#include "core/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

namespace mntp::core {

namespace {

const std::string kEmptyString;
const std::vector<Json> kEmptyArray;
const std::map<std::string, Json> kEmptyObject;
const Json kNullJson;

/// Cursor over the input with one-token-lookahead helpers. Parse errors
/// surface as core::Error (expected failure: malformed input file).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    Result<Json> v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Error error(const std::string& msg) const {
    return Error::malformed("JSON parse error at offset " +
                            std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Result<Json> parse_value() {
    if (eof()) return error("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Result<std::string> s = parse_string();
        if (!s.ok()) return s.error();
        return Json::make_string(std::move(s).take());
      }
      case 't':
        if (consume_literal("true")) return Json::make_bool(true);
        return error("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::make_bool(false);
        return error("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json::make_null();
        return error("invalid literal");
      default: return parse_number();
    }
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool is_integer = true;
    while (!eof()) {
      const char c = peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    if (is_integer) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json::make_int(v);
      }
      errno = 0;
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (token[0] != '-' && errno == 0 &&
          end == token.c_str() + token.size()) {
        return Json::make_uint(u);
      }
      // Out of both integer ranges: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return error("malformed number '" + token + "'");
    }
    return Json::make_double(d);
  }

  Result<std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (eof()) return error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return error("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return error("invalid \\u escape digit");
          }
          // Encode the code point as UTF-8. Surrogate pairs are rare in
          // our telemetry (ASCII names); a lone surrogate encodes as-is.
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
        default: return error("unknown escape sequence");
      }
    }
  }

  Result<Json> parse_array() {
    ++pos_;  // '['
    std::vector<Json> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Json::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      Result<Json> v = parse_value();
      if (!v.ok()) return v;
      items.push_back(std::move(v).take());
      skip_ws();
      if (eof()) return error("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Json::make_array(std::move(items));
      if (c != ',') return error("expected ',' or ']' in array");
    }
  }

  Result<Json> parse_object() {
    ++pos_;  // '{'
    std::map<std::string, Json> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Json::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return error("expected object key string");
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (eof() || text_[pos_++] != ':') return error("expected ':' after key");
      skip_ws();
      Result<Json> v = parse_value();
      if (!v.ok()) return v;
      members.insert_or_assign(std::move(key).take(), std::move(v).take());
      skip_ws();
      if (eof()) return error("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Json::make_object(std::move(members));
      if (c != ',') return error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::int64_t Json::as_int() const {
  if (type_ == Type::kInt) return int_;
  if (type_ != Type::kDouble || std::isnan(double_)) return 0;
  // The cast is undefined outside int64: clamp instead.
  if (double_ >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -0x1p63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(double_);
}

std::uint64_t Json::as_uint() const {
  return type_ == Type::kInt ? uint_ : 0;
}

double Json::as_double() const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) {
    return int_ >= 0 ? static_cast<double>(uint_) : static_cast<double>(int_);
  }
  return 0.0;
}

const std::string& Json::as_string() const {
  return type_ == Type::kString && string_ ? *string_ : kEmptyString;
}

const std::vector<Json>& Json::as_array() const {
  return type_ == Type::kArray && array_ ? *array_ : kEmptyArray;
}

const std::map<std::string, Json>& Json::as_object() const {
  return type_ == Type::kObject && object_ ? *object_ : kEmptyObject;
}

const Json& Json::operator[](std::string_view key) const {
  if (type_ != Type::kObject || !object_) return kNullJson;
  const auto it = object_->find(std::string(key));
  return it == object_->end() ? kNullJson : it->second;
}

bool Json::has(std::string_view key) const {
  return type_ == Type::kObject && object_ &&
         object_->find(std::string(key)) != object_->end();
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray || !array_ || i >= array_->size()) {
    return kNullJson;
  }
  return (*array_)[i];
}

std::size_t Json::size() const {
  if (type_ == Type::kArray && array_) return array_->size();
  if (type_ == Type::kObject && object_) return object_->size();
  return 0;
}

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::make_int(std::int64_t v) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = v;
  j.uint_ = v < 0 ? 0 : static_cast<std::uint64_t>(v);
  return j;
}

Json Json::make_uint(std::uint64_t v) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = static_cast<std::int64_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::int64_t>::max()));
  j.uint_ = v;
  return j;
}

Json Json::make_double(double v) {
  Json j;
  j.type_ = Type::kDouble;
  j.double_ = v;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::make_shared<const std::string>(std::move(s));
  return j;
}

Json Json::make_array(std::vector<Json> items) {
  Json j;
  j.type_ = Type::kArray;
  j.array_ = std::make_shared<const std::vector<Json>>(std::move(items));
  return j;
}

Json Json::make_object(std::map<std::string, Json> members) {
  Json j;
  j.type_ = Type::kObject;
  j.object_ =
      std::make_shared<const std::map<std::string, Json>>(std::move(members));
  return j;
}

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace mntp::core
