#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/string_util.hpp"

namespace tl::util {

std::string json_escape(std::string_view s) {
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
          out += strf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  }
  return strf("%.17g", v);
}

std::string json_string(std::string_view s) {
  // Built by append rather than operator+ chaining: GCC 12's -Wrestrict
  // emits a false positive on char* + string + char* once inlined.
  std::string out;
  const std::string escaped = json_escape(s);
  out.reserve(escaped.size() + 2);
  out += '"';
  out += escaped;
  out += '"';
  return out;
}

namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw std::runtime_error(strf("json: %s at byte %zu", what.c_str(), at));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, strf("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail(pos_, "expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail(pos_, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail(pos_, "expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not joined;
          // our writers never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail(pos_, "expected number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail(int_start, "leading zero");  // strict grammar: 0 or [1-9]...
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail(pos_, "expected exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw std::runtime_error(strf("json: value is not a %s", wanted));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_mismatch("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_mismatch("number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_mismatch("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_mismatch("array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  if (kind_ != Kind::kObject) kind_mismatch("object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::get_number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

std::string JsonValue::get_string_or(std::string_view key,
                                     std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string_
                                          : std::string(fallback);
}

bool JsonValue::get_bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace tl::util
