#include "common/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strutil.hpp"

namespace cia::json {

namespace {
constexpr int kMaxDepth = 64;
}  // namespace

Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_unique<Array>(std::move(a))) {}

Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_unique<Object>(std::move(o))) {}

Value::Value(const Value& other) { copy_from(other); }

Value::Value(Value&& other) noexcept { move_from(std::move(other)); }

Value& Value::operator=(const Value& other) {
  if (this != &other) {
    destroy();
    copy_from(other);
  }
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    destroy();
    move_from(std::move(other));
  }
  return *this;
}

Value::~Value() = default;

void Value::destroy() {
  string_.clear();
  array_.reset();
  object_.reset();
  type_ = Type::kNull;
}

void Value::copy_from(const Value& other) {
  type_ = other.type_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = other.string_;
  if (other.array_) array_ = std::make_unique<Array>(*other.array_);
  if (other.object_) object_ = std::make_unique<Object>(*other.object_);
}

void Value::move_from(Value&& other) noexcept {
  type_ = other.type_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = std::move(other.string_);
  array_ = std::move(other.array_);
  object_ = std::move(other.object_);
  other.type_ = Type::kNull;
}

bool Value::as_bool() const {
  assert(is_bool());
  return bool_;
}

double Value::as_number() const {
  assert(is_number());
  return number_;
}

std::int64_t Value::as_int() const {
  assert(is_number());
  // llround on a value outside [INT64_MIN, INT64_MAX] is unspecified;
  // clamp so documents with absurd magnitudes decode deterministically.
  constexpr double kMax = 9223372036854775807.0;
  if (number_ >= kMax) return INT64_MAX;
  if (number_ <= -kMax) return INT64_MIN;
  return static_cast<std::int64_t>(std::llround(number_));
}

const std::string& Value::as_string() const {
  assert(is_string());
  return string_;
}

const Array& Value::as_array() const {
  assert(is_array());
  return *array_;
}

Array& Value::as_array() {
  assert(is_array());
  return *array_;
}

const Object& Value::as_object() const {
  assert(is_object());
  return *object_;
}

Object& Value::as_object() {
  assert(is_object());
  return *object_;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

Value& Value::set(const std::string& key, Value v) {
  if (is_null()) {
    type_ = Type::kObject;
    object_ = std::make_unique<Object>();
  }
  assert(is_object());
  return (*object_)[key] = std::move(v);
}

void Value::push_back(Value v) {
  if (is_null()) {
    type_ = Type::kArray;
    array_ = std::make_unique<Array>();
  }
  assert(is_array());
  array_->push_back(std::move(v));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return *array_ == *other.array_;
    case Type::kObject: return *object_ == *other.object_;
  }
  return false;
}

namespace {

// True when any byte of `w` is below 0x20, '"' or '\\' (the classic
// has-less-than and has-zero-byte tests, exact for presence), so clean
// runs are skipped eight bytes at a time.
bool word_needs_escape(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  const std::uint64_t quote = w ^ (kOnes * '"');
  const std::uint64_t backslash = w ^ (kOnes * '\\');
  return ((((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) |
           ((backslash - kOnes) & ~backslash)) &
          kHigh) != 0;
}

}  // namespace

void escape(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* p = s.data();
  const char* const end = p + s.size();
  const char* run = p;
  while (p != end) {
    if (end - p >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, sizeof word);
      if (!word_needs_escape(word)) {
        p += sizeof word;
        continue;
      }
    }
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') {
      ++p;
      continue;
    }
    out.append(run, static_cast<std::size_t>(p - run));
    run = ++p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(run, static_cast<std::size_t>(end - run));
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  escape(out, s);
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(
                            indent >= 0 ? (depth + 1) * indent : 0),
                        ' ');
  const std::string close_pad(
      static_cast<std::size_t>(indent >= 0 ? depth * indent : 0), ' ');
  const char* nl = indent >= 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        out += strformat("%lld", static_cast<long long>(number_));
      } else {
        out += strformat("%.17g", number_);
      }
      break;
    }
    case Type::kString:
      out += '"';
      escape(out, string_);
      out += '"';
      break;
    case Type::kArray: {
      if (array_->empty()) {
        out += "[]";
        break;
      }
      out += "[";
      out += nl;
      for (std::size_t i = 0; i < array_->size(); ++i) {
        out += pad;
        (*array_)[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_->size()) out += ",";
        out += nl;
      }
      out += close_pad + "]";
      break;
    }
    case Type::kObject: {
      if (object_->empty()) {
        out += "{}";
        break;
      }
      out += "{";
      out += nl;
      std::size_t i = 0;
      for (const auto& [key, value] : *object_) {
        out += pad;
        out += '"';
        escape(out, key);
        out += "\":";
        if (indent >= 0) out += " ";
        value.dump_to(out, indent, depth + 1);
        if (++i < object_->size()) out += ",";
        out += nl;
      }
      out += close_pad + "}";
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out, -1, 0);
  return out;
}

std::string Value::pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

// --------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Value> parse_document() {
    skip_ws();
    auto value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  Error fail(const std::string& message) const {
    return err(Errc::kCorrupted,
               strformat("json: %s at offset %zu", message.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      auto s = parse_string();
      if (!s.ok()) return s.error();
      return Value(std::move(s).take());
    }
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return fail(strformat("unexpected character '%c'", c));
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      return fail("malformed number '" + token + "'");
    }
    // An overflowing exponent ("1e999") yields infinity, which dump()
    // would render as a token no JSON parser accepts — reject it here so
    // every accepted document round-trips.
    if (!std::isfinite(value)) {
      return fail("number out of range '" + token + "'");
    }
    return Value(value);
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
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
                return fail("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogates unsupported).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return fail(strformat("bad escape '\\%c'", esc));
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  Result<Value> parse_array(int depth) {
    if (!consume('[')) return fail("expected '['");
    Array out;
    skip_ws();
    if (consume(']')) return Value(std::move(out));
    for (;;) {
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      out.push_back(std::move(value).take());
      skip_ws();
      if (consume(']')) return Value(std::move(out));
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  Result<Value> parse_object(int depth) {
    if (!consume('{')) return fail("expected '{'");
    Object out;
    skip_ws();
    if (consume('}')) return Value(std::move(out));
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      out[std::move(key).take()] = std::move(value).take();
      skip_ws();
      if (consume('}')) return Value(std::move(out));
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace cia::json
