// A minimal JSON value type, parser, and serializer.
//
// Real Keylime exchanges runtime policies, agent metadata, and API
// payloads as JSON; this module provides just enough of RFC 8259 for
// those uses: objects, arrays, strings (with escape handling), integral
// and floating numbers, booleans, and null. The parser is recursive
// descent with a depth limit and precise error messages.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace cia::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value (tagged union).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}              // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Value(double n) : type_(Type::kNumber), number_(n) {}      // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}            // NOLINT
  Value(std::int64_t n) : Value(static_cast<double>(n)) {}   // NOLINT
  Value(std::size_t n) : Value(static_cast<double>(n)) {}    // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {} // NOLINT
  Value(std::string s)                                       // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a);   // NOLINT
  Value(Object o);  // NOLINT

  Value(const Value&);
  Value(Value&&) noexcept;
  Value& operator=(const Value&);
  Value& operator=(Value&&) noexcept;
  ~Value();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors assert on type mismatch (use is_*() first on untrusted data).
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field lookup; returns nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Set an object field (converts a null value into an empty object).
  Value& set(const std::string& key, Value v);

  /// Append to an array (converts a null value into an empty array).
  void push_back(Value v);

  /// Compact serialization.
  std::string dump() const;

  /// Pretty-printed serialization (2-space indent).
  std::string pretty() const;

  bool operator==(const Value& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  void destroy();
  void copy_from(const Value& other);
  void move_from(Value&& other) noexcept;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::unique_ptr<Array> array_;
  std::unique_ptr<Object> object_;
};

/// Parse a JSON document. Enforces a nesting-depth limit and rejects
/// trailing garbage.
Result<Value> parse(const std::string& text);

/// Append `s` to `out`, escaped per JSON rules, without quotes: `"`,
/// `\` and bytes below 0x20 are escaped; every other byte (0x7f and
/// bytes >= 0x80 included) is copied as is, in bulk runs. The one
/// escaper behind dump() and RuntimePolicy's streamed canonical form.
void escape(std::string& out, std::string_view s);

/// Escape a string per JSON rules into a fresh string.
std::string escape(const std::string& s);

}  // namespace cia::json
