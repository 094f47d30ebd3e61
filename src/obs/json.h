// Minimal JSON: a recursive-descent parser producing an immutable value
// tree, plus the string-escaping helper every JSON emitter in the repo
// shares. Exists so the observability layer can validate its own output —
// the trace exporter emits Chrome trace-event JSON and the tests parse it
// back to check span invariants — without growing a third-party
// dependency. Full RFC 8259 input grammar (objects, arrays, strings with
// \uXXXX escapes incl. surrogate pairs, numbers, literals); parsing never
// mutates and throws acsel::Error on malformed text. Nesting is bounded by
// JsonValue::kMaxDepth, so a run of brackets cannot overflow the stack.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace acsel::obs {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Deepest array/object nesting parse() accepts; deeper input throws.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parses one JSON document; trailing non-whitespace is an error.
  static JsonValue parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }

  /// Typed accessors; each throws acsel::Error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  /// Array elements, in document order.
  const std::vector<JsonValue>& items() const;
  /// Object members, in document order (duplicate keys keep the last).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup: nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws acsel::Error when absent.
  const JsonValue& at(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes `text` for inclusion between double quotes in a JSON document
/// (quotes, backslashes, and control characters; everything else verbatim).
std::string json_escape(std::string_view text);

}  // namespace acsel::obs
