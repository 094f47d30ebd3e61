#include "obs/json.h"

#include <cstdio>

#include "util/error.h"
#include "util/strings.h"

namespace acsel::obs {

namespace {

/// Appends one Unicode code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parse_value();
    skip_whitespace();
    ACSEL_CHECK_MSG(pos_ == text_.size(),
                    "json: trailing characters after document");
    return value;
  }

 private:
  void fail(const std::string& what) const {
    throw Error{"json: " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string{"expected '"} + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_nested(&JsonParser::parse_object);
      case '[':
        return parse_nested(&JsonParser::parse_array);
      case '"': {
        JsonValue value;
        value.type_ = JsonValue::Type::String;
        value.string_ = parse_string();
        return value;
      }
      case 't':
      case 'f': {
        JsonValue value;
        value.type_ = JsonValue::Type::Bool;
        value.bool_ = consume_literal("true");
        if (!value.bool_ && !consume_literal("false")) {
          fail("invalid literal");
        }
        return value;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("invalid literal");
        }
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  /// Runs an array or object parser one nesting level down, refusing to
  /// descend past kMaxDepth (the recursion would otherwise follow the input
  /// all the way down the stack).
  JsonValue parse_nested(JsonValue (JsonParser::*parse)()) {
    if (depth_ == JsonValue::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth));
    }
    ++depth_;
    JsonValue value = (this->*parse)();
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;  // consume the backslash
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    const auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    };
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      digits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      digits();
    }
    JsonValue value;
    value.type_ = JsonValue::Type::Number;
    value.number_ = parse_double(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser{text}.document();
}

bool JsonValue::as_bool() const {
  ACSEL_CHECK_MSG(type_ == Type::Bool, "json: value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  ACSEL_CHECK_MSG(type_ == Type::Number, "json: value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  ACSEL_CHECK_MSG(type_ == Type::String, "json: value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  ACSEL_CHECK_MSG(type_ == Type::Array, "json: value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  ACSEL_CHECK_MSG(type_ == Type::Object, "json: value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::Object) {
    return nullptr;
  }
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) {
      found = &value;  // duplicate keys: last one wins, as in parse order
    }
  }
  return found;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* found = find(key);
  ACSEL_CHECK_MSG(found != nullptr, "json: missing key \"" + key + "\"");
  return *found;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace acsel::obs
