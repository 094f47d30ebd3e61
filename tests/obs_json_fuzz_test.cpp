// Seeded fuzz sweep of obs::JsonValue::parse, in predictor_parse_fuzz_test's
// style: no corpus, fixed seeds, every case reproducible from its seed and
// index.
//  - Round-trip: random documents (nested arrays and objects, duplicate
//    keys, strings with control characters, raw UTF-8 and \u escapes incl.
//    surrogate pairs, numbers across the double range, literals, random
//    whitespace), written by this test, parse back to equal trees.
//  - Mutation: bit flips, truncations, byte insertions (plus runs of
//    openers far past the nesting bound) and deletions of those documents.
// A mutated document may fail to parse only with acsel::Error. No single
// allocation meanwhile may exceed what the input can back (this binary
// replaces operator new to enforce it). A hang fails the ctest timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

std::atomic<std::size_t> g_allocation_cap{SIZE_MAX};
std::atomic<bool> g_over_cap{false};

void* capped_alloc(std::size_t size) {
  if (size > g_allocation_cap.load(std::memory_order_relaxed)) {
    g_over_cap.store(true, std::memory_order_relaxed);
    throw std::bad_alloc{};
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* capped_alloc_nothrow(std::size_t size) noexcept {
  try {
    return capped_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// pair up under the sanitizers' allocators too.
void* operator new(std::size_t size) { return capped_alloc(size); }
void* operator new[](std::size_t size) { return capped_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace acsel::obs {
namespace {

constexpr int kDocumentsPerSeed = 50;
constexpr int kMutantsPerDocument = 100;

/// The expected tree of a generated document.
struct Node {
  JsonValue::Type type = JsonValue::Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::u32string string;
  std::vector<Node> items;
  std::vector<std::pair<std::u32string, Node>> members;
};

std::string utf8(const std::u32string& text) {
  std::string out;
  for (const char32_t cp : text) {
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
  return out;
}

/// Writes random documents and the trees they must parse to.
class Writer {
 public:
  explicit Writer(Rng& rng) : rng_(rng) {}

  Node node(int depth) {
    Node out;
    const std::uint64_t kind = rng_.uniform_index(depth >= 5 ? 4 : 6);
    switch (kind) {
      case 0:
        out.type = JsonValue::Type::Null;
        break;
      case 1:
        out.type = JsonValue::Type::Bool;
        out.boolean = rng_.uniform() < 0.5;
        break;
      case 2:
        out.type = JsonValue::Type::Number;
        out.number = number();
        break;
      case 3:
        out.type = JsonValue::Type::String;
        out.string = string();
        break;
      case 4:
        out.type = JsonValue::Type::Array;
        for (std::uint64_t n = rng_.uniform_index(5); n > 0; --n) {
          out.items.push_back(node(depth + 1));
        }
        break;
      default:
        out.type = JsonValue::Type::Object;
        for (std::uint64_t n = rng_.uniform_index(5); n > 0; --n) {
          // Keys from a small alphabet, so duplicates occur.
          std::u32string key(1, U'a' + static_cast<char32_t>(
                                          rng_.uniform_index(4)));
          out.members.emplace_back(std::move(key), node(depth + 1));
        }
        break;
    }
    return out;
  }

  std::string text(const Node& node) {
    std::string out;
    write(node, out);
    space(out);
    return out;
  }

 private:
  double number() {
    switch (rng_.uniform_index(4)) {
      case 0:
        return static_cast<double>(rng_.uniform_index(2001)) - 1000.0;
      case 1:
        return rng_.uniform(-1e6, 1e6);
      case 2:
        return std::ldexp(rng_.normal(),
                          static_cast<int>(rng_.uniform_index(2001)) - 1000);
      default:
        return rng_.uniform() < 0.5 ? -0.0 : 0.0;
    }
  }

  /// Code points from ASCII (control characters included) up to the
  /// supplementary planes, skipping the surrogate range.
  std::u32string string() {
    // {first code point, range size} per class.
    static const std::pair<char32_t, std::uint64_t> kRanges[] = {
        {0x0, 0x80}, {0x80, 0x780}, {0xe000, 0x2000}, {0x10000, 0x100000}};
    std::u32string out;
    for (std::uint64_t n = rng_.uniform_index(12); n > 0; --n) {
      const auto& [first, size] = kRanges[rng_.uniform_index(4)];
      out += first + static_cast<char32_t>(rng_.uniform_index(size));
    }
    return out;
  }

  void space(std::string& out) {
    static const char kSpace[] = {' ', '\t', '\n', '\r'};
    for (std::uint64_t n = rng_.uniform_index(3); n > 0; --n) {
      out += kSpace[rng_.uniform_index(4)];
    }
  }

  void hex4(std::string& out, char32_t unit) {
    static const char kHex[] = "0123456789abcdefABCDEF";
    out += "\\u";
    for (int shift = 12; shift >= 0; shift -= 4) {
      const char32_t digit = (unit >> shift) & 0xf;
      // Either case for the letter digits.
      out += digit >= 10 && rng_.uniform() < 0.5 ? kHex[digit + 6]
                                                 : kHex[digit];
    }
  }

  /// A string literal holding `value`: each code point written raw
  /// (through json_escape) or as a \u escape, surrogate pair above the
  /// basic plane.
  void write_string(const std::u32string& value, std::string& out) {
    out += '"';
    for (const char32_t cp : value) {
      if (rng_.uniform() < 0.5) {
        out += json_escape(utf8(std::u32string(1, cp)));
      } else if (cp < 0x10000) {
        hex4(out, cp);
      } else {
        hex4(out, 0xd800 + ((cp - 0x10000) >> 10));
        hex4(out, 0xdc00 + ((cp - 0x10000) & 0x3ff));
      }
    }
    out += '"';
  }

  void write(const Node& node, std::string& out) {
    space(out);
    switch (node.type) {
      case JsonValue::Type::Null:
        out += "null";
        break;
      case JsonValue::Type::Bool:
        out += node.boolean ? "true" : "false";
        break;
      case JsonValue::Type::Number:
        out += format_double(node.number, 17);
        break;
      case JsonValue::Type::String:
        write_string(node.string, out);
        break;
      case JsonValue::Type::Array:
        out += '[';
        for (std::size_t i = 0; i < node.items.size(); ++i) {
          out += i == 0 ? "" : ",";
          write(node.items[i], out);
        }
        space(out);
        out += ']';
        break;
      case JsonValue::Type::Object:
        out += '{';
        for (std::size_t i = 0; i < node.members.size(); ++i) {
          out += i == 0 ? "" : ",";
          space(out);
          write_string(node.members[i].first, out);
          space(out);
          out += ':';
          write(node.members[i].second, out);
        }
        space(out);
        out += '}';
        break;
    }
  }

  Rng& rng_;
};

/// Whether `parsed` is exactly the tree `expected` describes.
::testing::AssertionResult same_tree(const Node& expected,
                                     const JsonValue& parsed) {
  if (parsed.type() != expected.type) {
    return ::testing::AssertionFailure() << "type differs";
  }
  switch (expected.type) {
    case JsonValue::Type::Null:
      return ::testing::AssertionSuccess();
    case JsonValue::Type::Bool:
      return parsed.as_bool() == expected.boolean
                 ? ::testing::AssertionSuccess()
                 : ::testing::AssertionFailure() << "bool differs";
    case JsonValue::Type::Number:
      return std::signbit(parsed.as_number()) ==
                         std::signbit(expected.number) &&
                     parsed.as_number() == expected.number
                 ? ::testing::AssertionSuccess()
                 : ::testing::AssertionFailure()
                       << "number " << parsed.as_number()
                       << " != " << expected.number;
    case JsonValue::Type::String:
      return parsed.as_string() == utf8(expected.string)
                 ? ::testing::AssertionSuccess()
                 : ::testing::AssertionFailure() << "string differs";
    case JsonValue::Type::Array: {
      if (parsed.items().size() != expected.items.size()) {
        return ::testing::AssertionFailure() << "array length differs";
      }
      for (std::size_t i = 0; i < expected.items.size(); ++i) {
        auto same = same_tree(expected.items[i], parsed.items()[i]);
        if (!same) {
          return same << " at [" << i << "]";
        }
      }
      return ::testing::AssertionSuccess();
    }
    case JsonValue::Type::Object: {
      if (parsed.members().size() != expected.members.size()) {
        return ::testing::AssertionFailure() << "member count differs";
      }
      for (std::size_t i = 0; i < expected.members.size(); ++i) {
        const auto& [key, value] = parsed.members()[i];
        if (key != utf8(expected.members[i].first)) {
          return ::testing::AssertionFailure() << "key differs at " << i;
        }
        auto same = same_tree(expected.members[i].second, value);
        if (!same) {
          return same << " at ." << key;
        }
      }
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure() << "unknown type";
}

/// Parses `text` under the allocation cap. Returns what broke the
/// contract, or "" if nothing did. The largest honest allocation is an
/// array's element vector: at most one element per input byte, doubled by
/// vector growth.
std::string violation(const std::string& text) {
  g_over_cap.store(false);
  g_allocation_cap.store(2 * sizeof(JsonValue) * (text.size() + 1) + 65536);
  std::string what;
  try {
    (void)JsonValue::parse(text);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    what = std::string{"untyped exception: "} + e.what();
  } catch (...) {
    what = "non-std exception";
  }
  g_allocation_cap.store(SIZE_MAX);
  if (what.empty() && g_over_cap.load()) {
    what = "allocation past the cap, swallowed";
  }
  return what;
}

void mutate(Rng& rng, std::string& text) {
  static const char kStructural[] = "[]{}\":,\\-+.eE0123456789tfnu ";
  const auto at = static_cast<std::size_t>(rng.uniform_index(text.size()));
  switch (rng.uniform_index(5)) {
    case 0:  // one bit flipped
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_index(8)));
      break;
    case 1:  // truncated
      text.resize(at);
      break;
    case 2:  // one byte inserted, structural or arbitrary
      text.insert(at, 1,
                  rng.uniform() < 0.5
                      ? kStructural[rng.uniform_index(sizeof kStructural - 1)]
                      : static_cast<char>(rng.uniform_index(256)));
      break;
    case 3:  // one byte deleted
      text.erase(at, 1);
      break;
    default: {  // a run of openers, up to well past the nesting bound
      const std::size_t run =
          1 + static_cast<std::size_t>(
                  rng.uniform_index(4 * JsonValue::kMaxDepth));
      std::string openers;
      for (std::size_t i = 0; i < run; ++i) {
        openers += rng.uniform() < 0.5 ? "[" : "{\"k\":";
      }
      text.insert(at, openers);
      break;
    }
  }
}

class FuzzJson : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzJson, WrittenDocumentsParseBackToEqualTrees) {
  Rng rng{Rng::mix_seeds(0x7a50, GetParam())};
  Writer writer{rng};
  for (int d = 0; d < kDocumentsPerSeed; ++d) {
    const Node tree = writer.node(0);
    const std::string text = writer.text(tree);
    ASSERT_TRUE(same_tree(tree, JsonValue::parse(text)))
        << "document " << d << ": " << text;
  }
}

TEST_P(FuzzJson, MutatedDocumentsYieldOnlyTypedErrors) {
  Rng rng{Rng::mix_seeds(0xf1ee, GetParam())};
  Writer writer{rng};
  for (int d = 0; d < kDocumentsPerSeed; ++d) {
    const std::string text = writer.text(writer.node(0));
    for (int m = 0; m < kMutantsPerDocument; ++m) {
      std::string mutant = text;
      for (std::uint64_t n = 1 + rng.uniform_index(3); n > 0; --n) {
        if (mutant.empty()) {
          break;
        }
        mutate(rng, mutant);
      }
      ASSERT_EQ(violation(mutant), "") << "document " << d << " mutant " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJson,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace acsel::obs
