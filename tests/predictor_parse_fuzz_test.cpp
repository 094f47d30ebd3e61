// Seeded fuzz sweep of parse_predictor, in serve_codec_fuzz_test's style:
// no corpus, fixed seeds, every case reproducible from its seed and index.
//  - Round-trip: small cart and gp predictors, trained on a seeded pick of
//    kernels, serialize -> parse -> serialize byte-equal and predict
//    bitwise-equal.
//  - Size limits: every unsigned-integer token of both predictors' text
//    (each size field among them, and the envelope version) set to 0,
//    2^32, 2^63 and SIZE_MAX, and a GP line claiming more training rows
//    than GpRegressor::kMaxTrainingRows.
//  - Mutation: token edits, truncations, dropped and duplicated lines, and
//    bit flips.
// A mutated text may fail to parse only with an acsel::Error subclass, and
// one that parses must then predict and serialize under the same rule.
// No single allocation meanwhile may exceed a small multiple of the input
// (this binary replaces operator new to enforce it), so a count the input
// does not back never reaches the allocator. A hang fails the ctest
// timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "soc/machine.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads/suite.h"

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

namespace acsel::core {
namespace {

constexpr int kCasesPerSeed = 500;

/// Kernels characterized once, and the cart and gp predictors whose text
/// the size and mutation sweeps start from.
struct Corpus {
  std::vector<KernelCharacterization> characterizations;
  std::vector<std::string> texts;

  Corpus() {
    soc::Machine machine{soc::MachineSpec{}, 2024};
    const auto suite = workloads::Suite::standard();
    for (const auto& instance : suite.instances()) {
      characterizations.push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations.size() == 12) {
        break;
      }
    }
    TrainerOptions options;
    options.clusters = 3;
    options.gp_max_rows = 16;
    texts.push_back(
        train_predictor(characterizations, options).predictor->serialize());
    options.predictor = PredictorKind::GaussianProcess;
    texts.push_back(
        train_predictor(characterizations, options).predictor->serialize());
  }
};

const Corpus& corpus() {
  static const Corpus state;
  return state;
}

/// Parses `text` under the allocation cap, then predicts and serializes
/// what parsed. Returns what broke the contract, or "" if nothing did.
std::string violation(const std::string& text) {
  g_over_cap.store(false);
  g_allocation_cap.store(16 * text.size() + 65536);
  std::string what;
  try {
    const PredictorPtr parsed = parse_predictor(text);
    (void)parsed->predict(corpus().characterizations.front().samples);
    (void)parsed->serialize();
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

bool is_unsigned(const std::string& token) {
  return !token.empty() &&
         token.find_first_not_of("0123456789") == std::string::npos;
}

std::string edit_token(const std::string& text, std::size_t line,
                       std::size_t token, const std::string& value) {
  std::vector<std::string> lines = split(text, '\n');
  std::vector<std::string> tokens = split(lines[line], ' ');
  tokens[token] = value;
  lines[line] = join(tokens, " ");
  return join(lines, "\n");
}

TEST(PredictorParseFuzz, EveryIntegerFieldAtItsLimits) {
  const char* const limits[] = {"0", "4294967296", "9223372036854775808",
                                "18446744073709551615"};
  std::size_t cases = 0;
  for (const std::string& text : corpus().texts) {
    const std::vector<std::string> lines = split(text, '\n');
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::vector<std::string> tokens = split(lines[l], ' ');
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        // The envelope's "v1" is a size field behind its prefix.
        const bool version = l == 0 && t + 1 == tokens.size();
        if (!version && !is_unsigned(tokens[t])) {
          continue;
        }
        for (const char* limit : limits) {
          std::string value{limit};
          if (version) {
            value.insert(value.begin(), 'v');
          }
          const std::string bad = edit_token(text, l, t, value);
          ASSERT_EQ(violation(bad), "")
              << "line " << l << " token " << t << " = " << value;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 1000u);
}

TEST(PredictorParseFuzz, RefusesGpRowCountPastTheCap) {
  // A GP line of n = 2000 one-feature rows takes under 13 KB of text, but
  // fitting it would allocate two n × n matrices (32 MB each) and factor
  // in O(n³). The parser must refuse it with its typed error before any
  // of that: within the allocation cap, and quickly.
  constexpr std::size_t kRows = 2000;
  std::string line = std::to_string(kRows) + " 1 1 1 0.01";
  for (std::size_t i = 0; i < kRows; ++i) {
    line += ' ' + std::to_string(i);
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    line += " 0";
  }
  std::vector<std::string> lines = split(corpus().texts[1], '\n');
  ASSERT_TRUE(starts_with(lines[1], "clusters "));
  lines[2] = line;  // the first cluster's power GP
  const std::string text = join(lines, "\n");

  const auto start = std::chrono::steady_clock::now();
  g_over_cap.store(false);
  g_allocation_cap.store(16 * text.size() + 65536);
  bool refused = false;
  try {
    (void)parse_predictor(text);
  } catch (const Error&) {
    refused = true;
  } catch (...) {
  }
  g_allocation_cap.store(SIZE_MAX);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(refused);
  EXPECT_FALSE(g_over_cap.load());
  EXPECT_LT(elapsed.count(), 0.5);
}

class FuzzPredictorText : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPredictorText, TrainedPredictorsRoundTripByteEqual) {
  Rng rng{Rng::mix_seeds(0x5e71a1, GetParam())};
  const auto& all = corpus().characterizations;
  std::vector<KernelCharacterization> pick = all;
  rng.shuffle(pick);
  pick.resize(6 + static_cast<std::size_t>(rng.uniform_index(7)));
  TrainerOptions options;
  options.clusters = 1 + static_cast<std::size_t>(rng.uniform_index(3));
  options.gp_max_rows = 16;
  options.transform = rng.uniform() < 0.5
                          ? linalg::ResponseTransform::Identity
                          : linalg::ResponseTransform::Log1p;
  for (const PredictorKind kind :
       {PredictorKind::ClusterCart, PredictorKind::GaussianProcess}) {
    options.predictor = kind;
    const PredictorPtr trained = train_predictor(pick, options).predictor;
    const std::string text = trained->serialize();
    const PredictorPtr parsed = parse_predictor(text);
    ASSERT_EQ(parsed->serialize(), text);
    for (const auto& c : pick) {
      const Prediction a = trained->predict(c.samples);
      const Prediction b = parsed->predict(c.samples);
      ASSERT_EQ(a.per_config.size(), b.per_config.size());
      for (std::size_t i = 0; i < a.per_config.size(); ++i) {
        ASSERT_EQ(std::memcmp(&a.per_config[i], &b.per_config[i],
                              sizeof(Estimate)),
                  0);
      }
    }
  }
}

std::string random_value(Rng& rng) {
  static const char* const values[] = {
      "0",   "1",    "-1",   "2",  "4294967296", "9223372036854775808",
      "18446744073709551615",      "18446744073709551616",
      "nan", "inf", "-inf", "1e308", "-0", "", "x", "1.5", "v1", "tree"};
  constexpr std::size_t kValues = sizeof values / sizeof values[0];
  const std::uint64_t pick = rng.uniform_index(kValues + 1);
  return pick == kValues ? std::to_string(rng.next_u64())
                         : std::string{values[pick]};
}

void mutate(Rng& rng, std::string& text) {
  switch (rng.uniform_index(5)) {
    case 0: {  // one token replaced
      const std::vector<std::string> lines = split(text, '\n');
      const auto l = static_cast<std::size_t>(rng.uniform_index(lines.size()));
      const std::vector<std::string> tokens = split(lines[l], ' ');
      const auto t =
          static_cast<std::size_t>(rng.uniform_index(tokens.size()));
      text = edit_token(text, l, t, random_value(rng));
      break;
    }
    case 1:  // truncated
      text.resize(static_cast<std::size_t>(rng.uniform_index(text.size())));
      break;
    case 2:    // one line dropped
    case 3: {  // one line duplicated
      std::vector<std::string> lines = split(text, '\n');
      const auto l =
          static_cast<std::ptrdiff_t>(rng.uniform_index(lines.size()));
      if (rng.uniform() < 0.5) {
        lines.erase(lines.begin() + l);
      } else {
        lines.insert(lines.begin() + l, lines[static_cast<std::size_t>(l)]);
      }
      text = join(lines, "\n");
      break;
    }
    default: {  // one bit flipped
      const auto at = static_cast<std::size_t>(rng.uniform_index(text.size()));
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_index(8)));
      break;
    }
  }
}

TEST_P(FuzzPredictorText, MutatedTextYieldsOnlyTypedErrors) {
  Rng rng{Rng::mix_seeds(0xfa11, GetParam())};
  const std::vector<std::string>& texts = corpus().texts;
  for (int c = 0; c < kCasesPerSeed; ++c) {
    std::string text = texts[static_cast<std::size_t>(
        rng.uniform_index(texts.size()))];
    for (std::uint64_t n = 1 + rng.uniform_index(3); n > 0; --n) {
      if (text.empty()) {
        break;
      }
      mutate(rng, text);
    }
    ASSERT_EQ(violation(text), "") << "case " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPredictorText,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace acsel::core
