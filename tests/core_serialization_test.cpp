// TrainedModel serialization round-trip through parse_predictor(): a model
// trained on a small suite must serialize -> parse into a model with
// *identical* predictions on
// every configuration (coefficients travel with 17 significant digits, so
// doubles survive bit-exactly), and truncated/corrupt input must fail
// loudly with acsel::Error rather than yield a silently different model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "soc/machine.h"
#include "util/error.h"
#include "util/strings.h"
#include "workloads/suite.h"

namespace acsel::core {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc::Machine machine{soc::MachineSpec{}, 1313};
    const auto suite = workloads::Suite::standard();
    characterizations_ = new std::vector<KernelCharacterization>{};
    for (const auto& instance : suite.instances()) {
      characterizations_->push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations_->size() == 8) {
        break;
      }
    }
    TrainerOptions options;
    options.clusters = 3;
    model_ = new TrainedModel{train(*characterizations_, options).model};
    options.predictor = PredictorKind::GaussianProcess;
    options.gp_max_rows = 16;
    gp_ = new PredictorPtr{
        train_predictor(*characterizations_, options).predictor};
  }

  static void TearDownTestSuite() {
    delete gp_;
    delete model_;
    delete characterizations_;
  }

  static std::vector<KernelCharacterization>* characterizations_;
  static TrainedModel* model_;
  static PredictorPtr* gp_;
};

std::vector<KernelCharacterization>* SerializationTest::characterizations_ =
    nullptr;
TrainedModel* SerializationTest::model_ = nullptr;
PredictorPtr* SerializationTest::gp_ = nullptr;

TEST_F(SerializationTest, RoundTripPredictsIdenticallyOnEveryConfig) {
  const PredictorPtr restored = parse_predictor(model_->serialize());
  ASSERT_EQ(restored->cluster_count(), model_->cluster_count());
  const hw::ConfigSpace space;
  for (const auto& characterization : *characterizations_) {
    const Prediction original = model_->predict(characterization.samples);
    const Prediction parsed = restored->predict(characterization.samples);
    EXPECT_EQ(original.cluster, parsed.cluster)
        << characterization.instance_id;
    ASSERT_EQ(original.per_config.size(), space.size());
    ASSERT_EQ(parsed.per_config.size(), space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      // Exact equality, not near-equality: serialization must not move
      // a single bit of any prediction.
      EXPECT_EQ(original.per_config[i].power_w,
                parsed.per_config[i].power_w)
          << characterization.instance_id << " config " << i;
      EXPECT_EQ(original.per_config[i].performance,
                parsed.per_config[i].performance)
          << characterization.instance_id << " config " << i;
      EXPECT_EQ(original.per_config[i].power_sigma,
                parsed.per_config[i].power_sigma);
      EXPECT_EQ(original.per_config[i].performance_sigma,
                parsed.per_config[i].performance_sigma);
    }
    // Identical estimates imply identical frontiers; spot-check anyway.
    ASSERT_EQ(original.frontier.size(), parsed.frontier.size());
    for (std::size_t p = 0; p < original.frontier.size(); ++p) {
      EXPECT_EQ(original.frontier.points()[p].config_index,
                parsed.frontier.points()[p].config_index);
    }
  }
}

TEST_F(SerializationTest, SecondRoundTripIsTextuallyStable) {
  // serialize(parse(serialize(m))) == serialize(m): the format is a
  // fixed point, so repeated save/load cycles cannot drift.
  const std::string once = model_->serialize();
  const std::string twice = parse_predictor(once)->serialize();
  EXPECT_EQ(once, twice);
}

TEST_F(SerializationTest, TruncatedInputIsRejected) {
  const std::string text = model_->serialize();
  // Cutting the text anywhere — mid-header, mid-cluster, mid-tree — must
  // throw, never construct a partial model.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, text.size() / 4, text.size() / 2,
        3 * text.size() / 4}) {
    EXPECT_THROW(parse_predictor(text.substr(0, keep)), Error)
        << "kept " << keep << " of " << text.size() << " bytes";
  }
}

TEST_F(SerializationTest, CorruptInputIsRejected) {
  const std::string text = model_->serialize();
  {
    std::string bad = text;
    bad[0] = 'x';  // wrong header magic
    EXPECT_THROW(parse_predictor(bad), Error);
  }
  {
    // Claim more clusters than the payload holds.
    std::string bad = text;
    const std::size_t pos = bad.find("clusters ");
    bad.replace(pos, bad.find('\n', pos) - pos, "clusters 99");
    EXPECT_THROW(parse_predictor(bad), Error);
  }
  {
    // Non-numeric garbage inside a coefficient line.
    std::string bad = text;
    const std::size_t line_start = bad.find('\n', bad.find("clusters")) + 1;
    const std::size_t field = bad.find(' ', line_start + 2);
    bad.replace(field + 1, 3, "zzz");
    EXPECT_THROW(parse_predictor(bad), Error);
  }
  {
    // Drop the tree section entirely.
    std::string bad = text.substr(0, text.find("tree\n"));
    EXPECT_THROW(parse_predictor(bad), Error);
  }
}

TEST_F(SerializationTest, WrongFeatureCountIsRejectedAtParse) {
  // A regression line with one slope too few parses as a LinearModel, but
  // the model's per-configuration table cannot be built from it: parsing
  // must throw, not read past the coefficients at predict time.
  const std::string text = model_->serialize();
  const auto drop_last_slope = [&](std::size_t line_index) {
    std::vector<std::string> lines = split(text, '\n');
    auto fields = split(lines[line_index], ' ');
    fields[7] = std::to_string(parse_size(fields[7]) - 1);
    fields.pop_back();
    lines[line_index] = join(fields, " ");
    return join(lines, "\n");
  };
  // Line 0 is the envelope, line 1 the cluster count, then each cluster's
  // power, perf_cpu and perf_gpu lines.
  for (const std::size_t line : {2u, 3u, 4u, 5u}) {
    const std::string bad = drop_last_slope(line);
    EXPECT_THROW(parse_predictor(bad), Error) << "line " << line;
  }
}

TEST_F(SerializationTest, GpWrongFeatureCountIsRejectedAtParse) {
  // The gp-sqexp twin of the test above: a GP line with one input column
  // too few is a valid GpRegressor, but every predict would throw on it,
  // so parsing the predictor must throw instead.
  const std::string text = (*gp_)->serialize();
  const auto drop_last_column = [&](std::size_t line_index) {
    std::vector<std::string> lines = split(text, '\n');
    const auto fields = split(lines[line_index], ' ');
    const std::size_t n = parse_size(fields[0]);
    const std::size_t d = parse_size(fields[1]);
    std::vector<std::string> out{fields[0], std::to_string(d - 1), fields[2],
                                 fields[3], fields[4]};
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c + 1 < d; ++c) {
        out.push_back(fields[5 + r * d + c]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(fields[5 + n * d + i]);
    }
    lines[line_index] = join(out, " ");
    EXPECT_NO_THROW(GpRegressor::parse(lines[line_index]));
    return join(lines, "\n");
  };
  // Line 0 is the envelope, line 1 the cluster count, then the first
  // cluster's power, perf_cpu and perf_gpu lines.
  for (const std::size_t line : {2u, 3u, 4u}) {
    const std::string bad = drop_last_column(line);
    EXPECT_THROW(parse_predictor(bad), Error) << "line " << line;
  }
}

}  // namespace
}  // namespace acsel::core
