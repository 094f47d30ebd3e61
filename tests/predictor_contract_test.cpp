// The core::Predictor contract, checked against both implementations
// (cluster-cart and gp-sqexp): classification is deterministic and
// consistent with predict(), every estimate carries a finite non-negative
// sigma, serialization round-trips bit-exactly through the type-tagged
// factory, foreign/newer envelopes fail with typed errors, and const
// predict() is safe to call from many threads at once (the serving
// layer's no-lock assumption; this test also runs under TSan in CI).
// Plus closed-form 1-D checks of the GP math itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/gp_model.h"
#include "core/model.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "linalg/matrix.h"
#include "soc/machine.h"
#include "util/error.h"
#include "util/strings.h"
#include "workloads/suite.h"

namespace acsel::core {
namespace {

struct NamedPredictor {
  const char* name;
  PredictorPtr predictor;
};

class PredictorContractTest : public ::testing::Test {
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
    predictors_ = new std::vector<NamedPredictor>{};
    predictors_->push_back(
        {"cluster-cart",
         train_predictor(*characterizations_, options).predictor});
    options.predictor = PredictorKind::GaussianProcess;
    predictors_->push_back(
        {"gp-sqexp",
         train_predictor(*characterizations_, options).predictor});
  }

  static void TearDownTestSuite() {
    delete predictors_;
    delete characterizations_;
  }

  static std::vector<KernelCharacterization>* characterizations_;
  static std::vector<NamedPredictor>* predictors_;
};

std::vector<KernelCharacterization>*
    PredictorContractTest::characterizations_ = nullptr;
std::vector<NamedPredictor>* PredictorContractTest::predictors_ = nullptr;

TEST_F(PredictorContractTest, KindMatchesFamilyTag) {
  EXPECT_EQ((*predictors_)[0].predictor->kind(), TrainedModel::kKind);
  EXPECT_EQ((*predictors_)[1].predictor->kind(), GpPredictor::kKind);
}

TEST_F(PredictorContractTest, ClassifyIsDeterministicAndMatchesPredict) {
  for (const auto& [name, predictor] : *predictors_) {
    SCOPED_TRACE(name);
    for (const auto& characterization : *characterizations_) {
      const std::size_t cluster = predictor->classify(characterization.samples);
      EXPECT_LT(cluster, predictor->cluster_count());
      EXPECT_EQ(predictor->classify(characterization.samples), cluster);
      EXPECT_EQ(predictor->predict(characterization.samples).cluster, cluster);
    }
  }
}

TEST_F(PredictorContractTest, EstimatesAreFiniteWithNonNegativeSigma) {
  for (const auto& [name, predictor] : *predictors_) {
    SCOPED_TRACE(name);
    for (const auto& characterization : *characterizations_) {
      const Prediction prediction = predictor->predict(characterization.samples);
      ASSERT_EQ(prediction.per_config.size(),
                predictor->config_space().size());
      EXPECT_FALSE(prediction.frontier.empty());
      for (const Estimate& estimate : prediction.per_config) {
        EXPECT_TRUE(std::isfinite(estimate.power_w));
        EXPECT_TRUE(std::isfinite(estimate.performance));
        EXPECT_GT(estimate.power_w, 0.0);
        EXPECT_GT(estimate.performance, 0.0);
        EXPECT_TRUE(std::isfinite(estimate.power_sigma));
        EXPECT_TRUE(std::isfinite(estimate.performance_sigma));
        EXPECT_GE(estimate.power_sigma, 0.0);
        EXPECT_GE(estimate.performance_sigma, 0.0);
      }
    }
  }
}

TEST_F(PredictorContractTest, GpReportsStrictlyPositivePowerSigma) {
  // The GP's raison d'être: a genuine posterior interval at every
  // frontier configuration (and the prior interval, an upper bound on it,
  // elsewhere), not a single global residual constant.
  const auto& gp = (*predictors_)[1].predictor;
  const Prediction prediction =
      gp->predict(characterizations_->front().samples);
  for (const Estimate& estimate : prediction.per_config) {
    EXPECT_GT(estimate.power_sigma, 0.0);
  }
}

TEST_F(PredictorContractTest, EnvelopeNamesTheKindAndVersion) {
  for (const auto& [name, predictor] : *predictors_) {
    SCOPED_TRACE(name);
    const std::string text = predictor->serialize();
    const std::string expected =
        "acsel-predictor " + std::string{predictor->kind()} + " v1\n";
    EXPECT_EQ(text.substr(0, expected.size()), expected);
  }
}

TEST_F(PredictorContractTest, RoundTripsBitExactlyThroughTheFactory) {
  for (const auto& [name, predictor] : *predictors_) {
    SCOPED_TRACE(name);
    const std::string text = predictor->serialize();
    const PredictorPtr restored = parse_predictor(text);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->kind(), predictor->kind());
    EXPECT_EQ(restored->cluster_count(), predictor->cluster_count());
    // Same bytes out...
    EXPECT_EQ(restored->serialize(), text);
    // ...and bit-identical predictions on every configuration.
    for (const auto& characterization : *characterizations_) {
      const Prediction original = predictor->predict(characterization.samples);
      const Prediction parsed = restored->predict(characterization.samples);
      ASSERT_EQ(parsed.per_config.size(), original.per_config.size());
      EXPECT_EQ(parsed.cluster, original.cluster);
      for (std::size_t i = 0; i < original.per_config.size(); ++i) {
        EXPECT_EQ(parsed.per_config[i].power_w,
                  original.per_config[i].power_w);
        EXPECT_EQ(parsed.per_config[i].performance,
                  original.per_config[i].performance);
        EXPECT_EQ(parsed.per_config[i].power_sigma,
                  original.per_config[i].power_sigma);
        EXPECT_EQ(parsed.per_config[i].performance_sigma,
                  original.per_config[i].performance_sigma);
      }
    }
  }
}

TEST_F(PredictorContractTest, LegacyModelHeaderStillParses) {
  // Pre-envelope files ("acsel-model v1") must keep loading as
  // cluster-cart v1 — the on-disk fleet does not retrain on upgrade.
  const auto& cart = (*predictors_)[0].predictor;
  const std::string text = cart->serialize();
  const std::string body = text.substr(text.find('\n') + 1);
  const PredictorPtr restored = parse_predictor("acsel-model v1\n" + body);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->kind(), TrainedModel::kKind);
  EXPECT_EQ(restored->serialize(), text);
}

TEST_F(PredictorContractTest, UnknownKindIsATypedRejection) {
  const auto& cart = (*predictors_)[0].predictor;
  const std::string text = cart->serialize();
  const std::string body = text.substr(text.find('\n') + 1);
  try {
    parse_predictor("acsel-predictor neural-tangent v1\n" + body);
    FAIL() << "unknown kind must not parse";
  } catch (const UnknownPredictorKindError& error) {
    EXPECT_EQ(error.predictor_kind(), "neural-tangent");
  }
}

TEST_F(PredictorContractTest, NewerVersionIsATypedRejection) {
  const auto& cart = (*predictors_)[0].predictor;
  const std::string text = cart->serialize();
  const std::string body = text.substr(text.find('\n') + 1);
  EXPECT_THROW(parse_predictor("acsel-predictor cluster-cart v2\n" + body),
               UnsupportedPredictorVersionError);
  EXPECT_THROW(parse_predictor("acsel-predictor gp-sqexp v7\n" + body),
               UnsupportedPredictorVersionError);
  // 2^32 + 1 must not wrap onto the supported v1.
  EXPECT_THROW(
      parse_predictor("acsel-predictor gp-sqexp v4294967297\n" + body),
      UnsupportedPredictorVersionError);
}

TEST_F(PredictorContractTest, GpOverflowingShapeIsATypedRejection) {
  // n·d + n wraps to 0 for n = 2^63, d = 1: the line must fail the
  // field-count check, not reach the allocator (std::length_error).
  std::vector<std::string> lines =
      split((*predictors_)[1].predictor->serialize(), '\n');
  lines[2] = "9223372036854775808 1 1 1 1";  // the first power GP
  EXPECT_THROW(parse_predictor(join(lines, "\n")), Error);
}

TEST_F(PredictorContractTest, MalformedEnvelopesAreTypedRejections) {
  EXPECT_THROW(parse_predictor(""), PredictorFormatError);
  EXPECT_THROW(parse_predictor("acsel-predictor\n"), PredictorFormatError);
  EXPECT_THROW(parse_predictor("acsel-predictor cluster-cart\n"),
               PredictorFormatError);
  EXPECT_THROW(parse_predictor("acsel-predictor cluster-cart one\n"),
               PredictorFormatError);
  EXPECT_THROW(parse_predictor("acsel-predictor cluster-cart v0\n"),
               PredictorFormatError);
  EXPECT_THROW(parse_predictor("not-a-predictor at all\n"),
               PredictorFormatError);
  // All typed rejections stay catchable as plain acsel::Error, so
  // pre-existing transport catch sites keep working.
  EXPECT_THROW(parse_predictor("acsel-predictor x v1\n"), Error);
}

TEST_F(PredictorContractTest, ConcurrentPredictMatchesSerial) {
  // The serving contract: one shared immutable model, many threads, no
  // locks. Every thread must see exactly the serial answers.
  for (const auto& [name, predictor] : *predictors_) {
    SCOPED_TRACE(name);
    std::vector<Prediction> serial;
    for (const auto& characterization : *characterizations_) {
      serial.push_back(predictor->predict(characterization.samples));
    }
    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < characterizations_->size(); ++k) {
          const Prediction p =
              predictor->predict((*characterizations_)[k].samples);
          if (p.cluster != serial[k].cluster ||
              p.per_config.size() != serial[k].per_config.size()) {
            ++mismatches[t];
            continue;
          }
          for (std::size_t i = 0; i < p.per_config.size(); ++i) {
            if (p.per_config[i].power_w != serial[k].per_config[i].power_w ||
                p.per_config[i].power_sigma !=
                    serial[k].per_config[i].power_sigma) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    }
  }
}

// ------------------------------------------------ GP math, closed form --

TEST(GpRegressor, SinglePointPosteriorMatchesClosedForm) {
  // One training point x=0, y=2 under a constant-mean prior (the target
  // mean, here exactly 2): the posterior mean is flat at 2, and the
  // predictive variance is s² + nv - k(t,0)² / (s² + nv).
  linalg::Matrix x{1, 1};
  x(0, 0) = 0.0;
  const std::vector<double> y{2.0};
  GpHyperparams hp;
  hp.length_scale = 1.0;
  hp.signal_variance = 1.0;
  hp.noise_fraction = 0.25;  // nv = 0.25
  const GpRegressor gp = GpRegressor::fit(x, y, hp);
  ASSERT_EQ(gp.training_rows(), 1u);
  EXPECT_DOUBLE_EQ(gp.noise_variance(), 0.25);
  for (const double t : {0.0, 0.5, 1.0, 3.0}) {
    const auto posterior = gp.predict(std::vector<double>{t});
    EXPECT_NEAR(posterior.mean, 2.0, 1e-12) << "t=" << t;
    const double k = std::exp(-t * t / 2.0);
    const double expected_var = 1.0 + 0.25 - k * k / 1.25;
    EXPECT_NEAR(posterior.variance, expected_var, 1e-12) << "t=" << t;
  }
}

TEST(GpRegressor, TwoPointPosteriorMatchesHandInvertedKernel) {
  // Two 1-D points; the 2x2 system (K + nv I) alpha = y - mean is
  // invertible by hand, so mean and variance have closed forms.
  linalg::Matrix x{2, 1};
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<double> y{1.0, 3.0};
  GpHyperparams hp;
  hp.length_scale = 1.0;
  hp.signal_variance = 2.0;
  hp.noise_fraction = 0.05;  // nv = 0.1
  const GpRegressor gp = GpRegressor::fit(x, y, hp);

  const double s2 = 2.0, nv = 0.1;
  const double k01 = s2 * std::exp(-0.5);  // k(0,1)
  const double d = s2 + nv;                // diagonal entries
  const double det = d * d - k01 * k01;
  // alpha = (K + nv I)^-1 (y - ybar), ybar = 2.
  const double r0 = -1.0, r1 = 1.0;
  const double a0 = (d * r0 - k01 * r1) / det;
  const double a1 = (-k01 * r0 + d * r1) / det;

  for (const double t : {0.25, 0.75, 2.0}) {
    const double k0 = s2 * std::exp(-t * t / 2.0);
    const double k1 = s2 * std::exp(-(t - 1.0) * (t - 1.0) / 2.0);
    const double expected_mean = 2.0 + k0 * a0 + k1 * a1;
    // kᵀ (K + nv I)^-1 k via the same hand inverse.
    const double q0 = (d * k0 - k01 * k1) / det;
    const double q1 = (-k01 * k0 + d * k1) / det;
    const double expected_var = s2 + nv - (k0 * q0 + k1 * q1);
    const auto posterior = gp.predict(std::vector<double>{t});
    EXPECT_NEAR(posterior.mean, expected_mean, 1e-12) << "t=" << t;
    EXPECT_NEAR(posterior.variance, expected_var, 1e-12) << "t=" << t;
  }
}

TEST(GpRegressor, NearNoiselessGpInterpolatesItsTrainingPoints) {
  linalg::Matrix x{3, 1};
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = 2.5;
  const std::vector<double> y{1.0, -0.5, 4.0};
  GpHyperparams hp;
  hp.length_scale = 1.0;
  hp.signal_variance = 4.0;
  hp.noise_fraction = 1e-9;
  const GpRegressor gp = GpRegressor::fit(x, y, hp);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const auto posterior = gp.predict(std::vector<double>{x(i, 0)});
    EXPECT_NEAR(posterior.mean, y[i], 1e-6);
    // At a training point nearly all variance is explained away.
    EXPECT_LT(posterior.variance, 1e-4);
  }
}

TEST(GpRegressor, VarianceGrowsAwayFromTheTrainingData) {
  linalg::Matrix x{2, 1};
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<double> y{0.0, 1.0};
  GpHyperparams hp;
  hp.length_scale = 0.5;
  hp.signal_variance = 1.0;
  const GpRegressor gp = GpRegressor::fit(x, y, hp);
  const double near = gp.predict(std::vector<double>{0.5}).variance;
  const double far = gp.predict(std::vector<double>{5.0}).variance;
  EXPECT_LT(near, far);
  // Far from all data the posterior reverts to prior + noise.
  EXPECT_NEAR(far, gp.signal_variance() + gp.noise_variance(), 1e-9);
}

TEST(GpRegressor, ResolvesHyperparametersFromDataWhenUnset) {
  linalg::Matrix x{4, 1};
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = 2.0;
  x(3, 0) = 3.0;
  const std::vector<double> y{0.0, 2.0, 1.0, 3.0};
  const GpRegressor gp = GpRegressor::fit(x, y);  // all defaults: resolve
  EXPECT_GT(gp.length_scale(), 0.0);
  EXPECT_GT(gp.signal_variance(), 0.0);
  EXPECT_GT(gp.noise_variance(), 0.0);
}

TEST(GpRegressor, SerializeParseRoundTripsBitExactly) {
  linalg::Matrix x{3, 2};
  x(0, 0) = 0.1;
  x(0, 1) = -1.7;
  x(1, 0) = 2.3;
  x(1, 1) = 0.9;
  x(2, 0) = -0.4;
  x(2, 1) = 1.0 / 3.0;
  const std::vector<double> y{1.0 / 7.0, -2.5, 3.25};
  const GpRegressor gp = GpRegressor::fit(x, y);
  const GpRegressor restored = GpRegressor::parse(gp.serialize());
  EXPECT_EQ(restored.serialize(), gp.serialize());
  for (const auto& point : {std::vector<double>{0.0, 0.0},
                            std::vector<double>{1.5, -0.5}}) {
    const auto a = gp.predict(point);
    const auto b = restored.predict(point);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.variance, b.variance);
  }
}

TEST(GpRegressor, OverflowingShapesAreTypedRejections) {
  // Shapes whose n·(d+1) overflows, or that the line does not hold. The
  // first passed the old check (n·d + n wraps to 0) and then threw an
  // untyped std::length_error.
  for (const char* line :
       {"9223372036854775808 1 1 1 1", "1 18446744073709551615 1 1 1",
        "18446744073709551615 18446744073709551615 1 1 1",
        "4294967296 4294967295 1 1 1", "2 1 1 1 1 0.5 0.25 1"}) {
    EXPECT_THROW(GpRegressor::parse(line), Error) << line;
  }
}

TEST(GpRegressor, PredictRowsMatchesPredictPerRow) {
  // A 3-D GP; each block mixes a training point, a far point, duplicate
  // rows and scattered points. Every row of predict_rows must be bitwise
  // the single-row predict.
  constexpr std::size_t n = 40;
  linalg::Matrix x{n, 3};
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x(i, 0) = std::sin(t);
    x(i, 1) = std::cos(1.7 * t);
    x(i, 2) = 0.05 * t;
    y[i] = std::sin(2.0 * t) + 0.1 * t;
  }
  const GpRegressor gp = GpRegressor::fit(x, y);
  for (const std::size_t m : {1u, 2u, 27u, 54u, 300u}) {
    SCOPED_TRACE(m);
    linalg::Matrix points{m, 3};
    for (std::size_t r = 0; r < m; ++r) {
      const double t = static_cast<double>(r);
      const std::vector<double> row =
          r == 0   ? std::vector<double>{x(7, 0), x(7, 1), x(7, 2)}
          : r == 1 ? std::vector<double>{1e3, -1e3, 1e3}
          : r % 5 == 4
              ? std::vector<double>{points(r - 1, 0), points(r - 1, 1),
                                    points(r - 1, 2)}
              : std::vector<double>{std::sin(0.3 * t), std::cos(t), 0.01 * t};
      std::copy(row.begin(), row.end(), points.row(r).begin());
    }
    const std::vector<GpRegressor::MeanVariance> rows = gp.predict_rows(points);
    ASSERT_EQ(rows.size(), m);
    for (std::size_t r = 0; r < m; ++r) {
      const GpRegressor::MeanVariance one = gp.predict(points.row(r));
      EXPECT_EQ(std::memcmp(&rows[r], &one, sizeof one), 0) << "row " << r;
    }
    if (m >= 2) {
      // Far from every training point the posterior is the prior + noise.
      EXPECT_EQ(rows[1].variance, gp.signal_variance() + gp.noise_variance());
    }
  }
  EXPECT_TRUE(gp.predict_rows(linalg::Matrix{0, 3}).empty());
  EXPECT_THROW(gp.predict_rows(linalg::Matrix{2, 4}), Error);
}

TEST(GpRegressor, SubsamplesDeterministicallyBeyondMaxRows) {
  constexpr std::size_t n = 40;
  linalg::Matrix x{n, 1};
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i % 5);
  }
  const GpRegressor a = GpRegressor::fit(x, y, {}, 16);
  const GpRegressor b = GpRegressor::fit(x, y, {}, 16);
  EXPECT_LE(a.training_rows(), 16u);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(GpRegressor, RefusesMaxRowsPastWhatParseAccepts) {
  // parse() refuses more than kMaxTrainingRows rows, so fit() must never
  // keep more: every fitted model round-trips.
  linalg::Matrix x{4, 1};
  const std::vector<double> y{0.0, 1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i);
  }
  EXPECT_NO_THROW(GpRegressor::fit(x, y, {}, GpRegressor::kMaxTrainingRows));
  EXPECT_THROW(GpRegressor::fit(x, y, {}, GpRegressor::kMaxTrainingRows + 1),
               Error);
  EXPECT_THROW(GpRegressor::fit(x, y, {}, 0), Error);
}

}  // namespace
}  // namespace acsel::core
