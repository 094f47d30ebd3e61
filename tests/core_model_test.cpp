// Tests for the offline trainer and the trained model's online path:
// clustering, regression quality, classification, prediction, and
// serialization, plus the gp-sqexp predictor's bitwise agreement with
// per-configuration posteriors. One shared characterization pass keeps
// the suite fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adapt/canary.h"
#include "core/features.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "linalg/cholesky.h"
#include "linalg/tile_solve.h"
#include "pareto/frontier.h"
#include "soc/machine.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads/suite.h"

namespace acsel::core {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new soc::Machine{soc::MachineSpec{}, 7777};
    suite_ = new workloads::Suite{workloads::Suite::standard()};
    characterizations_ = new std::vector<KernelCharacterization>{
        eval::characterize(*machine_, *suite_)};
    TrainingResult result = train(*characterizations_);
    report_ = new TrainingReport{std::move(result.report)};
    model_ = new TrainedModel{std::move(result.model)};
  }

  static void TearDownTestSuite() {
    delete model_;
    delete report_;
    delete characterizations_;
    delete suite_;
    delete machine_;
  }

  static soc::Machine* machine_;
  static workloads::Suite* suite_;
  static std::vector<KernelCharacterization>* characterizations_;
  static TrainingReport* report_;
  static TrainedModel* model_;

  const KernelCharacterization& characterization(const std::string& id) {
    for (const auto& c : *characterizations_) {
      if (c.instance_id == id) {
        return c;
      }
    }
    throw Error{"no characterization: " + id};
  }
};

soc::Machine* ModelTest::machine_ = nullptr;
workloads::Suite* ModelTest::suite_ = nullptr;
std::vector<KernelCharacterization>* ModelTest::characterizations_ = nullptr;
TrainingReport* ModelTest::report_ = nullptr;
TrainedModel* ModelTest::model_ = nullptr;

TEST_F(ModelTest, TrainsFiveClusters) {
  EXPECT_EQ(model_->cluster_count(), 5u);  // §III-B
  ASSERT_EQ(report_->cluster_sizes.size(), 5u);
  for (const std::size_t size : report_->cluster_sizes) {
    EXPECT_GE(size, 1u);
  }
}

TEST_F(ModelTest, ClustersSpanMultipleBenchmarkInputs) {
  // §III-B: "Each cluster contains kernels from at least three of the
  // five benchmark/input combinations" — clusters must not be
  // single-benchmark artifacts. Check each cluster spans >= 2 groups.
  std::vector<std::set<std::string>> groups_in_cluster(
      model_->cluster_count());
  for (std::size_t i = 0; i < characterizations_->size(); ++i) {
    groups_in_cluster[report_->clustering.assignment[i]].insert(
        (*characterizations_)[i].group);
  }
  std::size_t multi_group = 0;
  for (const auto& groups : groups_in_cluster) {
    if (groups.size() >= 2) {
      ++multi_group;
    }
  }
  EXPECT_GE(multi_group, 4u);
}

TEST_F(ModelTest, PowerRegressionsFitWell) {
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_GT(report_->power_r2[c], 0.6) << "cluster " << c;
  }
}

TEST_F(ModelTest, PerfRegressionsCaptureScaling) {
  double mean_cpu = 0.0;
  double mean_gpu = 0.0;
  for (std::size_t c = 0; c < 5; ++c) {
    mean_cpu += report_->perf_cpu_r2[c];
    mean_gpu += report_->perf_gpu_r2[c];
  }
  EXPECT_GT(mean_cpu / 5.0, 0.5);
  EXPECT_GT(mean_gpu / 5.0, 0.5);
}

TEST_F(ModelTest, TreeClassifiesTrainingKernelsWell) {
  EXPECT_GT(report_->tree_training_accuracy, 0.75);
  EXPECT_GE(model_->tree().depth(), 2u);
}

TEST_F(ModelTest, ClassifyMatchesTrainingAssignmentMostly) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < characterizations_->size(); ++i) {
    if (model_->classify((*characterizations_)[i].samples) ==
        report_->clustering.assignment[i]) {
      ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) /
                static_cast<double>(characterizations_->size()),
            0.75);
}

TEST_F(ModelTest, PredictionCoversAllConfigs) {
  const auto& c = characterization("LULESH-Large/CalcFBHourglassForce");
  const Prediction prediction = model_->predict(c.samples);
  const hw::ConfigSpace space;
  EXPECT_EQ(prediction.per_config.size(), space.size());
  EXPECT_LT(prediction.cluster, model_->cluster_count());
  EXPECT_FALSE(prediction.frontier.empty());
  for (const auto& estimate : prediction.per_config) {
    EXPECT_GT(estimate.power_w, 0.0);
    EXPECT_GT(estimate.performance, 0.0);
    EXPECT_GE(estimate.power_sigma, 0.0);
  }
}

TEST_F(ModelTest, PredictionsTrackTruthOnHeldInKernels) {
  // Training kernels should be predicted with sane relative error: median
  // per-config power error under 15%, performance within a factor ~2.
  const auto& c = characterization("SMC-Default/DiffusionFluxX");
  const Prediction prediction = model_->predict(c.samples);
  const hw::ConfigSpace space;
  std::size_t power_close = 0;
  std::size_t perf_close = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const double true_power = c.per_config[i].total_power_w();
    const double true_perf = c.per_config[i].performance();
    if (std::abs(prediction.per_config[i].power_w - true_power) /
            true_power <
        0.15) {
      ++power_close;
    }
    const double ratio = prediction.per_config[i].performance / true_perf;
    if (ratio > 0.5 && ratio < 2.0) {
      ++perf_close;
    }
  }
  EXPECT_GT(power_close, space.size() / 2);
  EXPECT_GT(perf_close, space.size() / 2);
}

TEST_F(ModelTest, PredictedFrontierOrdersDevicesSensibly) {
  // For a strongly GPU-friendly kernel the predicted top-performance
  // configuration must be a GPU one.
  const auto& c = characterization("LU-Large/lud");
  const Prediction prediction = model_->predict(c.samples);
  const hw::ConfigSpace space;
  EXPECT_EQ(
      space.at(prediction.frontier.best_performance().config_index).device,
      hw::Device::Gpu);
}

TEST_F(ModelTest, SerializeParseRoundTripsPredictions) {
  const std::string text = model_->serialize();
  const PredictorPtr restored = parse_predictor(text);
  EXPECT_EQ(restored->cluster_count(), model_->cluster_count());
  const auto& c = characterization("CoMD-EAM/ComputeForce");
  const Prediction a = model_->predict(c.samples);
  const Prediction b = restored->predict(c.samples);
  EXPECT_EQ(a.cluster, b.cluster);
  ASSERT_EQ(a.per_config.size(), b.per_config.size());
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_config[i].power_w, b.per_config[i].power_w);
    EXPECT_DOUBLE_EQ(a.per_config[i].performance,
                     b.per_config[i].performance);
  }
}

// Reference evaluation of one prediction straight from the cluster's
// regressions: full feature rows through LinearModel::predict, then a
// std::sort-based frontier under the (power asc, perf desc, index asc)
// order.
struct ReferencePrediction {
  std::size_t cluster = 0;
  std::vector<Estimate> per_config;
  std::vector<pareto::FrontierPoint> frontier;
};

ReferencePrediction reference_predict(const TrainedModel& model,
                                      const SamplePair& samples) {
  ReferencePrediction out;
  out.cluster = model.classify(samples);
  const TrainedModel::Trio& cluster = model.cluster(out.cluster);
  const hw::ConfigSpace& space = model.config_space();
  for (std::size_t i = 0; i < space.size(); ++i) {
    const hw::Configuration& config = space.at(i);
    const bool on_gpu = config.device == hw::Device::Gpu;
    const linalg::LinearModel& perf_model =
        on_gpu ? cluster.perf_gpu : cluster.perf_cpu;
    const double s_perf =
        on_gpu ? samples.gpu.performance() : samples.cpu.performance();
    Estimate estimate;
    estimate.power_w =
        std::max(1.0, cluster.power.predict(power_features(config, samples)));
    estimate.power_sigma = cluster.power.residual_stddev();
    estimate.performance =
        std::max(1e-6, perf_model.predict(perf_features(config))) * s_perf;
    estimate.performance_sigma = perf_model.residual_stddev() * s_perf;
    out.per_config.push_back(estimate);
  }
  const auto& est = out.per_config;
  std::vector<std::size_t> order(est.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (est[a].power_w != est[b].power_w) {
      return est[a].power_w < est[b].power_w;
    }
    if (est[a].performance != est[b].performance) {
      return est[a].performance > est[b].performance;
    }
    return a < b;
  });
  double best = 0.0;
  for (const std::size_t i : order) {
    if (est[i].performance > best) {
      out.frontier.push_back({i, est[i].power_w, est[i].performance});
      best = est[i].performance;
    }
  }
  return out;
}

void expect_bitwise_equal(const Prediction& got,
                          const ReferencePrediction& want,
                          const std::string& label) {
  ASSERT_EQ(got.cluster, want.cluster) << label;
  ASSERT_EQ(got.per_config.size(), want.per_config.size()) << label;
  for (std::size_t i = 0; i < want.per_config.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.per_config[i], &want.per_config[i],
                          sizeof(Estimate)),
              0)
        << label << " config " << i;
  }
  ASSERT_EQ(got.frontier.size(), want.frontier.size()) << label;
  for (std::size_t p = 0; p < want.frontier.size(); ++p) {
    EXPECT_EQ(std::memcmp(&got.frontier.points()[p], &want.frontier[p],
                          sizeof(pareto::FrontierPoint)),
              0)
        << label << " frontier point " << p;
  }
}

void expect_matches_reference_bitwise(
    const TrainedModel& model,
    const std::vector<KernelCharacterization>& characterizations,
    const std::string& label) {
  for (const auto& c : characterizations) {
    expect_bitwise_equal(model.predict(c.samples),
                         reference_predict(model, c.samples),
                         label + ' ' + c.instance_id);
  }
}

TEST_F(ModelTest, PredictMatchesRegressionsBitwise) {
  // predict() reads a table precomputed at construction; it must answer
  // every suite kernel exactly as the regressions evaluated on full
  // feature rows do, for both response transforms and for trained and
  // parsed models alike.
  ASSERT_EQ(model_->cluster(0).power.options().transform,
            linalg::ResponseTransform::Identity);
  TrainerOptions log1p;
  log1p.transform = linalg::ResponseTransform::Log1p;
  const TrainedModel log1p_model = train(*characterizations_, log1p).model;
  for (const TrainedModel* model :
       {static_cast<const TrainedModel*>(model_), &log1p_model}) {
    const std::string label = model == model_ ? "identity" : "log1p";
    expect_matches_reference_bitwise(*model, *characterizations_,
                                     label + " trained");
    expect_matches_reference_bitwise(
        dynamic_cast<const TrainedModel&>(*parse_predictor(model->serialize())),
        *characterizations_, label + " parsed");
  }
}

// Saves `model`, loads it back through load_predictor(), and expects the
// same text and bitwise the same predictions for every suite kernel; a
// truncated copy of the file must fail to load.
void expect_file_round_trip(
    const Predictor& model,
    const std::vector<KernelCharacterization>& characterizations,
    const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".txt";
  model.save(path);
  const PredictorPtr loaded = load_predictor(path);
  EXPECT_EQ(loaded->kind(), model.kind());
  EXPECT_EQ(loaded->serialize(), model.serialize());
  for (const auto& c : characterizations) {
    const Prediction want = model.predict(c.samples);
    const Prediction got = loaded->predict(c.samples);
    ASSERT_EQ(got.cluster, want.cluster) << c.instance_id;
    ASSERT_EQ(got.per_config.size(), want.per_config.size());
    EXPECT_EQ(std::memcmp(got.per_config.data(), want.per_config.data(),
                          want.per_config.size() * sizeof(Estimate)),
              0)
        << c.instance_id;
    ASSERT_EQ(got.frontier.size(), want.frontier.size()) << c.instance_id;
    EXPECT_EQ(std::memcmp(got.frontier.points().data(),
                          want.frontier.points().data(),
                          want.frontier.size() * sizeof(pareto::FrontierPoint)),
              0)
        << c.instance_id;
  }

  const std::string text = model.serialize();
  {
    std::ofstream out{path, std::ios::binary};
    out << text.substr(0, text.size() / 3);
  }
  EXPECT_THROW(load_predictor(path), Error);
}

TEST_F(ModelTest, SaveLoadFile) {
  expect_file_round_trip(*model_, *characterizations_, "acsel_model");
  EXPECT_THROW(load_predictor("/nonexistent/model.txt"), Error);
}

TEST_F(ModelTest, ParseRejectsGarbage) {
  EXPECT_THROW(parse_predictor(""), Error);
  EXPECT_THROW(parse_predictor("not-a-model\n"), Error);
  EXPECT_THROW(parse_predictor("acsel-model v1\nclusters 0\ntree\n"),
               Error);
}

TEST_F(ModelTest, TrainRejectsTooFewKernels) {
  std::vector<KernelCharacterization> few(characterizations_->begin(),
                                          characterizations_->begin() + 3);
  TrainerOptions options;
  options.clusters = 5;
  EXPECT_THROW(train(few, options), Error);
}

TEST_F(ModelTest, VarianceStabilizingTransformTrains) {
  // The §VI extension must train and predict without blowing up.
  TrainerOptions options;
  options.transform = linalg::ResponseTransform::Log1p;
  const TrainedModel model = train(*characterizations_, options).model;
  const auto& c = characterization("LU-Small/lud");
  const Prediction prediction = model.predict(c.samples);
  for (const auto& estimate : prediction.per_config) {
    EXPECT_TRUE(std::isfinite(estimate.power_w));
    EXPECT_TRUE(std::isfinite(estimate.performance));
    EXPECT_GT(estimate.power_w, 0.0);
  }
}

TEST_F(ModelTest, SingleClusterStillWorks) {
  TrainerOptions options;
  options.clusters = 1;
  const auto [model, report] = train(*characterizations_, options);
  EXPECT_EQ(model.cluster_count(), 1u);
  EXPECT_DOUBLE_EQ(report.tree_training_accuracy, 1.0);  // trivial tree
  const auto& c = characterization("SMC-Default/ChemistryRates");
  EXPECT_EQ(model.classify(c.samples), 0u);
}


// ------------------------------------------------------ gp-sqexp model --

class GpPredictorTest : public ModelTest {
 protected:
  static void SetUpTestSuite() {
    ModelTest::SetUpTestSuite();
    TrainerOptions options;
    options.predictor = PredictorKind::GaussianProcess;
    gp_ = std::dynamic_pointer_cast<const GpPredictor>(
        train_predictor(*characterizations_, options).predictor);
  }

  static void TearDownTestSuite() {
    gp_.reset();
    ModelTest::TearDownTestSuite();
  }

  static std::shared_ptr<const GpPredictor> gp_;
};

std::shared_ptr<const GpPredictor> GpPredictorTest::gp_;

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// L⁻¹ b by scalar forward substitution, one subtraction at a time in j
// order: the order every tiled form of the GP solve must keep.
std::vector<double> reference_forward_solve(const linalg::Matrix& l,
                                            std::span<const double> b) {
  const std::size_t n = b.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) {
      sum -= l(i, j) * v[j];
    }
    v[i] = sum / l(i, i);
  }
  return v;
}

// How a reference GP evaluates its kernel. Separable is the production
// definition: s² exp(-h/2ℓ²) over the first 8 features, times
// exp(-t/2ℓ²) over the rest when there are more. WholeDistance is the
// kernel before it was split, s² exp(-|a-b|²/2ℓ²): the same function in
// exact arithmetic, and the same bits for GPs of at most 8 features.
enum class KernelForm { Separable, WholeDistance };

// Features the separable kernel's head factor reads: the configuration-only
// terms of power_features.
constexpr std::size_t kHeadTerms = 8;
static_assert(kHeadTerms == GpRegressor::kHeadFeatures);

// One GP's posterior as a single-point scalar solve computes it, rebuilt
// from the GP's serialized line: kernel matrix, Cholesky factor and dual
// weights as fitting derives them, then one forward solve per point.
// GpRegressor::predict shares predict_rows' solve, so this is the
// reference that a change in the solve's operation order cannot move
// along with it. K and every k* are built with the same kernel form.
class ReferenceGp {
 public:
  explicit ReferenceGp(const GpRegressor& gp,
                       KernelForm form = KernelForm::Separable)
      : form_(form) {
    const std::vector<std::string> fields = split(gp.serialize(), ' ');
    const std::size_t n = parse_size(fields[0]);
    const std::size_t d = parse_size(fields[1]);
    length_scale_ = parse_double(fields[2]);
    signal_variance_ = parse_double(fields[3]);
    noise_variance_ = parse_double(fields[4]);
    x_ = linalg::Matrix{n, d};
    std::size_t f = 5;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        x_(r, c) = parse_double(fields[f++]);
      }
    }
    std::vector<double> y;
    for (std::size_t i = 0; i < n; ++i) {
      y.push_back(parse_double(fields[f++]));
    }
    for (const double v : y) y_mean_ += v;
    y_mean_ /= static_cast<double>(n);

    linalg::Matrix k{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      k(i, i) = signal_variance_ + noise_variance_;
      for (std::size_t j = 0; j < i; ++j) {
        k(i, j) = kernel(x_.row(i), x_.row(j));
        k(j, i) = k(i, j);
      }
    }
    const linalg::CholeskyFactorization chol{k};
    l_ = chol.l();
    std::vector<double> centered;
    for (const double v : y) centered.push_back(v - y_mean_);
    alpha_ = chol.solve(centered);
  }

  GpRegressor::MeanVariance posterior(std::span<const double> point) const {
    const std::size_t n = x_.rows();
    std::vector<double> k_star(n);
    for (std::size_t i = 0; i < n; ++i) {
      k_star[i] = kernel(x_.row(i), point);
    }
    GpRegressor::MeanVariance out;
    out.mean = y_mean_ + linalg::dot(k_star, alpha_);
    const std::vector<double> v = reference_forward_solve(l_, k_star);
    out.variance = std::max(0.0, prior_variance() - linalg::dot(v, v));
    return out;
  }

  // k(x*,x*) + noise: the variance far from every training row.
  double prior_variance() const { return signal_variance_ + noise_variance_; }

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const {
    const double inv_2l2 = 1.0 / (2.0 * length_scale_ * length_scale_);
    if (form_ == KernelForm::WholeDistance || a.size() <= kHeadTerms) {
      return signal_variance_ * std::exp(-squared_distance(a, b) * inv_2l2);
    }
    const double head =
        signal_variance_ *
        std::exp(-squared_distance(a.first(kHeadTerms), b.first(kHeadTerms)) *
                 inv_2l2);
    const double tail = std::exp(
        -squared_distance(a.subspan(kHeadTerms), b.subspan(kHeadTerms)) *
        inv_2l2);
    return head * tail;
  }

  KernelForm form_;
  double length_scale_ = 0.0;
  double signal_variance_ = 0.0;
  double noise_variance_ = 0.0;
  double y_mean_ = 0.0;
  linalg::Matrix x_;
  linalg::Matrix l_;
  std::vector<double> alpha_;
};

// The per-configuration composition predict() had before it tabulated
// the performance posteriors and batched the power ones.
ReferencePrediction reference_gp_predict(const GpPredictor& model,
                                         const std::vector<ReferenceGp>& gps,
                                         const SamplePair& samples) {
  ReferencePrediction out;
  out.cluster = model.classify(samples);
  const hw::ConfigSpace& space = model.config_space();
  std::vector<double> power;
  std::vector<double> perf;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const hw::Configuration& config = space.at(i);
    const bool on_gpu = config.device == hw::Device::Gpu;
    const ReferenceGp& power_gp = gps[3 * out.cluster];
    const ReferenceGp& perf_gp = gps[3 * out.cluster + (on_gpu ? 2 : 1)];
    const double s_perf =
        on_gpu ? samples.gpu.performance() : samples.cpu.performance();
    const auto power_mv = power_gp.posterior(power_features(config, samples));
    const auto perf_mv = perf_gp.posterior(perf_features(config));
    Estimate estimate;
    estimate.power_w = std::max(1.0, power_mv.mean);
    estimate.power_sigma = std::sqrt(power_mv.variance);
    estimate.performance = std::max(1e-6, perf_mv.mean) * s_perf;
    estimate.performance_sigma = std::sqrt(perf_mv.variance) * s_perf;
    power.push_back(estimate.power_w);
    perf.push_back(estimate.performance);
    out.per_config.push_back(estimate);
  }
  out.frontier = pareto::ParetoFrontier::build(power, perf).points();
  return out;
}

std::vector<ReferenceGp> reference_gps(
    const GpPredictor& model, KernelForm form = KernelForm::Separable) {
  std::vector<ReferenceGp> gps;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const GpPredictor::Trio& surrogate = model.cluster(c);
    gps.emplace_back(surrogate.power, form);
    gps.emplace_back(surrogate.perf_cpu, form);
    gps.emplace_back(surrogate.perf_gpu, form);
  }
  return gps;
}

// predict() solves the power variance at frontier configurations only and
// reports the prior sd elsewhere. So every answer but an off-frontier
// power_sigma must be bitwise the pointwise one, and an off-frontier
// power_sigma must be exactly the prior sd, which bounds the posterior sd
// from above.
void expect_gp_matches_reference_bitwise(
    const GpPredictor& model,
    const std::vector<KernelCharacterization>& characterizations,
    const std::string& label) {
  const std::vector<ReferenceGp> gps = reference_gps(model);
  std::size_t off_frontier = 0;
  for (const auto& c : characterizations) {
    const std::string where = label + ' ' + c.instance_id;
    ReferencePrediction want = reference_gp_predict(model, gps, c.samples);
    const double prior_sigma =
        std::sqrt(gps[3 * want.cluster].prior_variance());
    std::vector<bool> on_frontier(want.per_config.size(), false);
    for (const pareto::FrontierPoint& point : want.frontier) {
      on_frontier[point.config_index] = true;
    }
    for (std::size_t i = 0; i < want.per_config.size(); ++i) {
      if (!on_frontier[i]) {
        EXPECT_GE(prior_sigma, want.per_config[i].power_sigma)
            << where << " config " << i;
        want.per_config[i].power_sigma = prior_sigma;
        ++off_frontier;
      }
    }
    expect_bitwise_equal(model.predict(c.samples), want, where);
  }
  EXPECT_GT(off_frontier, 0u) << label;
}

TEST_F(GpPredictorTest, PredictMatchesPointwisePosteriorsBitwise) {
  // predict() reads tabulated performance posteriors and solves the
  // power variances of the frontier in gathered tiles; it must answer
  // every suite kernel exactly as per-configuration scalar posteriors do
  // (off the frontier, power_sigma is the prior sd), trained and parsed
  // alike.
  ASSERT_NE(gp_, nullptr);
  expect_gp_matches_reference_bitwise(*gp_, *characterizations_, "trained");
  expect_gp_matches_reference_bitwise(
      dynamic_cast<const GpPredictor&>(*parse_predictor(gp_->serialize())),
      *characterizations_, "parsed");

  // Performance GPs fit to negative ratios put every posterior mean below
  // the 1e-6 floor, so the table's clamp is exercised too.
  const hw::ConfigSpace space;
  std::vector<GpPredictor::Trio> clusters;
  for (std::size_t c = 0; c < gp_->cluster_count(); ++c) {
    GpPredictor::Trio surrogate = gp_->cluster(c);
    for (const hw::Device device : {hw::Device::Cpu, hw::Device::Gpu}) {
      std::vector<std::vector<double>> rows;
      std::vector<double> y;
      for (std::size_t i = 0; i < space.size(); ++i) {
        if (space.at(i).device == device) {
          rows.push_back(perf_features(space.at(i)));
          y.push_back(-1.0 - 0.01 * static_cast<double>(i));
        }
      }
      linalg::Matrix x{rows.size(), rows.front().size()};
      for (std::size_t r = 0; r < rows.size(); ++r) {
        std::copy(rows[r].begin(), rows[r].end(), x.row(r).begin());
      }
      (device == hw::Device::Gpu ? surrogate.perf_gpu : surrogate.perf_cpu) =
          GpRegressor::fit(x, y);
    }
    clusters.push_back(std::move(surrogate));
  }
  const GpPredictor clamped{std::move(clusters), gp_->tree()};
  const std::vector<KernelCharacterization> few(
      characterizations_->begin(), characterizations_->begin() + 8);
  for (const auto& c : few) {
    const Prediction prediction = clamped.predict(c.samples);
    const double s_perf = c.samples.cpu.performance();
    ASSERT_EQ(space.at(0).device, hw::Device::Cpu);
    EXPECT_EQ(prediction.per_config.front().performance, 1e-6 * s_perf);
  }
  expect_gp_matches_reference_bitwise(clamped, few, "clamped");
}

TEST_F(GpPredictorTest, SaveLoadFile) {
  ASSERT_NE(gp_, nullptr);
  expect_file_round_trip(*gp_, *characterizations_, "acsel_gp_model");
}

// The full-posterior Prediction a per-point composition gives.
Prediction full_posterior_prediction(const ReferencePrediction& reference) {
  Prediction out;
  out.cluster = reference.cluster;
  out.per_config = reference.per_config;
  std::vector<double> power;
  std::vector<double> perf;
  for (const Estimate& estimate : out.per_config) {
    power.push_back(estimate.power_w);
    perf.push_back(estimate.performance);
  }
  out.frontier = pareto::ParetoFrontier::build(power, perf);
  return out;
}

// Answers every request with one fixed prediction, under another
// predictor's configuration space and tree: what the canary scores when
// a model reports full posteriors.
class FixedPredictor final : public Predictor {
 public:
  FixedPredictor(const Predictor& model, Prediction prediction)
      : model_(&model), prediction_(std::move(prediction)) {}

  std::string_view kind() const override { return model_->kind(); }
  std::size_t cluster_count() const override {
    return model_->cluster_count();
  }
  const hw::ConfigSpace& config_space() const override {
    return model_->config_space();
  }
  std::size_t classify(const SamplePair& samples) const override {
    return model_->classify(samples);
  }
  Prediction predict(const SamplePair&) const override { return prediction_; }
  std::string serialize_body() const override {
    return model_->serialize_body();
  }

 private:
  const Predictor* model_;
  Prediction prediction_;
};

// Sweeps every suite kernel under point and upper-confidence policies,
// every goal, and no cap plus 49 caps from below the lowest predicted
// power to past the highest plus any upper-confidence margin. At each
// step it hands `compare` the model's Scheduler::Choice and the one a
// full-posterior prediction from `gps` gives, and at every 8th cap (the
// canary re-predicts per call) hands `compare_canary` both canary
// scores. Stops at the first fatal failure. Returns how many of the
// model's choices were predicted feasible and infeasible.
template <typename Compare, typename CompareCanary>
std::pair<std::size_t, std::size_t> sweep_decisions(
    const GpPredictor& model, const std::vector<ReferenceGp>& gps,
    const std::vector<KernelCharacterization>& characterizations,
    Compare compare, CompareCanary compare_canary) {
  const SelectionPolicy policies[] = {SelectionPolicy::point_estimate(),
                                      SelectionPolicy::upper_confidence(0.5),
                                      SelectionPolicy::upper_confidence(2.0)};
  const SchedulingGoal goals[] = {SchedulingGoal::MaxPerformance,
                                  SchedulingGoal::MinEnergy,
                                  SchedulingGoal::MinEnergyDelay};
  constexpr int kCapSteps = 48;
  constexpr int kCanaryEvery = 8;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const auto& c : characterizations) {
    const Prediction got = model.predict(c.samples);
    const FixedPredictor reference{
        model, full_posterior_prediction(
                   reference_gp_predict(model, gps, c.samples))};
    const Prediction want = reference.predict(c.samples);
    double lo = got.per_config.front().power_w;
    double hi = lo;
    for (const Estimate& estimate : got.per_config) {
      lo = std::min(lo, estimate.power_w);
      hi = std::max(hi, estimate.power_w);
    }
    std::vector<std::optional<double>> caps{std::nullopt};
    for (int step = 0; step <= kCapSteps; ++step) {
      caps.emplace_back(0.8 * lo + (1.3 * hi - 0.8 * lo) * step / kCapSteps);
    }
    for (const SelectionPolicy& policy : policies) {
      SchedulerOptions options;
      options.policy = policy;
      const Scheduler a{got, options};
      const Scheduler b{want, options};
      for (const SchedulingGoal goal : goals) {
        for (std::size_t k = 0; k < caps.size(); ++k) {
          SCOPED_TRACE(testing::Message()
                       << c.instance_id << " z " << power_risk_z(options)
                       << ' ' << to_string(goal) << " cap "
                       << caps[k].value_or(0.0));
          const Scheduler::Choice x = a.select_goal(goal, caps[k]);
          compare(x, b.select_goal(goal, caps[k]));
          if (testing::Test::HasFatalFailure()) {
            return {feasible, infeasible};
          }
          ++(x.predicted_feasible ? feasible : infeasible);
          if (k % kCanaryEvery == 0) {
            compare_canary(
                adapt::selection_quality(model, c, caps[k], goal, options),
                adapt::selection_quality(reference, c, caps[k], goal,
                                         options));
            if (testing::Test::HasFatalFailure()) {
              return {feasible, infeasible};
            }
          }
        }
      }
    }
  }
  return {feasible, infeasible};
}

TEST_F(GpPredictorTest, FrontierOnlySigmasLeaveEveryDecisionUnchanged) {
  // Off the frontier predict() reports the prior sd instead of the
  // posterior sd. The scheduler reads power_sigma only at frontier points
  // and the canary only at the chosen one, so under point and
  // upper-confidence policies, every goal and caps across each kernel's
  // power range, every choice and every selected sigma must be what full
  // posteriors give.
  ASSERT_NE(gp_, nullptr);
  const auto [feasible, infeasible] = sweep_decisions(
      *gp_, reference_gps(*gp_), *characterizations_,
      [](const Scheduler::Choice& x, const Scheduler::Choice& y) {
        ASSERT_EQ(x.config_index, y.config_index);
        ASSERT_EQ(x.predicted_power_w, y.predicted_power_w);
        ASSERT_EQ(x.predicted_performance, y.predicted_performance);
        ASSERT_EQ(x.predicted_feasible, y.predicted_feasible);
      },
      [](const adapt::SelectionQuality& p, const adapt::SelectionQuality& q) {
        ASSERT_EQ(std::memcmp(&p.selected_power_sigma,
                              &q.selected_power_sigma, sizeof(double)),
                  0);
        ASSERT_EQ(p.error, q.error);
        ASSERT_EQ(p.violation, q.violation);
      });
  ASSERT_FALSE(HasFatalFailure());
  // The sweep reaches both sides of every kernel's frontier.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST_F(GpPredictorTest, DecisionsMatchTheWholeDistanceKernel) {
  // The separable kernel equals s² exp(-|a-b|²/2ℓ²) in exact arithmetic;
  // in doubles the 12-feature power GPs differ in the last bits. Over the
  // whole decision sweep, a model that took exp of the whole distance
  // (full posteriors, as the frontier-only test shows is equivalent)
  // chooses the same configurations with the same feasibility and canary
  // verdicts, and predicts powers within 1e-9 relative. The performance
  // GPs have 7 features, so their answers are bitwise.
  ASSERT_NE(gp_, nullptr);
  constexpr double kRelative = 1e-9;
  const auto [feasible, infeasible] = sweep_decisions(
      *gp_, reference_gps(*gp_, KernelForm::WholeDistance),
      *characterizations_,
      [](const Scheduler::Choice& x, const Scheduler::Choice& y) {
        ASSERT_EQ(x.config_index, y.config_index);
        ASSERT_NEAR(x.predicted_power_w, y.predicted_power_w,
                    kRelative * std::abs(y.predicted_power_w));
        ASSERT_EQ(x.predicted_performance, y.predicted_performance);
        ASSERT_EQ(x.predicted_feasible, y.predicted_feasible);
      },
      [](const adapt::SelectionQuality& p, const adapt::SelectionQuality& q) {
        ASSERT_NEAR(p.selected_power_sigma, q.selected_power_sigma,
                    kRelative * q.selected_power_sigma);
        ASSERT_EQ(p.error, q.error);
        ASSERT_EQ(p.violation, q.violation);
      });
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST_F(GpPredictorTest, HeadOnlyKernelIsTheWholeDistanceKernelBitwise) {
  // A GP of at most 8 features has no tail factor, so its kernel is
  // exactly s² exp(-|a-b|²/2ℓ²), and so is every posterior built on it:
  // the performance GPs' table cannot drift with the split.
  ASSERT_NE(gp_, nullptr);
  std::vector<GpRegressor> gps;
  for (std::size_t c = 0; c < gp_->cluster_count(); ++c) {
    gps.push_back(gp_->cluster(c).perf_cpu);
    gps.push_back(gp_->cluster(c).perf_gpu);
  }
  Rng rng{8};
  for (const std::size_t d : {1u, 3u, 8u}) {
    linalg::Matrix x{40, d};
    std::vector<double> y(40);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t f = 0; f < d; ++f) {
        x(r, f) = rng.uniform(-1.0, 1.0);
      }
      y[r] = rng.uniform(0.0, 5.0);
    }
    gps.push_back(GpRegressor::fit(x, y));
  }
  for (const GpRegressor& gp : gps) {
    const std::size_t d = gp.feature_count();
    ASSERT_LE(d, kHeadTerms);
    SCOPED_TRACE(testing::Message() << "features " << d);
    const ReferenceGp whole{gp, KernelForm::WholeDistance};
    const double inv_2l2 = 1.0 / (2.0 * gp.length_scale() * gp.length_scale());
    for (int k = 0; k < 20; ++k) {
      std::vector<double> a(d);
      std::vector<double> b(d);
      for (std::size_t f = 0; f < d; ++f) {
        a[f] = rng.uniform(-1.0, 1.0);
        b[f] = rng.uniform(-1.0, 1.0);
      }
      const double want =
          gp.signal_variance() * std::exp(-squared_distance(a, b) * inv_2l2);
      const double got = gp.kernel(a, b);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0);

      const GpRegressor::MeanVariance p = gp.predict(a);
      const GpRegressor::MeanVariance q = whole.posterior(a);
      ASSERT_EQ(std::memcmp(&p.mean, &q.mean, sizeof p.mean), 0);
      ASSERT_EQ(std::memcmp(&p.variance, &q.variance, sizeof p.variance), 0);
    }
  }
}

// ------------------------------------------------------ tiled GP solve --

// Runs one form of the tiled forward solve on kernel blocks of m columns
// against factors of n rows, and compares every column and its squared
// norm memcmp-equal with the scalar solve. Odd n exercises the row a
// two-row step leaves over; m around the 8- and 16-column tile widths
// exercises partial tiles.
void expect_tile_solve_matches_scalar(const linalg::TileSolve& form) {
  // A multiple of both forms' tile widths, so both see the same block.
  constexpr std::size_t kTile = 16;
  for (const std::size_t n : {1u, 2u, 3u, 40u, 41u, 255u}) {
    Rng rng{n};
    linalg::Matrix x{n, 3};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < 3; ++c) {
        x(i, c) = rng.uniform(-1.0, 1.0);
      }
    }
    linalg::Matrix k{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        k(i, j) = std::exp(-0.5 * squared_distance(x.row(i), x.row(j)));
      }
      k(i, i) += 1e-2;
    }
    const linalg::CholeskyFactorization chol{k};
    for (const std::size_t m : {1u, 7u, 8u, 9u, 54u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " m " << m);
      const std::size_t stride = (m + kTile - 1) / kTile * kTile;
      ASSERT_EQ(stride % form.tile_columns, 0u);
      std::vector<double> block(n * stride, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < m; ++c) {
          block[i * stride + c] = rng.uniform(-1.0, 1.0);
        }
      }
      const std::vector<double> input = block;
      std::vector<double> reduction(stride, 0.0);
      form.solve(chol.l(), block, stride, reduction);
      for (std::size_t c = 0; c < m; ++c) {
        std::vector<double> column(n);
        for (std::size_t i = 0; i < n; ++i) {
          column[i] = input[i * stride + c];
        }
        const std::vector<double> v =
            reference_forward_solve(chol.l(), column);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::memcmp(&block[i * stride + c], &v[i], sizeof v[i]),
                    0)
              << "column " << c << " row " << i;
        }
        const double norm = linalg::dot(v, v);
        ASSERT_EQ(std::memcmp(&reduction[c], &norm, sizeof norm), 0)
            << "column " << c;
      }
    }
  }
}

// Runs one form of the tiled solve as GpRegressor::variances does: a
// subset of contiguous kernel columns, listed by non-contiguous indices,
// gathered tile_columns at a time into one n × tile block per solve.
// Subset sizes straddle both forms' tile widths and the frontier sizes
// (12 to 27) the GP sees; every column and its squared norm must be
// memcmp-equal to CholeskyFactorization::solve_lower's.
void expect_gathered_tiles_match_scalar(const linalg::TileSolve& form) {
  constexpr std::size_t kColumns = 54;
  const std::size_t width = form.tile_columns;
  for (const std::size_t n : {1u, 41u, 128u}) {
    Rng rng{Rng::mix_seeds(n, width)};
    linalg::Matrix k{n, n};
    linalg::Matrix x{n, 2};
    for (std::size_t i = 0; i < n; ++i) {
      x(i, 0) = rng.uniform(-1.0, 1.0);
      x(i, 1) = rng.uniform(-1.0, 1.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        k(i, j) = std::exp(-0.5 * squared_distance(x.row(i), x.row(j)));
        k(j, i) = k(i, j);
      }
      k(i, i) += 1e-2;
    }
    const linalg::CholeskyFactorization chol{k};
    // Column c at c * n, as GpRegressor::KernelColumns holds them.
    std::vector<double> columns(kColumns * n);
    for (double& value : columns) {
      value = rng.uniform(-1.0, 1.0);
    }
    for (const std::size_t size :
         {1u, 12u, 15u, 16u, 17u, 27u, 32u, 33u, 54u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " subset " << size);
      std::vector<std::size_t> order(kColumns);
      for (std::size_t c = 0; c < kColumns; ++c) {
        order[c] = c;
      }
      rng.shuffle(order);
      const std::vector<std::size_t> subset(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(size));
      std::vector<double> block(n * width);
      std::vector<double> reduction(width);
      for (std::size_t p0 = 0; p0 < size; p0 += width) {
        const std::size_t count = std::min(width, size - p0);
        std::fill(block.begin(), block.end(), 0.0);
        std::fill(reduction.begin(), reduction.end(), 0.0);
        for (std::size_t t = 0; t < count; ++t) {
          for (std::size_t i = 0; i < n; ++i) {
            block[i * width + t] = columns[subset[p0 + t] * n + i];
          }
        }
        form.solve(chol.l(), block, width, reduction);
        for (std::size_t t = 0; t < count; ++t) {
          const std::size_t c = subset[p0 + t];
          const std::vector<double> v = chol.solve_lower(
              std::span<const double>{columns.data() + c * n, n});
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::memcmp(&block[i * width + t], &v[i], sizeof v[i]),
                      0)
                << "column " << c << " row " << i;
          }
          const double norm = linalg::dot(v, v);
          ASSERT_EQ(std::memcmp(&reduction[t], &norm, sizeof norm), 0)
              << "column " << c;
        }
      }
    }
  }
}

TEST(TileSolve, PairFormMatchesScalarSolveBitwise) {
  expect_tile_solve_matches_scalar(linalg::pair_tile_solve());
}

TEST(TileSolve, QuadFormMatchesScalarSolveBitwise) {
  const linalg::TileSolve* quads = linalg::quad_tile_solve();
  if (quads == nullptr) {
    GTEST_SKIP() << "no AVX2 on this CPU or build";
  }
  expect_tile_solve_matches_scalar(*quads);
}

TEST(TileSolve, PairFormSolvesGatheredColumnSubsetsBitwise) {
  expect_gathered_tiles_match_scalar(linalg::pair_tile_solve());
}

TEST(TileSolve, QuadFormSolvesGatheredColumnSubsetsBitwise) {
  const linalg::TileSolve* quads = linalg::quad_tile_solve();
  if (quads == nullptr) {
    GTEST_SKIP() << "no AVX2 on this CPU or build";
  }
  expect_gathered_tiles_match_scalar(*quads);
}

TEST(TileSolve, ProcessUsesQuadsWhereAvailable) {
  const linalg::TileSolve* quads = linalg::quad_tile_solve();
  EXPECT_EQ(&linalg::tile_solve(),
            quads != nullptr ? quads : &linalg::pair_tile_solve());
}

}  // namespace
}  // namespace acsel::core
