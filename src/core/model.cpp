#include "core/model.h"

#include <fstream>
#include <sstream>

#include "core/features.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace acsel::core {

TrainedModel::TrainedModel(std::vector<ClusterModel> clusters,
                           stats::Cart tree)
    : clusters_(std::move(clusters)), tree_(std::move(tree)) {
  ACSEL_CHECK_MSG(!clusters_.empty(), "TrainedModel needs >= 1 cluster");
  ACSEL_CHECK_MSG(tree_.feature_count() ==
                      classification_feature_names().size(),
                  "tree feature count mismatch");
}

const ClusterModel& TrainedModel::cluster(std::size_t index) const {
  ACSEL_CHECK_MSG(index < clusters_.size(), "cluster index out of range");
  return clusters_[index];
}

std::size_t TrainedModel::classify(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("classify", "model");
  const std::size_t label = tree_.predict(classification_features(samples));
  // The tree was trained on cluster labels; guard against a label that has
  // no model (can only happen with a corrupted deserialized model).
  ACSEL_CHECK_MSG(label < clusters_.size(),
                  "classified into a cluster with no model");
  return label;
}

Prediction TrainedModel::predict(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("predict", "model");
  Prediction prediction;
  prediction.cluster = classify(samples);
  const ClusterModel& model = clusters_[prediction.cluster];

  const std::size_t n = space_.size();
  prediction.per_config.reserve(n);
  std::vector<double> power(n);
  std::vector<double> perf(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto estimate = model.predict(space_.at(i), samples);
    power[i] = estimate.power_w;
    perf[i] = estimate.performance;
    prediction.per_config.push_back(estimate);
  }
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);
  return prediction;
}

std::string TrainedModel::serialize_body() const {
  std::ostringstream os;
  os << "clusters " << clusters_.size() << '\n';
  for (const ClusterModel& cluster : clusters_) {
    os << cluster.serialize();  // three lines
  }
  os << "tree\n" << tree_.serialize();
  return os.str();
}

namespace {

TrainedModel parse_body(std::istringstream& is) {
  std::string line;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                      starts_with(line, "clusters "),
                  "missing cluster count");
  const std::size_t k = parse_size(split(line, ' ')[1]);
  ACSEL_CHECK_MSG(k >= 1, "model must have >= 1 cluster");

  std::vector<ClusterModel> clusters;
  clusters.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::string block;
    for (int i = 0; i < 3; ++i) {
      ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                      "truncated cluster block");
      block += line;
      block += '\n';
    }
    clusters.push_back(ClusterModel::parse(block));
  }
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                      line == "tree",
                  "missing tree section");
  std::ostringstream rest;
  rest << is.rdbuf();
  return TrainedModel{std::move(clusters), stats::Cart::parse(rest.str())};
}

}  // namespace

TrainedModel TrainedModel::parse(const std::string& text) {
  std::istringstream is{text};
  std::string header;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, header)),
                  "empty model text");
  const std::string envelope =
      "acsel-predictor " + std::string{kKind} + " v1";
  if (header != envelope && header != "acsel-model v1") {
    throw PredictorFormatError{"unknown model format"};
  }
  return parse_body(is);
}

PredictorPtr TrainedModel::parse_shared(std::uint32_t version,
                                        const std::string& body) {
  ACSEL_CHECK_MSG(version == 1, "cluster-cart body version must be 1");
  std::istringstream is{body};
  return std::make_shared<const TrainedModel>(parse_body(is));
}

TrainedModel TrainedModel::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  ACSEL_CHECK_MSG(in.good(), "cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace acsel::core
