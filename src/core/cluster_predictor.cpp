#include "core/cluster_predictor.h"

#include <sstream>
#include <utility>

#include "core/features.h"
#include "core/gp_model.h"
#include "linalg/regression.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace acsel::core {

template <typename Regressor>
ClusterPredictor<Regressor>::ClusterPredictor(std::vector<Trio> clusters,
                                              stats::Cart tree)
    : clusters_(std::move(clusters)), tree_(std::move(tree)) {
  ACSEL_CHECK_MSG(!clusters_.empty(), "predictor needs >= 1 cluster");
  ACSEL_CHECK_MSG(tree_.feature_count() ==
                      classification_feature_names().size(),
                  "tree feature count mismatch");
}

template <typename Regressor>
const ClusterTrio<Regressor>& ClusterPredictor<Regressor>::cluster(
    std::size_t index) const {
  ACSEL_CHECK_MSG(index < clusters_.size(), "cluster index out of range");
  return clusters_[index];
}

template <typename Regressor>
std::size_t ClusterPredictor<Regressor>::classify(
    const SamplePair& samples) const {
  ACSEL_OBS_SPAN("classify", "model");
  const std::size_t label = tree_.predict(classification_features(samples));
  // The tree was trained on cluster labels; guard against a label that has
  // no regressors (can only happen with a corrupted deserialized model).
  ACSEL_CHECK_MSG(label < clusters_.size(),
                  "classified into a cluster with no model");
  return label;
}

template <typename Regressor>
std::string ClusterPredictor<Regressor>::serialize_body() const {
  std::ostringstream os;
  os << "clusters " << clusters_.size() << '\n';
  for (const Trio& trio : clusters_) {
    os << trio.power.serialize() << '\n'
       << trio.perf_cpu.serialize() << '\n'
       << trio.perf_gpu.serialize() << '\n';
  }
  os << "tree\n" << tree_.serialize();
  return os.str();
}

template <typename Regressor>
typename ClusterPredictor<Regressor>::Body
ClusterPredictor<Regressor>::read_body(const std::string& text) {
  std::istringstream is{text};
  std::string line;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                      starts_with(line, "clusters "),
                  "missing cluster count");
  const std::size_t k = parse_size(split(line, ' ')[1]);
  ACSEL_CHECK_MSG(k >= 1, "model must have >= 1 cluster");

  Body body;
  for (std::size_t c = 0; c < k; ++c) {
    Trio trio;
    for (Regressor* regressor : {&trio.power, &trio.perf_cpu, &trio.perf_gpu}) {
      ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                      "truncated cluster block");
      *regressor = Regressor::parse(line);
    }
    body.clusters.push_back(std::move(trio));
  }
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) && line == "tree",
                  "missing tree section");
  std::ostringstream rest;
  rest << is.rdbuf();
  body.tree = stats::Cart::parse(rest.str());
  return body;
}

template class ClusterPredictor<linalg::LinearModel>;
template class ClusterPredictor<GpRegressor>;

}  // namespace acsel::core
