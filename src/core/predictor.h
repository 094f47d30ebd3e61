// The prediction interface the online stage is built against. The paper
// hard-codes one predictor — per-cluster linear regression behind a CART
// (§III-B) — but every consumer (runtime, scheduler, serving registry,
// adapt loop, fleet replicas, eval harness) only needs three capabilities:
// assign a kernel to a cluster from its two sample runs, estimate power
// and performance *with predictive uncertainty* for every configuration,
// and round-trip through a serialized form. `Predictor` is that contract.
// Its two implementations, `TrainedModel` (cluster regression + CART) and
// `GpPredictor` (Gaussian-process surrogate), share one cluster trio,
// tree and body text (core/cluster_predictor.h). The type-tagged
// serialization envelope below keeps the two families — and future
// format versions — distinguishable on disk and on the wire, and
// parse_predictor() is the one reader of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterization.h"
#include "hw/config_space.h"
#include "pareto/frontier.h"
#include "util/error.h"

namespace acsel::core {

/// One configuration's predicted operating point. The sigmas are one
/// standard deviation of *predictive* uncertainty — residual scale for
/// regression models, posterior standard deviation for GP models — and
/// feed the risk-averse SelectionPolicy and the variance-aware canary.
/// Both read power_sigma only at frontier configurations, so a GP model
/// solves it only there: its power_sigma is the posterior sd at every
/// configuration on the prediction's frontier and the prior sd, an upper
/// bound on the posterior sd, at every other one.
struct Estimate {
  double power_w = 0.0;
  double performance = 0.0;
  double power_sigma = 0.0;
  double performance_sigma = 0.0;
};

/// Online prediction for one kernel from its two sample runs.
struct Prediction {
  std::size_t cluster = 0;
  /// Per-configuration estimates, in hw::ConfigSpace index order.
  std::vector<Estimate> per_config;
  /// The predicted power-performance Pareto frontier.
  pareto::ParetoFrontier frontier;
};

/// A predictor is immutable after construction, and every const member is
/// safe to call concurrently from many threads — the serving layer relies
/// on this to apply one shared model from a whole worker pool without
/// locking. Consumers hold predictors as PredictorPtr.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Stable family tag written into the serialization envelope
  /// ("cluster-cart", "gp-sqexp", ...).
  virtual std::string_view kind() const = 0;

  virtual std::size_t cluster_count() const = 0;
  virtual const hw::ConfigSpace& config_space() const = 0;

  /// Assigns a kernel to a trained cluster from its sample runs (the
  /// first online step; §IV-C).
  virtual std::size_t classify(const SamplePair& samples) const = 0;

  /// Full online prediction: classify, then estimate every configuration
  /// and derive the predicted Pareto frontier the scheduler walks.
  virtual Prediction predict(const SamplePair& samples) const = 0;

  /// Serialized body *without* the envelope line; serialize() prepends
  /// "acsel-predictor <kind> v1".
  virtual std::string serialize_body() const = 0;

  /// Envelope + body; round-trips through parse_predictor().
  std::string serialize() const;
  /// serialize() to a file.
  void save(const std::string& path) const;

 protected:
  Predictor() = default;
  Predictor(const Predictor&) = default;
  Predictor& operator=(const Predictor&) = default;
};

/// The shared-ownership form every consumer takes: registries hot-swap by
/// pointer, in-flight requests keep the version they resolved.
using PredictorPtr = std::shared_ptr<const Predictor>;

/// Base of the typed parse failures: malformed envelope, unknown kind,
/// unsupported version. Distinct from plain acsel::Error so transports
/// can reject a foreign model without treating it as a local bug.
class PredictorFormatError : public Error {
 public:
  using Error::Error;
};

/// The serialized text names a predictor kind this build does not know.
class UnknownPredictorKindError : public PredictorFormatError {
 public:
  explicit UnknownPredictorKindError(std::string kind);
  /// Same typed error with a caller-supplied message (e.g. one naming the
  /// file the kind came from); `kind` stays machine-readable.
  UnknownPredictorKindError(std::string kind, const std::string& message);
  /// The unrecognized kind tag, verbatim.
  const std::string& predictor_kind() const { return kind_; }

 private:
  std::string kind_;
};

/// The kind is known but the body version is newer than this build writes.
class UnsupportedPredictorVersionError : public PredictorFormatError {
 public:
  UnsupportedPredictorVersionError(std::string_view kind,
                                   std::uint32_t version,
                                   std::uint32_t latest);
  /// Same typed error with a caller-supplied message (context wrapping).
  explicit UnsupportedPredictorVersionError(const std::string& message);
};

/// Parses a serialized predictor of either family ("cluster-cart" or
/// "gp-sqexp", body version 1) by its envelope tag. Accepts the legacy
/// "acsel-model v1" header as kind "cluster-cart" version 1. A caller that
/// needs the concrete type casts the result.
/// Throws UnknownPredictorKindError / UnsupportedPredictorVersionError /
/// PredictorFormatError — never aborts on foreign input.
PredictorPtr parse_predictor(const std::string& text);

/// parse_predictor() from a file (the retrain hand-off path: a trainer
/// writes with Predictor::save, a registry picks it up here).
PredictorPtr load_predictor(const std::string& path);

}  // namespace acsel::core
