// Publishes canary-approved candidates and holds them to their promise.
// Promotion hands the candidate to the ModelRegistry (the serving side
// picks it up on its next current() resolve — no pause), then opens a
// probation window: live selection errors of the freshly promoted model
// are averaged, and if they exceed what the canary promised by margin,
// the promoter rolls the registry back — the same breaker-adjacent path
// an operator would use, but automatic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/predictor.h"
#include "serve/registry.h"

namespace acsel::adapt {

struct PromoterOptions {
  /// Live labelled observations in the post-publish probation window.
  std::size_t probation_observations = 32;
  /// Rollback when mean live error exceeds the canary's promised error by
  /// more than this (absolute).
  double rollback_margin = 0.1;
};

class Promoter {
 public:
  explicit Promoter(serve::ModelRegistry& registry,
                    const PromoterOptions& options = {});

  /// Publishes `model` as the new current version and opens probation
  /// against `promised_error` (the canary's measured candidate error).
  /// Returns the published version.
  std::uint64_t promote(core::PredictorPtr model,
                        double promised_error);

  /// Feeds one live selection error of the current model during
  /// probation. Returns true when this observation closed the window with
  /// a rollback.
  bool observe_live_error(double error);

  bool in_probation() const;
  std::uint64_t promotions() const;
  std::uint64_t rollbacks() const;

 private:
  serve::ModelRegistry* registry_;
  PromoterOptions options_;
  mutable std::mutex mu_;
  bool in_probation_ = false;
  double promised_error_ = 0.0;
  double probation_error_sum_ = 0.0;
  std::size_t probation_count_ = 0;
  std::uint64_t promoted_version_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace acsel::adapt
