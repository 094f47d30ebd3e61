#include "adapt/promoter.h"

#include <cmath>
#include <utility>

#include "util/error.h"
#include "util/log.h"

namespace acsel::adapt {

Promoter::Promoter(serve::ModelRegistry& registry,
                   const PromoterOptions& options)
    : registry_(&registry), options_(options) {
  ACSEL_CHECK_MSG(options.probation_observations > 0,
                  "promoter probation window must be > 0");
  ACSEL_CHECK_MSG(
      std::isfinite(options.rollback_margin) && options.rollback_margin >= 0.0,
      "promoter rollback margin must be finite and >= 0");
}

std::uint64_t Promoter::promote(
    core::PredictorPtr model, double promised_error) {
  ACSEL_CHECK_MSG(model != nullptr, "cannot promote a null model");
  std::lock_guard<std::mutex> lock{mu_};
  promoted_version_ = registry_->publish(std::move(model));
  ++promotions_;
  in_probation_ = true;
  promised_error_ = std::isfinite(promised_error) ? promised_error : 0.0;
  probation_error_sum_ = 0.0;
  probation_count_ = 0;
  ACSEL_LOG_INFO("Promoter: promoted model version "
                 << promoted_version_ << " (promised error "
                 << promised_error_ << ")");
  return promoted_version_;
}

bool Promoter::observe_live_error(double error) {
  if (!std::isfinite(error)) return false;
  std::lock_guard<std::mutex> lock{mu_};
  if (!in_probation_) return false;
  probation_error_sum_ += error;
  if (++probation_count_ < options_.probation_observations) return false;
  in_probation_ = false;
  const double mean =
      probation_error_sum_ / static_cast<double>(probation_count_);
  if (mean <= promised_error_ + options_.rollback_margin) return false;
  // The canary's promise was broken. Roll back only if the promoted
  // version is still the one serving — an operator (or a later
  // promotion) may already have moved current elsewhere.
  if (registry_->current().version != promoted_version_) return false;
  if (registry_->previous_of(promoted_version_).model == nullptr) {
    // Cold-start promotion: nothing earlier to fall back to. A broken
    // promise still beats serving no model at all.
    ACSEL_LOG_WARN("Promoter: version " << promoted_version_
                                        << " broke its promise but has no "
                                           "rollback target; keeping it");
    return false;
  }
  registry_->rollback();
  ++rollbacks_;
  ACSEL_LOG_WARN("Promoter: rolled back model version "
                 << promoted_version_ << " (live error " << mean
                 << " > promised " << promised_error_ << " + margin "
                 << options_.rollback_margin << ")");
  return true;
}

bool Promoter::in_probation() const {
  std::lock_guard<std::mutex> lock{mu_};
  return in_probation_;
}

std::uint64_t Promoter::promotions() const {
  std::lock_guard<std::mutex> lock{mu_};
  return promotions_;
}

std::uint64_t Promoter::rollbacks() const {
  std::lock_guard<std::mutex> lock{mu_};
  return rollbacks_;
}

}  // namespace acsel::adapt
