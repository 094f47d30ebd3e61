// The transfer-evaluation harness: train on architecture A, serve
// architecture B, measure the accuracy/cap-violation cliff, then let the
// adapt loop (drift → retrain → canary → republish) close it and report
// the recovery lag. This is the zoo's hardest test of acsel_adapt: the
// residual stream is not a drifted *workload* but a wholly different
// *machine*, so the stale model's power predictions are biased by the
// architecture gap, the drift detectors fire, and the loop must retrain
// its way down to near-matched error.
//
// Per-archetype work (characterization sweep, model training, matched
// baseline) is computed once and cached, so the full A×B matrix costs
// four sweeps plus the adapt loops of the off-diagonal pairs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "adapt/controller.h"
#include "core/characterization.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "exec/executor.h"
#include "serve/message.h"
#include "zoo/archetype.h"

namespace acsel::zoo {

struct TransferOptions {
  /// Catalog + machine seed (one seed, one reproducible matrix).
  std::uint64_t seed = 90210;
  /// Kernels characterized per archetype (first N of the standard suite).
  std::size_t kernels = 10;
  core::SchedulingGoal goal = core::SchedulingGoal::MaxPerformance;
  /// Weight of a cap violation in the transfer score (score = selection
  /// error + penalty * violation rate) and in the adapt loop's canary
  /// comparison. A mis-deployed model can post error 0 by blowing the
  /// cap on every request — under a power cap that is the cliff, not a
  /// win, so violations must carry weight.
  double violation_penalty = 1.0;
  /// Executor for characterization and retrains; nullptr = inline.
  exec::Executor* executor = nullptr;
};

/// Cached per-archetype state: the ground truth of its machine, the model
/// trained on it, the cap derived from its power range, and the matched
/// (train = serve) baseline quality.
struct ArchData {
  Archetype archetype = Archetype::Trinity;
  serve::HardwareFingerprint fingerprint;
  double cap_w = 0.0;
  std::vector<core::KernelCharacterization> truths;
  core::PredictorPtr model;
  double matched_error = 0.0;
  double matched_violation_rate = 0.0;
  /// matched_error + violation_penalty * matched_violation_rate.
  double matched_score = 0.0;
};

/// One cell of the transfer matrix.
struct TransferResult {
  Archetype train_arch = Archetype::Trinity;
  Archetype serve_arch = Archetype::Trinity;
  /// Selection error of the serve archetype's own model on its own truth.
  double matched_error = 0.0;
  /// Error/violations of the train archetype's model served cold on the
  /// serve archetype — the cliff.
  double mismatched_error = 0.0;
  double mismatched_violation_rate = 0.0;
  /// After the adapt loop ran (equals the mismatched numbers on the
  /// diagonal, where no adaptation happens).
  double recovered_error = 0.0;
  double recovered_violation_rate = 0.0;
  /// Feedback rounds until the first promotion; -1 = never promoted.
  int rounds_to_promotion = -1;
  adapt::AdaptStats adapt;

  /// Combined scores (error + violation_penalty * violation rate) — the
  /// quantity the cliff and recovery claims are made about. A model that
  /// ignores the cap is worse, not better, than the matched baseline.
  double matched_score = 0.0;
  double mismatched_score = 0.0;
  double recovered_score = 0.0;
};

class TransferEval {
 public:
  explicit TransferEval(TransferOptions options = {});

  /// Lazily characterizes + trains the archetype (cached thereafter).
  const ArchData& data(Archetype archetype);

  /// Runs one matrix cell. Off-diagonal: publish A's model, stream B's
  /// feedback through an AdaptController until it promotes (or gives up
  /// after a fixed number of rounds), then score the registry's final
  /// model on B.
  TransferResult run(Archetype train_arch, Archetype serve_arch);

  /// The full ordered matrix over `archetypes` (diagonal included — the
  /// diagonal rows carry the matched baselines).
  std::vector<TransferResult> run_matrix(
      std::span<const Archetype> archetypes);

  const TransferOptions& options() const { return options_; }

 private:
  double mean_error(const core::Predictor& model, const ArchData& serve,
                    double* violation_rate) const;

  TransferOptions options_;
  std::vector<std::optional<ArchData>> cache_;
};

}  // namespace acsel::zoo
