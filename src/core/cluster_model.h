// Per-cluster regression models (§III-B):
//   P_perf  = (a1 x1 + ... + an xn) * S_perf   (per device, S_perf is the
//             kernel's measured sample-configuration performance on that
//             device; no intercept beyond the constant feature)
//   P_power = b0 + b1 x1 + ... + bn xn          (absolute watts)
// Once a kernel is assigned to a cluster, the only new information needed
// to predict every configuration is its two sample measurements.
//
// ClusterModel is only the serialized trio of fitted regressions. The
// online evaluation lives in TrainedModel, which folds every term that
// does not depend on the samples into a per-(cluster, configuration)
// table when it is constructed (see core/model.h).
#pragma once

#include <string>

#include "linalg/regression.h"

namespace acsel::core {

struct ClusterModel {
  linalg::LinearModel power;     ///< watts, with intercept
  linalg::LinearModel perf_cpu;  ///< perf / S_perf_cpu over CPU configs
  linalg::LinearModel perf_gpu;  ///< perf / S_perf_gpu over GPU configs

  /// One-line-per-model serialization; round-trips through parse().
  std::string serialize() const;
  static ClusterModel parse(const std::string& text);
};

}  // namespace acsel::core
