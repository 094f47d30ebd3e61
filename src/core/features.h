// Feature construction for the paper's three learned components (§III-B):
//
//  * performance regressions — configuration variables and their
//    first-order interactions, fitted per cluster per device against
//    performance *relative to the same-device sample configuration*;
//  * power regressions — configuration variables plus the two measured
//    sample-configuration powers ("performance is a good predictor of
//    power consumption" and vice versa), fitted per cluster against
//    absolute watts;
//  * the classification tree — normalized performance counters and power
//    measured at the two sample configurations.
//
// All features are scaled to O(1) so the ridge penalty treats columns
// evenly and tree thresholds are readable.
#pragma once

#include <string>
#include <vector>

#include "core/characterization.h"
#include "hw/config.h"

namespace acsel::core {

/// Features for the per-cluster *power* regression at one configuration:
/// device indicator, normalized CPU frequency / thread count / GPU
/// frequency, mapping, first-order interactions, and the kernel's measured
/// sample powers (both domains' totals at each sample configuration).
/// Terms 0-7 depend on the configuration only; terms 8-11 are the two
/// scaled sample powers and their device-gated copies. TrainedModel
/// relies on that split to fold terms 0-7 into a table.
std::vector<double> power_features(const hw::Configuration& config,
                                   const SamplePair& samples);
const std::vector<std::string>& power_feature_names();

/// Features for the per-cluster per-device *performance* regression:
/// a constant plus the within-device configuration variables and
/// interactions. The response they model is performance divided by the
/// same-device sample-configuration performance.
std::vector<double> perf_features(const hw::Configuration& config);
const std::vector<std::string>& perf_feature_names();

/// Features for the classification tree: the eleven normalized counter
/// metrics of the CPU sample run, both runs' power, and the cross-device
/// performance/power ratios that reveal device affinity.
std::vector<double> classification_features(const SamplePair& samples);
const std::vector<std::string>& classification_feature_names();

}  // namespace acsel::core
