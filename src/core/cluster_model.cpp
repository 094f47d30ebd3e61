#include "core/cluster_model.h"

#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace acsel::core {

std::string ClusterModel::serialize() const {
  std::ostringstream os;
  os << power.serialize() << '\n'
     << perf_cpu.serialize() << '\n'
     << perf_gpu.serialize() << '\n';
  return os.str();
}

ClusterModel ClusterModel::parse(const std::string& text) {
  std::istringstream is{text};
  std::string power_line;
  std::string cpu_line;
  std::string gpu_line;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, power_line)) &&
                      static_cast<bool>(std::getline(is, cpu_line)) &&
                      static_cast<bool>(std::getline(is, gpu_line)),
                  "ClusterModel::parse: expected three model lines");
  ClusterModel model;
  model.power = linalg::LinearModel::parse(power_line);
  model.perf_cpu = linalg::LinearModel::parse(cpu_line);
  model.perf_gpu = linalg::LinearModel::parse(gpu_line);
  return model;
}

}  // namespace acsel::core
