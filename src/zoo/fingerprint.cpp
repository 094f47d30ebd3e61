#include "zoo/fingerprint.h"

#include <cstring>

#include "hw/pstate.h"
#include "soc/power_model.h"
#include "util/rng.h"

namespace acsel::zoo {

namespace {

/// Canonical-serialization format version. Bump when fields are added or
/// reordered: the version byte is hashed, so old and new serializations
/// can never collide silently.
constexpr std::uint8_t kCanonicalVersion = 1;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

/// Closed-form peak-power envelope: idle plus every plane at its maximum
/// operating point and activity 1 — an upper bound, not a measurement, so
/// it is deterministic and spec-only.
double peak_power_w(const soc::MachineSpec& spec) {
  const hw::CpuPState cpu = hw::cpu_pstates()[hw::kCpuMaxPState];
  const hw::GpuPState gpu = hw::gpu_pstates()[hw::kGpuMaxPState];
  double cpu_threads = static_cast<double>(hw::kCpuCores);
  if (spec.asymmetric.enabled) {
    const double little = static_cast<double>(hw::kCoresPerModule);
    cpu_threads = (cpu_threads - little) +
                  spec.asymmetric.little_power_scale * little;
  }
  const double cpu_dyn = cpu_threads * spec.cpu_core_dyn_w * cpu.freq_ghz *
                         cpu.voltage * cpu.voltage *
                         (1.0 + spec.cpu_vector_power_gain);
  const double gpu_dyn = spec.gpu_dyn_w * (gpu.freq_mhz / 1000.0) *
                         gpu.voltage * gpu.voltage;
  const double nb = spec.nb_w_per_gbs * (spec.dram_bw_gbs + spec.gpu_bw_gbs);
  return soc::idle_power(spec).total() + cpu_dyn + gpu_dyn + nb;
}

}  // namespace

std::vector<std::uint8_t> canonical_spec_bytes(const soc::MachineSpec& spec) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(256);
  put_u8(bytes, kCanonicalVersion);
  // Topology: core counts, then the DVFS grids in table order.
  put_u32(bytes, static_cast<std::uint32_t>(hw::kCpuCores));
  put_u32(bytes, static_cast<std::uint32_t>(hw::kCoresPerModule));
  put_u32(bytes, static_cast<std::uint32_t>(hw::kGpuCores));
  put_u32(bytes, static_cast<std::uint32_t>(hw::kCpuPStateCount));
  for (const hw::CpuPState& p : hw::cpu_pstates()) {
    put_f64(bytes, p.freq_ghz);
    put_f64(bytes, p.voltage);
  }
  put_u32(bytes, static_cast<std::uint32_t>(hw::kGpuPStateCount));
  for (const hw::GpuPState& p : hw::gpu_pstates()) {
    put_f64(bytes, p.freq_mhz);
    put_f64(bytes, p.voltage);
  }
  // Performance coefficients, MachineSpec declaration order.
  for (const double v :
       {spec.cpu_scalar_flops_per_cycle, spec.cpu_vector_gain,
        spec.module_share_penalty, spec.dram_bw_gbs, spec.gpu_bw_gbs,
        spec.single_thread_bw_frac, spec.gpu_flops_per_core_cycle,
        spec.gpu_divergence_penalty, spec.omp_overhead_ms}) {
    put_f64(bytes, v);
  }
  // Power coefficients, declaration order.
  for (const double v :
       {spec.base_power_w, spec.cpu_leak_w_per_v2, spec.cpu_core_dyn_w,
        spec.cpu_vector_power_gain, spec.gpu_leak_w_per_v2, spec.gpu_dyn_w,
        spec.nb_w_per_gbs, spec.activity_floor}) {
    put_f64(bytes, v);
  }
  // Asymmetric-cluster block.
  put_u8(bytes, spec.asymmetric.enabled ? 1 : 0);
  for (const double v :
       {spec.asymmetric.little_perf_scale, spec.asymmetric.little_power_scale,
        spec.asymmetric.migration_cost_ms}) {
    put_f64(bytes, v);
  }
  // DRAM device-power block (a third power domain when enabled).
  put_u8(bytes, spec.model_dram_power ? 1 : 0);
  put_f64(bytes, spec.dram_background_w);
  put_f64(bytes, spec.dram_w_per_gbs);
  return bytes;
}

HardwareFingerprint fingerprint_of(const soc::MachineSpec& spec) {
  HardwareFingerprint fp;
  // Good enough for identity hashing: the descriptor, not the hash,
  // breaks near-ties.
  fp.hash = fnv1a(canonical_spec_bytes(spec));
  if (fp.hash == 0) {
    fp.hash = 1;  // 0 is the wire's "no fingerprint" sentinel
  }
  fp.cpu_cores = static_cast<std::uint32_t>(hw::kCpuCores);
  fp.gpu_cores = static_cast<std::uint32_t>(hw::kGpuCores);
  fp.cpu_peak_ghz = hw::cpu_pstates()[hw::kCpuMaxPState].freq_ghz;
  fp.gpu_peak_mhz = hw::gpu_pstates()[hw::kGpuMaxPState].freq_mhz;
  fp.idle_power_w = soc::idle_power(spec).total();
  fp.peak_power_w = peak_power_w(spec);
  return fp;
}

}  // namespace acsel::zoo
