// Hardware fingerprinting: a stable hash of what makes a machine *the
// same architecture* — core counts, the P-state frequency/voltage grids,
// and the perf/power-curve coefficients of its MachineSpec — plus the
// coarse descriptor the registry uses for nearest-architecture fallback.
//
// The canonical serialization is explicit and versioned (see
// canonical_spec_bytes), so the hash is reproducible across builds,
// platforms and thread counts: same spec, same bytes, same fingerprint.
// Measurement-noise, sensor-guard, thermal-boost and trace fields are
// deliberately excluded — they describe how a machine is *observed*, not
// what it *is*, and a model transfers across them.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/message.h"
#include "soc/perf_model.h"

namespace acsel::zoo {

/// The wire/registry type lives in serve (the codec must encode it and
/// serve never depends on the layers above it); the zoo
/// name is the one call sites should read.
using HardwareFingerprint = serve::HardwareFingerprint;

/// The canonical byte serialization fingerprint hashes are computed from:
/// a format-version byte, the hw core counts and P-state grids, then the
/// spec's perf/power coefficients in declared order (little-endian, f64
/// as IEEE-754 bit patterns). Exposed so tests can assert bit-identical
/// serialization across runs and thread counts.
std::vector<std::uint8_t> canonical_spec_bytes(const soc::MachineSpec& spec);

/// The spec's fingerprint: FNV-1a over canonical_spec_bytes (finalized so
/// the hash is never 0 — 0 means "no fingerprint" on the wire) plus the
/// coarse descriptor (core counts, peak frequencies, idle/peak power
/// envelope) used for nearest-architecture fallback.
HardwareFingerprint fingerprint_of(const soc::MachineSpec& spec);

}  // namespace acsel::zoo
