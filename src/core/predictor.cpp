#include "core/predictor.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/gp_model.h"
#include "core/model.h"
#include "util/strings.h"

namespace acsel::core {

namespace {

constexpr std::string_view kEnvelopePrefix = "acsel-predictor ";
/// Pre-envelope header written by early versions; parsed as
/// kind "cluster-cart" version 1.
constexpr std::string_view kLegacyHeader = "acsel-model v1";

struct KindEntry {
  std::uint32_t latest_version = 1;
  PredictorParser parser = nullptr;
};

struct KindRegistry {
  std::mutex mu;
  std::map<std::string, KindEntry, std::less<>> kinds;

  static KindRegistry& get() {
    static KindRegistry registry;
    return registry;
  }
};

/// Built-in kinds are registered on first factory use rather than via
/// static initializers, so static-library dead-stripping can never drop
/// them.
void ensure_builtins_registered() {
  static const bool done = [] {
    register_predictor_kind(TrainedModel::kKind, 1, &TrainedModel::parse_shared);
    register_predictor_kind(GpPredictor::kKind, 1, &GpPredictor::parse_shared);
    return true;
  }();
  (void)done;
}

}  // namespace

UnknownPredictorKindError::UnknownPredictorKindError(std::string kind)
    : PredictorFormatError("unknown predictor kind: \"" + kind + '"'),
      kind_(std::move(kind)) {}

UnknownPredictorKindError::UnknownPredictorKindError(
    std::string kind, const std::string& message)
    : PredictorFormatError(message), kind_(std::move(kind)) {}

UnsupportedPredictorVersionError::UnsupportedPredictorVersionError(
    std::string_view kind, std::uint32_t version, std::uint32_t latest)
    : PredictorFormatError("predictor kind \"" + std::string{kind} +
                           "\" version " + std::to_string(version) +
                           " is newer than supported v" +
                           std::to_string(latest)) {}

UnsupportedPredictorVersionError::UnsupportedPredictorVersionError(
    const std::string& message)
    : PredictorFormatError(message) {}

std::string Predictor::serialize() const {
  std::ostringstream os;
  os << kEnvelopePrefix << kind() << " v" << format_version() << '\n'
     << serialize_body();
  return os.str();
}

void Predictor::save(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  ACSEL_CHECK_MSG(out.good(), "cannot open model file for write: " + path);
  out << serialize();
  ACSEL_CHECK_MSG(out.good(), "failed writing model file: " + path);
}

void register_predictor_kind(std::string_view kind,
                             std::uint32_t latest_version,
                             PredictorParser parser) {
  ACSEL_CHECK_MSG(!kind.empty() && parser != nullptr,
                  "predictor kind registration needs a kind and a parser");
  KindRegistry& registry = KindRegistry::get();
  std::lock_guard<std::mutex> lock{registry.mu};
  registry.kinds.insert_or_assign(std::string{kind},
                                  KindEntry{latest_version, parser});
}

PredictorPtr parse_predictor(const std::string& text) {
  ensure_builtins_registered();

  std::istringstream is{text};
  std::string header;
  if (!std::getline(is, header)) {
    throw PredictorFormatError{"empty predictor text"};
  }
  const std::string body{text.substr(
      std::min(text.size(), header.size() + 1))};

  std::string kind;
  std::uint32_t version = 0;
  if (header == kLegacyHeader) {
    kind = TrainedModel::kKind;
    version = 1;
  } else if (starts_with(header, kEnvelopePrefix)) {
    const std::vector<std::string> fields = split(header, ' ');
    if (fields.size() != 3 || fields[1].empty() || fields[2].size() < 2 ||
        fields[2][0] != 'v') {
      throw PredictorFormatError{"malformed predictor envelope: " + header};
    }
    kind = fields[1];
    // Clamped, so a version past 32 bits reads as newer than supported
    // rather than wrapping onto a supported one.
    version = static_cast<std::uint32_t>(std::min<std::size_t>(
        parse_size(std::string_view{fields[2]}.substr(1)), UINT32_MAX));
  } else {
    throw PredictorFormatError{"unknown model format"};
  }

  KindEntry entry;
  {
    KindRegistry& registry = KindRegistry::get();
    std::lock_guard<std::mutex> lock{registry.mu};
    const auto it = registry.kinds.find(kind);
    if (it == registry.kinds.end()) {
      throw UnknownPredictorKindError{kind};
    }
    entry = it->second;
  }
  if (version == 0 || version > entry.latest_version) {
    throw UnsupportedPredictorVersionError{kind, version,
                                           entry.latest_version};
  }
  return entry.parser(version, body);
}

PredictorPtr load_predictor(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  ACSEL_CHECK_MSG(in.good(), "cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_predictor(buffer.str());
}

}  // namespace acsel::core
