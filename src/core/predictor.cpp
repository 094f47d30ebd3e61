#include "core/predictor.h"

#include <algorithm>
#include <fstream>
#include <memory>
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

/// The body version both families write; the only one they read.
constexpr std::uint32_t kBodyVersion = 1;

template <typename Model>
PredictorPtr read_predictor(const std::string& body) {
  typename Model::Body parts = Model::read_body(body);
  return std::make_shared<const Model>(std::move(parts.clusters),
                                       std::move(parts.tree));
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
  os << kEnvelopePrefix << kind() << " v" << kBodyVersion << '\n'
     << serialize_body();
  return os.str();
}

void Predictor::save(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  ACSEL_CHECK_MSG(out.good(), "cannot open model file for write: " + path);
  out << serialize();
  ACSEL_CHECK_MSG(out.good(), "failed writing model file: " + path);
}

PredictorPtr parse_predictor(const std::string& text) {
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

  if (kind != TrainedModel::kKind && kind != GpPredictor::kKind) {
    throw UnknownPredictorKindError{kind};
  }
  if (version != kBodyVersion) {
    throw UnsupportedPredictorVersionError{kind, version, kBodyVersion};
  }
  return kind == TrainedModel::kKind ? read_predictor<TrainedModel>(body)
                                     : read_predictor<GpPredictor>(body);
}

PredictorPtr load_predictor(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  ACSEL_CHECK_MSG(in.good(), "cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_predictor(buffer.str());
}

}  // namespace acsel::core
