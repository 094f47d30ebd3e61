// Fingerprint-keyed model serving, end to end: registry exact /
// nearest-architecture / unkeyed fallback, the version-collision guard,
// the server's model-mismatch accounting, the heterogeneous fleet's
// fingerprint-aware routing, and a single transfer-matrix cell (cliff
// detected, adaptation recovers).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "fleet/fleet.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "util/error.h"
#include "workloads/suite.h"
#include "zoo/archetype.h"
#include "zoo/fingerprint.h"
#include "zoo/transfer.h"

namespace acsel::zoo {
namespace {

class ZooTransferTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc::Machine machine{soc::MachineSpec{}, 4242};
    const auto suite = workloads::Suite::standard();
    characterizations_ = new std::vector<core::KernelCharacterization>{};
    for (const auto& instance : suite.instances()) {
      characterizations_->push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations_->size() == 8) {
        break;
      }
    }
    core::TrainerOptions options;
    options.clusters = 3;
    model_a_ = core::make_predictor(
        core::train(*characterizations_, options).model);
    options.clusters = 2;
    model_b_ = core::make_predictor(
        core::train(*characterizations_, options).model);
  }

  static void TearDownTestSuite() {
    model_b_.reset();
    model_a_.reset();
    delete characterizations_;
  }

  static HardwareFingerprint fingerprint(Archetype archetype) {
    return fingerprint_of(ArchetypeCatalog{90210}.spec(archetype));
  }

  static serve::SelectRequest keyed_request(
      std::uint64_t id, const HardwareFingerprint& fingerprint) {
    serve::SelectRequest request;
    request.request_id = id;
    request.fingerprint = fingerprint;
    request.samples =
        (*characterizations_)[id % characterizations_->size()].samples;
    return request;
  }

  static std::vector<core::KernelCharacterization>* characterizations_;
  static core::PredictorPtr model_a_;
  static core::PredictorPtr model_b_;
};

std::vector<core::KernelCharacterization>*
    ZooTransferTest::characterizations_ = nullptr;
core::PredictorPtr ZooTransferTest::model_a_;
core::PredictorPtr ZooTransferTest::model_b_;

// ----------------------------------------------------------- registry ---

TEST_F(ZooTransferTest, RegistryServesTheExactFingerprintMatch) {
  serve::ModelRegistry registry;
  const std::uint64_t version_a =
      registry.publish(model_a_, fingerprint(Archetype::Trinity));
  registry.publish(model_b_, fingerprint(Archetype::HpcGpu));
  const serve::FingerprintMatch match =
      registry.current_for(fingerprint(Archetype::Trinity));
  EXPECT_TRUE(match.exact);
  EXPECT_EQ(match.model.version, version_a);
  EXPECT_EQ(match.model.model, model_a_);
}

TEST_F(ZooTransferTest, RegistryFallsBackToTheNearestArchitecture) {
  serve::ModelRegistry registry;
  registry.publish(model_a_, fingerprint(Archetype::Trinity));
  registry.publish(model_b_, fingerprint(Archetype::HpcGpu));
  // No edge model is published; the Trinity APU is much closer to the
  // edge class's descriptor than the HPC node is.
  const serve::FingerprintMatch match =
      registry.current_for(fingerprint(Archetype::Edge));
  EXPECT_FALSE(match.exact);
  EXPECT_EQ(match.model.model, model_a_);
}

TEST_F(ZooTransferTest, RegistryFallsBackToTheUnkeyedCurrentModel) {
  serve::ModelRegistry registry;
  const std::uint64_t version = registry.publish(model_a_);
  const serve::FingerprintMatch match =
      registry.current_for(fingerprint(Archetype::Edge));
  EXPECT_FALSE(match.exact);
  EXPECT_EQ(match.model.version, version);
  EXPECT_EQ(match.model.model, model_a_);
}

TEST_F(ZooTransferTest, EmptyRegistryResolvesToNoModel) {
  const serve::ModelRegistry registry;
  const serve::FingerprintMatch match =
      registry.current_for(fingerprint(Archetype::Trinity));
  EXPECT_FALSE(match.exact);
  EXPECT_EQ(match.model.version, 0u);
  EXPECT_EQ(match.model.model, nullptr);
}

TEST_F(ZooTransferTest, NewerPublishUnderTheSameFingerprintWins) {
  serve::ModelRegistry registry;
  registry.publish(model_a_, fingerprint(Archetype::Trinity));
  const std::uint64_t newer =
      registry.publish(model_b_, fingerprint(Archetype::Trinity));
  const serve::FingerprintMatch match =
      registry.current_for(fingerprint(Archetype::Trinity));
  EXPECT_TRUE(match.exact);
  EXPECT_EQ(match.model.version, newer);
  EXPECT_EQ(match.model.model, model_b_);
}

TEST_F(ZooTransferTest, VersionCollisionAcrossArchitecturesIsTyped) {
  serve::ModelRegistry registry;
  registry.adopt_model(5, model_a_, false, fingerprint(Archetype::Trinity));
  // Re-adopting the same version for the same architecture is the
  // idempotent catch-up path...
  EXPECT_NO_THROW(registry.adopt_model(5, model_a_, false,
                                       fingerprint(Archetype::Trinity)));
  // ...but the same version number under another architecture's
  // fingerprint is a cluster-wide numbering bug, reported as such.
  EXPECT_THROW(registry.adopt_model(5, model_b_, false,
                                    fingerprint(Archetype::HpcGpu)),
               serve::FingerprintCollisionError);
  // The registry kept serving its original mapping.
  EXPECT_TRUE(
      registry.current_for(fingerprint(Archetype::Trinity)).exact);
}

// ------------------------------------------------------------- server ---

TEST_F(ZooTransferTest, ServerCountsMismatchedFingerprintServes) {
  serve::ModelRegistry registry;
  registry.publish(model_a_, fingerprint(Archetype::Trinity));
  serve::ServerOptions options;
  options.workers = 1;
  serve::Server server{registry, options};

  const serve::SelectResponse matched =
      server.select(keyed_request(1, fingerprint(Archetype::Trinity)));
  EXPECT_EQ(matched.status, serve::ResponseStatus::Ok);
  EXPECT_EQ(server.metrics_snapshot().model_mismatch, 0u);

  // An edge-keyed request is served (nearest architecture), but the
  // mismatch is visible in the metrics — this is the signal an operator
  // alerts on before the transfer cliff becomes an outage.
  const serve::SelectResponse fallback =
      server.select(keyed_request(2, fingerprint(Archetype::Edge)));
  EXPECT_EQ(fallback.status, serve::ResponseStatus::Ok);
  EXPECT_EQ(server.metrics_snapshot().model_mismatch, 1u);
}

// -------------------------------------------------- heterogeneous fleet --

TEST_F(ZooTransferTest, HeterogeneousFleetRoutesToMatchedShards) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.shard_fingerprints = {fingerprint(Archetype::Trinity),
                                fingerprint(Archetype::HpcGpu)};
  fleet::Fleet fleet{options};
  fleet.publish_for(fingerprint(Archetype::Trinity), model_a_);
  fleet.publish_for(fingerprint(Archetype::HpcGpu), model_b_);
  for (std::uint64_t id = 1; id <= 24; ++id) {
    const HardwareFingerprint target = fingerprint(
        id % 2 == 0 ? Archetype::Trinity : Archetype::HpcGpu);
    const serve::SelectResponse response =
        fleet.select(keyed_request(id, target));
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok) << "id " << id;
  }
  const fleet::FleetStats stats = fleet.stats();
  fleet.stop();
  // Every shard is healthy, so every request landed on its own
  // architecture's shard.
  EXPECT_EQ(stats.delivered, 24u);
  EXPECT_EQ(stats.model_mismatch, 0u);
}

TEST_F(ZooTransferTest, FailedMatchedShardFallsBackAndCountsMismatch) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.shard_fingerprints = {fingerprint(Archetype::Trinity),
                                fingerprint(Archetype::HpcGpu)};
  fleet::Fleet fleet{options};
  fleet.publish_for(fingerprint(Archetype::Trinity), model_a_);
  fleet.publish_for(fingerprint(Archetype::HpcGpu), model_b_);
  // Kill every replica of the Trinity shard (shard 0): Trinity-keyed
  // traffic must still be served — by the other architecture's shard,
  // and counted as a mismatch per delivered request.
  fleet.fail_node(fleet::NodeId{0, 0});
  fleet.fail_node(fleet::NodeId{0, 1});
  std::uint64_t delivered = 0;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const serve::SelectResponse response =
        fleet.select(keyed_request(id, fingerprint(Archetype::Trinity)));
    delivered += response.status == serve::ResponseStatus::Ok ? 1 : 0;
  }
  const fleet::FleetStats stats = fleet.stats();
  fleet.stop();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(stats.model_mismatch, delivered);
}

TEST_F(ZooTransferTest, ShardFingerprintCountMustMatchTheShardCount) {
  fleet::FleetOptions options;
  options.shards = 4;
  options.replicas = 1;
  options.shard_fingerprints = {fingerprint(Archetype::Trinity),
                                fingerprint(Archetype::HpcGpu)};
  EXPECT_THROW(fleet::Fleet{options}, Error);
}

TEST_F(ZooTransferTest, PublishForAnUnknownArchitectureThrows) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 1;
  options.shard_fingerprints = {fingerprint(Archetype::Trinity),
                                fingerprint(Archetype::HpcGpu)};
  fleet::Fleet fleet{options};
  EXPECT_THROW(
      fleet.publish_for(fingerprint(Archetype::Edge), model_a_), Error);
  fleet.stop();
}

// ----------------------------------------------------- transfer matrix --

TEST_F(ZooTransferTest, TransferCellDetectsTheCliffAndRecovers) {
  TransferEval eval;  // default seed; inline executor
  const TransferResult cell = eval.run(Archetype::Trinity,
                                       Archetype::HpcGpu);
  // Cold transfer is strictly worse than the serve machine's own model —
  // the cliff the fingerprint machinery exists to prevent.
  EXPECT_GT(cell.mismatched_score, cell.matched_score);
  // The adapt loop promoted at least one retrained model and closed most
  // of the gap from live feedback alone.
  EXPECT_GE(cell.adapt.promotions, 1u);
  EXPECT_GT(cell.rounds_to_promotion, 0);
  EXPECT_LT(cell.recovered_score, cell.mismatched_score);
}

TEST_F(ZooTransferTest, DiagonalCellsShortCircuitWithoutAdaptation) {
  TransferEval eval;
  const TransferResult cell = eval.run(Archetype::Edge, Archetype::Edge);
  EXPECT_EQ(cell.mismatched_score, cell.matched_score);
  EXPECT_EQ(cell.recovered_score, cell.matched_score);
  EXPECT_EQ(cell.rounds_to_promotion, -1);
  EXPECT_EQ(cell.adapt.retrains, 0u);
}

}  // namespace
}  // namespace acsel::zoo
