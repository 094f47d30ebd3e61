// End-to-end fleet tests: routing stability, fleet-wide publish with the
// version-skew guard catching up revived nodes, node loss -> reroute ->
// deterministic failure detection, p95-derived hedging, demand-driven
// budget rebalancing, the wire stats scrape, and the delivery accounting
// contract (routed == delivered + shed, always).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/thread_pool.h"
#include "fleet/fleet.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "serve/codec.h"
#include "soc/machine.h"
#include "workloads/suite.h"

namespace acsel::fleet {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc::Machine machine{soc::MachineSpec{}, 4242};
    const auto suite = workloads::Suite::standard();
    characterizations_ = new std::vector<core::KernelCharacterization>{};
    for (const auto& instance : suite.instances()) {
      characterizations_->push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations_->size() == 12) {
        break;
      }
    }
    core::TrainerOptions options_a;
    options_a.clusters = 3;
    model_a_ = core::make_predictor(
        core::train(*characterizations_, options_a).model);
    core::TrainerOptions options_b;
    options_b.clusters = 2;
    model_b_ = core::make_predictor(
        core::train(*characterizations_, options_b).model);
  }

  static void TearDownTestSuite() {
    model_b_.reset();
    model_a_.reset();
    delete characterizations_;
  }

  static serve::SelectRequest make_request(std::uint64_t id,
                                           std::uint64_t salt = 0) {
    static const double caps[] = {18.0, 22.0, 26.0, 30.0, 40.0};
    const std::uint64_t mix = id * 2654435761u + salt;
    serve::SelectRequest request;
    request.request_id = id;
    request.samples =
        (*characterizations_)[mix % characterizations_->size()].samples;
    request.goal = static_cast<core::SchedulingGoal>(mix % 3);
    if (mix % 7 != 0) {
      request.cap_w = caps[mix % 5];
    }
    return request;
  }

  static FleetOptions small_fleet() {
    FleetOptions options;
    options.shards = 4;
    options.replicas = 3;
    return options;
  }

  static void expect_nothing_lost(const FleetStats& stats) {
    EXPECT_EQ(stats.routed, stats.delivered + stats.shed);
  }

  /// Scrapes the fleet over the wire, exactly as a remote monitor would.
  static serve::StatsResponse scrape(Fleet& fleet) {
    serve::StatsRequest request;
    request.request_id = 77;
    std::vector<std::uint8_t> frame;
    serve::encode_stats_request(request, frame);
    const serve::Decoded decoded = serve::decode_frame(fleet.serve_frame(frame));
    EXPECT_EQ(decoded.status, serve::DecodeStatus::Ok);
    EXPECT_EQ(decoded.type, serve::MessageType::StatsResponse);
    return decoded.stats_response;
  }

  /// Scrape rows by name; at() on an absent row throws, failing the test.
  static std::map<std::string, obs::MetricSnapshot> rows_by_name(
      const serve::StatsResponse& response) {
    std::map<std::string, obs::MetricSnapshot> rows;
    for (const obs::MetricSnapshot& row : response.metrics) {
      rows.emplace(row.name, row);
    }
    return rows;
  }

  static std::vector<core::KernelCharacterization>* characterizations_;
  static core::PredictorPtr model_a_;
  static core::PredictorPtr model_b_;
};

std::vector<core::KernelCharacterization>* FleetTest::characterizations_ =
    nullptr;
core::PredictorPtr FleetTest::model_a_;
core::PredictorPtr FleetTest::model_b_;

// ---- routing -----------------------------------------------------------

TEST_F(FleetTest, RoutesDeterministicallyAndDeliversEverything) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto request = make_request(i);
    const std::uint32_t home = fleet.shard_of(request);
    EXPECT_EQ(home, fleet.shard_of(request));  // pure function of the key
    const auto response = fleet.select(request);
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(response.request_id, request.request_id);
  }
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.routed, 60u);
  EXPECT_EQ(stats.delivered, 60u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rerouted, 0u);
  // Healthy TMR on identical models: every vote unanimous.
  EXPECT_EQ(stats.vote_disagreements, 0u);
  expect_nothing_lost(stats);
}

TEST_F(FleetTest, SameKernelAlwaysLandsOnItsHomeShard) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  const auto request = make_request(3);
  const std::uint32_t home = fleet.shard_of(request);
  for (int i = 0; i < 10; ++i) {
    (void)fleet.select(request);
  }
  EXPECT_EQ(fleet.shard_requests(home), 10u);
}

// ---- publish / version skew -------------------------------------------

TEST_F(FleetTest, PublishAssignsMonotonicFleetVersions) {
  Fleet fleet{small_fleet()};
  EXPECT_EQ(fleet.current_version(), 0u);
  EXPECT_EQ(fleet.publish(model_a_), 1u);
  EXPECT_EQ(fleet.publish(model_b_), 2u);
  EXPECT_EQ(fleet.current_version(), 2u);
  const auto response = fleet.select(make_request(1));
  EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
  EXPECT_EQ(response.model_version, 2u);
}

TEST_F(FleetTest, RevivedNodeCatchesUpToCurrentModel) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  // The node misses a publish while down...
  fleet.fail_node(NodeId{0, 1});
  fleet.publish(model_b_);
  // ...and is caught up by revive: every reply fleet-wide must carry the
  // current fleet version, or the revived replica would lose votes.
  fleet.revive_node(NodeId{0, 1});
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto response = fleet.select(make_request(i, 7));
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(response.model_version, 2u);
  }
  EXPECT_EQ(fleet.stats().vote_disagreements, 0u);
}

// ---- node loss / membership -------------------------------------------

TEST_F(FleetTest, DeadShardReroutesUntilDetectedThenSkipsFanout) {
  FleetOptions options = small_fleet();
  Fleet fleet{options};
  fleet.publish(model_a_);
  const auto request = make_request(5);
  const std::uint32_t home = fleet.shard_of(request);
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.fail_node(NodeId{home, r});
  }

  // Before detection: the shard is still routable, its fan-out produces
  // zero replies, and the router falls through to the next ring shard.
  const auto response = fleet.select(request);
  EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
  auto stats = fleet.stats();
  EXPECT_EQ(stats.rerouted, 1u);
  EXPECT_GT(stats.replica_timeouts, 0u);

  // Failure detection is deterministic in logical ticks: silent through
  // kSuspectAfterTicks -> Suspect, through kDeadAfterTicks -> Dead, sticky.
  for (std::uint64_t t = 0; t < kSuspectAfterTicks; ++t) {
    fleet.tick();
  }
  EXPECT_EQ(fleet.membership().state(NodeId{home, 0}), NodeState::Suspect);
  for (std::uint64_t t = kSuspectAfterTicks; t < kDeadAfterTicks; ++t) {
    fleet.tick();
  }
  EXPECT_EQ(fleet.membership().state(NodeId{home, 0}), NodeState::Dead);
  EXPECT_TRUE(fleet.membership().routable_replicas(home).empty());
  EXPECT_GT(fleet.stats().membership_transitions, 0u);

  // After detection the reroute is free: no fan-out, no timeout slots.
  const std::uint64_t timeouts_before = fleet.stats().replica_timeouts;
  const auto rerouted = fleet.select(request);
  EXPECT_EQ(rerouted.status, serve::ResponseStatus::Ok);
  EXPECT_EQ(fleet.stats().replica_timeouts, timeouts_before);
  expect_nothing_lost(fleet.stats());
}

TEST_F(FleetTest, WholeFleetDownShedsExplicitly) {
  FleetOptions options = small_fleet();
  options.shards = 2;
  Fleet fleet{options};
  fleet.publish(model_a_);
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    for (std::uint32_t r = 0; r < options.replicas; ++r) {
      fleet.fail_node(NodeId{s, r});
    }
  }
  const auto response = fleet.select(make_request(9));
  // The answer is an explicit Shed, not a drop or a hang.
  EXPECT_EQ(response.status, serve::ResponseStatus::Shed);
  EXPECT_EQ(response.request_id, make_request(9).request_id);
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.delivered, 0u);
  expect_nothing_lost(stats);
}

TEST_F(FleetTest, QuorumSurvivesMinorityLoss) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  const auto request = make_request(2);
  const std::uint32_t home = fleet.shard_of(request);
  fleet.fail_node(NodeId{home, 2});  // one of three replicas
  const auto response = fleet.select(request);
  EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.rerouted, 0u);  // the shard itself still answered
  EXPECT_EQ(stats.delivered, 1u);
}

// ---- hedging -----------------------------------------------------------

TEST_F(FleetTest, HedgeDelayDerivesFromP95AndCutsStragglers) {
  FleetOptions options = small_fleet();
  // Deterministic latency schedule: replica 2 of every shard is a
  // straggler, two orders of magnitude slower than its peers.
  options.latency_model = [](NodeId id, std::uint64_t) -> std::uint64_t {
    return id.replica == 2 ? 20'000'000 : 150'000;
  };
  options.hedge_min_delay_ns = 100'000;
  Fleet fleet{options};
  fleet.publish(model_a_);

  // Warm-up one shard past the hedge_min_samples threshold: hedging
  // starts from the cold-start fallback delay (effectively off) until
  // the shard's tracker has a real p95.
  const auto request = make_request(3);
  const std::uint32_t home = fleet.shard_of(request);
  EXPECT_EQ(fleet.hedge_delay_ns(home), FleetOptions{}.hedge_fallback_delay_ns);
  for (std::uint64_t i = 0; i < 40; ++i) {
    (void)fleet.select(request);
  }
  fleet.tick();  // refresh hedge delays from the observed p95
  // Quorum latency is the 2nd of {150us, 150us, 20ms} = 150us; the
  // p95-derived delay must be far below the straggler's 20 ms.
  EXPECT_LT(fleet.hedge_delay_ns(home), 2'000'000u);

  const std::uint64_t hedges_before = fleet.shard_hedges(home);
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)fleet.select(request);
  }
  // Every post-warm-up round hedges the straggler slot.
  EXPECT_GE(fleet.shard_hedges(home), hedges_before + 20);
  expect_nothing_lost(fleet.stats());
}

// ---- budget ------------------------------------------------------------

TEST_F(FleetTest, BudgetFollowsDemandAcrossShards) {
  FleetOptions options = small_fleet();
  options.rebalance_period = 1;
  options.budget.global_budget_w = 120.0;  // nominal 30 W x 4 shards
  Fleet fleet{options};
  fleet.publish(model_a_);

  // Drive all traffic at one kernel -> one hot shard.
  const auto request = make_request(3);
  const std::uint32_t hot = fleet.shard_of(request);
  for (int i = 0; i < 50; ++i) {
    (void)fleet.select(request);
  }
  fleet.tick();

  const double hot_cap = fleet.budget().shard(hot).cap_w;
  double cold_cap_sum = 0.0;
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    if (s != hot) {
      cold_cap_sum += fleet.budget().shard(s).cap_w;
    }
  }
  // Demand-proportional allocation: the hot shard out-earns every idle
  // shard's average.
  EXPECT_GT(hot_cap, cold_cap_sum / 3.0);
  EXPECT_GT(fleet.stats().rebalances, 0u);
  // The global budget is conserved (within the allocator's quantum).
  double total = hot_cap + cold_cap_sum;
  EXPECT_LE(total, options.budget.global_budget_w + 1e-6);
}

// ---- wire scrape -------------------------------------------------------

TEST_F(FleetTest, StatsScrapeCarriesFleetBlockOverTheWire) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)fleet.select(make_request(i));
  }
  const serve::StatsResponse response = scrape(fleet);
  const auto rows = rows_by_name(response);
  EXPECT_EQ(rows.at("fleet.shards").value, 4.0);
  EXPECT_EQ(rows.at("fleet.replicas").value, 12.0);
  EXPECT_EQ(rows.at("fleet.alive_replicas").value, 12.0);
  EXPECT_EQ(rows.at("fleet.routed").count, 10u);
  EXPECT_EQ(rows.at("fleet.delivered").count, 10u);
  EXPECT_EQ(rows.at("fleet.global_budget_w").value,
            fleet.stats().global_budget_w);
  EXPECT_EQ(rows.at("fleet.rebalances").count, fleet.stats().rebalances);
  EXPECT_EQ(rows.at("fleet.brownout_events").count, 0u);
  // No SLO engine: no scrape-time series/slo rows and no alerts.
  EXPECT_EQ(rows.count("slo.configured"), 0u);
  EXPECT_TRUE(response.alerts.empty());
}

TEST_F(FleetTest, ServeFrameRoutesSelectAndRejectsLikeAServer) {
  Fleet fleet{small_fleet()};
  fleet.publish(model_a_);
  std::vector<std::uint8_t> frame;
  serve::encode_request(make_request(4), frame);
  const auto reply = fleet.serve_frame(frame);
  const auto decoded = serve::decode_frame(reply);
  ASSERT_EQ(decoded.status, serve::DecodeStatus::Ok);
  ASSERT_EQ(decoded.type, serve::MessageType::SelectResponse);
  EXPECT_EQ(decoded.response.status, serve::ResponseStatus::Ok);

  // Feedback has no sink at the router; the reply is explicit.
  serve::FeedbackRequest feedback;
  feedback.request_id = 5;
  feedback.samples = make_request(4).samples;
  std::vector<std::uint8_t> feedback_frame;
  serve::encode_feedback_request(feedback, feedback_frame);
  const auto feedback_reply = fleet.serve_frame(feedback_frame);
  const auto feedback_decoded = serve::decode_frame(feedback_reply);
  ASSERT_EQ(feedback_decoded.status, serve::DecodeStatus::Ok);
  EXPECT_EQ(feedback_decoded.feedback_response.status,
            serve::ResponseStatus::Unsupported);

  // Garbage comes back MalformedRequest, like Server::serve_frame.
  const std::vector<std::uint8_t> garbage{1, 2, 3, 4};
  const auto garbage_reply = fleet.serve_frame(garbage);
  const auto garbage_decoded = serve::decode_frame(garbage_reply);
  ASSERT_EQ(garbage_decoded.status, serve::DecodeStatus::Ok);
  EXPECT_EQ(garbage_decoded.response.status,
            serve::ResponseStatus::MalformedRequest);
}

// ---- deadlines ---------------------------------------------------------

TEST_F(FleetTest, HedgeRespectsTheRequestDeadline) {
  FleetOptions options = small_fleet();
  options.latency_model = [](NodeId id, std::uint64_t) -> std::uint64_t {
    return id.replica == 2 ? 20'000'000 : 150'000;
  };
  options.hedge_min_delay_ns = 100'000;
  Fleet fleet{options};
  fleet.publish(model_a_);
  auto request = make_request(3);
  const std::uint32_t home = fleet.shard_of(request);
  for (std::uint64_t i = 0; i < 40; ++i) {
    (void)fleet.select(request);  // warm up the p95 tracker
  }
  fleet.tick();
  const std::uint64_t delay = fleet.hedge_delay_ns(home);
  ASSERT_LT(delay, 2'000'000u);

  // A deadline the hedge launch would already blow: hedging cannot help
  // the caller, so the straggler slot keeps its unhedged time and the
  // clip is counted instead of a hedge.
  request.deadline_ns = delay;  // hedge_delay >= deadline: clipped
  const std::uint64_t hedges_before = fleet.shard_hedges(home);
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)fleet.select(request);
  }
  EXPECT_EQ(fleet.shard_hedges(home), hedges_before);
  std::uint64_t clipped = 0;
  for (const auto& metric : fleet.stats_registry().snapshot()) {
    if (metric.name == "fleet.hedge_deadline_clipped") {
      clipped = metric.count;
    }
  }
  EXPECT_EQ(clipped, 10u);

  // A generous deadline leaves hedging intact.
  request.deadline_ns = 1'000'000'000;
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)fleet.select(request);
  }
  EXPECT_GE(fleet.shard_hedges(home), hedges_before + 10);
  expect_nothing_lost(fleet.stats());
}

// ---- distributed tracing ----------------------------------------------

TEST_F(FleetTest, EndToEndRequestTraceHasAReplicaCriticalPath) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  FleetOptions options = small_fleet();
  options.trace_sample_den = 1;  // root every request
  {
    Fleet fleet{options};
    fleet.publish(model_a_);
    const auto response = fleet.select(make_request(11));
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
  }
  tracer.disable();

  obs::Collector collector;
  collector.ingest(tracer, "fleet");
  tracer.clear();
  ASSERT_EQ(collector.trace_ids().size(), 1u);
  const obs::MergedTrace trace = collector.assemble(collector.trace_ids()[0]);

  // One merged trace holds the whole request: the router's root span,
  // the fan-out, a slot span per replica, each slot's transport client
  // span, and the vote.
  std::size_t replica_spans = 0;
  std::size_t client_spans = 0;
  bool has_vote = false;
  for (const auto& placed : trace.events) {
    replica_spans += placed.event.name.rfind("fleet.replica", 0) == 0;
    client_spans += placed.event.name == "client.select";
    has_vote = has_vote || placed.event.name == "fleet.vote";
  }
  EXPECT_EQ(replica_spans, 3u);
  EXPECT_EQ(client_spans, 3u);
  EXPECT_TRUE(has_vote);
  EXPECT_EQ(trace.events[trace.root].event.name, "fleet.route");

  // The critical path descends route -> fan-out -> the quorum slot (the
  // replica whose completion released the request).
  ASSERT_GE(trace.critical_path.size(), 3u);
  EXPECT_EQ(trace.events[trace.critical_path[0]].event.name, "fleet.route");
  EXPECT_EQ(trace.events[trace.critical_path[1]].event.name.rfind("fleet.fanout", 0),
            0u);
  EXPECT_EQ(
      trace.events[trace.critical_path[2]].event.name.rfind("fleet.replica", 0),
      0u);
}

// ---- SLO engine --------------------------------------------------------

/// Fast-burn SLO wiring for tests: tiny windows, generous p99/cap
/// objectives so only the delivered-fraction SLO is in play.
FleetOptions slo_fleet() {
  FleetOptions options;
  options.shards = 4;
  options.replicas = 3;
  options.slo.enabled = true;
  options.slo.burn.fast_window = 2;
  options.slo.burn.slow_window = 4;
  options.slo.burn.burn_threshold = 1.0;
  options.slo.error_budget = 0.5;
  options.slo.p99_objective_us = 1e6;
  options.slo.cap_exceedance_target = 1.0;
  return options;
}

TEST_F(FleetTest, DeliveredSloFiresUnderNodeLossAndClearsAfterRevive) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  FleetOptions options = slo_fleet();
  options.trace_sample_den = 1;
  Fleet fleet{options};
  fleet.publish(model_a_);
  const auto request = make_request(3);
  const std::uint32_t home = fleet.shard_of(request);

  auto drive_tick = [&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      (void)fleet.select(request);
    }
    fleet.tick();
  };

  drive_tick();
  drive_tick();
  EXPECT_TRUE(fleet.alerts().empty());  // healthy history

  // Kill the whole home shard: every request reroutes, so the
  // owner-first-try delivered fraction collapses to zero.
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.fail_node(NodeId{home, r});
  }
  drive_tick();
  drive_tick();
  tracer.disable();
  ASSERT_EQ(fleet.alerts().size(), 1u);
  const obs::Alert fired = fleet.alerts()[0];
  EXPECT_EQ(fired.slo, "fleet.delivered");
  EXPECT_TRUE(fired.active());
  EXPECT_GE(fired.fast_burn, 1.0);
  EXPECT_LT(fired.worst_value, kDeliveredObjective);
  // The wire scrape carries the firing alert as an alert row.
  const serve::StatsResponse scraped = scrape(fleet);
  ASSERT_EQ(scraped.alerts.size(), 1u);
  EXPECT_EQ(scraped.alerts[0].slo, fired.slo);
  EXPECT_EQ(scraped.alerts[0].exemplar_trace_ids, fired.exemplar_trace_ids);
  EXPECT_EQ(rows_by_name(scraped).at("slo.active").value, 1.0);

  // The alert carries exemplar trace ids that resolve in the merged
  // trace: an operator can jump from the alert to a traced request that
  // shows the reroute.
  ASSERT_FALSE(fired.exemplar_trace_ids.empty());
  obs::Collector collector;
  collector.ingest(tracer, "fleet");
  tracer.clear();
  const obs::MergedTrace exemplar =
      collector.assemble(fired.exemplar_trace_ids[0]);
  EXPECT_FALSE(exemplar.empty());

  // Revive the shard and serve two healthy ticks: the fast window
  // drains and the alert clears.
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.revive_node(NodeId{home, r});
  }
  drive_tick();
  drive_tick();
  ASSERT_EQ(fleet.alerts().size(), 1u);
  EXPECT_FALSE(fleet.alerts()[0].active());
  EXPECT_GT(fleet.alerts()[0].cleared_tick, fleet.alerts()[0].fired_tick);
  ASSERT_EQ(fleet.slo_states().size(), 3u);
  for (const obs::SloState& state : fleet.slo_states()) {
    EXPECT_FALSE(state.firing) << state.name;
  }
  expect_nothing_lost(fleet.stats());
}

TEST_F(FleetTest, StatsScrapeCarriesSeriesAndSloBlocksOverTheWire) {
  Fleet fleet{slo_fleet()};
  fleet.publish(model_a_);
  for (std::uint64_t tick = 0; tick < 3; ++tick) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      (void)fleet.select(make_request(i));
    }
    fleet.tick();
  }
  const serve::StatsResponse response = scrape(fleet);
  // The scrape-time rows are merged into the registry rows by name.
  EXPECT_TRUE(std::is_sorted(
      response.metrics.begin(), response.metrics.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  const auto rows = rows_by_name(response);
  EXPECT_EQ(rows.at("series.ticks").value, 3.0);
  EXPECT_GT(rows.at("series.capacity").value, 0.0);
  // Every SLO-referenced series travels with its slow-window rollup.
  for (const std::string name :
       {"fleet.delivered_ok", "fleet.routed", "fleet.window_p99_us",
        "fleet.window_cap_exceedance"}) {
    for (const char* field : {"latest", "sum", "min", "max", "avg"}) {
      EXPECT_EQ(rows.count("series." + name + "." + field), 1u)
          << name << "." << field;
    }
  }
  const obs::MetricSnapshot& routed = rows.at("series.fleet.routed.latest");
  EXPECT_EQ(routed.kind, obs::MetricKind::Gauge);
  EXPECT_EQ(routed.value, 15.0);
  EXPECT_EQ(routed.count, 3u);

  EXPECT_EQ(rows.at("slo.configured").value, 3.0);
  EXPECT_EQ(rows.at("slo.active").value, 0.0);  // healthy: nothing firing
  EXPECT_TRUE(response.alerts.empty());
}

// ---- executor fan-out --------------------------------------------------

TEST_F(FleetTest, ParallelFanoutMatchesInlineDecisions) {
  // The executor only changes *where* replica calls run, never the
  // verdict: same requests, same configurations, with and without a pool.
  FleetOptions inline_options = small_fleet();
  Fleet inline_fleet{inline_options};
  inline_fleet.publish(model_a_);
  std::vector<std::uint32_t> inline_configs;
  for (std::uint64_t i = 0; i < 30; ++i) {
    inline_configs.push_back(inline_fleet.select(make_request(i)).config_index);
  }

  exec::ThreadPool pool{2};
  FleetOptions pooled_options = small_fleet();
  pooled_options.executor = &pool;
  Fleet pooled{pooled_options};
  pooled.publish(model_a_);
  for (std::uint64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(pooled.select(make_request(i)).config_index, inline_configs[i]);
  }
  EXPECT_EQ(pooled.stats().vote_disagreements, 0u);
  expect_nothing_lost(pooled.stats());
}

// ---- brownout / power emergency ----------------------------------------

TEST_F(FleetTest, ColdShardKeepsTheFallbackHedgeDelay) {
  FleetOptions options = small_fleet();
  options.latency_model = [](NodeId, std::uint64_t) -> std::uint64_t {
    return 150'000;
  };
  options.hedge_min_samples = 1'000'000;  // never enough samples
  options.hedge_fallback_delay_ns = 4'000'000;
  Fleet fleet{options};
  fleet.publish(model_a_);
  const auto request = make_request(3);
  const std::uint32_t home = fleet.shard_of(request);
  for (std::uint64_t i = 0; i < 40; ++i) {
    (void)fleet.select(request);
  }
  fleet.tick();
  // Below the sample threshold the p95 is noise; the delay must stay
  // pinned at the configured fallback, not track a garbage tail.
  EXPECT_EQ(fleet.hedge_delay_ns(home), 4'000'000u);
}

TEST_F(FleetTest, PowerEmergencyShedsLowPriorityAndRecoversStaged) {
  FleetOptions options = small_fleet();
  options.rebalance_period = 1;
  Fleet fleet{options};
  fleet.publish(model_a_);
  EXPECT_EQ(fleet.brownout_stage(), BrownoutStage::None);

  // Emergency: 40% of base is below the floor-pressure threshold, so the
  // next rebalance escalates straight to ForceLowPower.
  fleet.set_emergency_budget(0.4 * FleetOptions{}.budget.global_budget_w);
  fleet.tick();
  EXPECT_EQ(fleet.brownout_stage(), BrownoutStage::ForceLowPower);

  // Low priority is shed at the router; High still flows.
  serve::SelectRequest low = make_request(1);
  low.priority = serve::Priority::Low;
  EXPECT_EQ(fleet.select(low).status, serve::ResponseStatus::Shed);
  serve::SelectRequest high = make_request(2);
  high.priority = serve::Priority::High;
  EXPECT_EQ(fleet.select(high).status, serve::ResponseStatus::Ok);
  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed_by_priority[2], 1u);
  EXPECT_EQ(stats.delivered_by_priority[0], 1u);
  EXPECT_EQ(stats.brownout_stage, 3u);
  EXPECT_EQ(stats.brownout_events, 1u);
  expect_nothing_lost(stats);

  // Recovery unwinds one stage per rebalance, not in one snap.
  fleet.clear_emergency_budget();
  fleet.tick();
  EXPECT_EQ(fleet.brownout_stage(), BrownoutStage::ShedLowPriority);
  fleet.tick();
  EXPECT_EQ(fleet.brownout_stage(), BrownoutStage::DropHedges);
  fleet.tick();
  EXPECT_EQ(fleet.brownout_stage(), BrownoutStage::None);

  // Fully recovered: Low flows again, per-class accounting still holds.
  low.request_id = 99;
  EXPECT_EQ(fleet.select(low).status, serve::ResponseStatus::Ok);
  stats = fleet.stats();
  EXPECT_EQ(stats.delivered_by_priority[2], 1u);
  EXPECT_EQ(stats.routed_by_priority[2],
            stats.delivered_by_priority[2] + stats.shed_by_priority[2]);
  expect_nothing_lost(stats);
}

}  // namespace
}  // namespace acsel::fleet
