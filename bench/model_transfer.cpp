// Cross-architecture model transfer bench: train a predictor on
// archetype A, serve archetype B cold, and measure the cliff — selection
// error and cap-violation rate against B's own matched model — then let
// the adapt loop (drift -> retrain -> canary -> republish) close the gap
// and report the recovery lag. Runs the full A×B matrix over the zoo's
// archetypes (--quick: a 2×2 Trinity/HPC-GPU sub-matrix for CI) and
// emits BENCH_transfer.json. On every off-diagonal pair the bench exits
// non-zero unless the mismatched score is strictly worse than the
// matched one (the cliff) and the recovered score is within 2x of
// matched plus 0.02 (a floor so near-zero matched scores do not demand
// the impossible).
//
// A second section stands up a *heterogeneous* fleet — one shard per
// archetype, each shard carrying its architecture's fingerprint and
// model via publish_for — and drives fingerprint-carrying requests
// through it: with every shard healthy, routing must deliver 100% of
// requests on fingerprint-matched shards with zero model mismatches and
// nothing shed.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet.h"
#include "util/strings.h"
#include "util/table.h"
#include "zoo/fingerprint.h"
#include "zoo/transfer.h"

using namespace acsel;

int main(int argc, char** argv) {
  bench::print_header("model_transfer: train on A, serve B, adapt back",
                      "cross-architecture transfer (no paper counterpart)");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    }
  }

  const std::vector<zoo::Archetype> quick_archetypes{
      zoo::Archetype::Trinity, zoo::Archetype::HpcGpu};
  const std::span<const zoo::Archetype> archetypes =
      quick ? std::span<const zoo::Archetype>{quick_archetypes}
            : zoo::all_archetypes();

  zoo::TransferOptions options;
  options.seed = bench::kBenchSeed;
  options.executor = &bench::bench_executor();
  zoo::TransferEval eval{options};
  const std::vector<zoo::TransferResult> matrix = eval.run_matrix(archetypes);

  // -- transfer matrix ----------------------------------------------------
  TextTable table;
  table.set_header({"train \\ serve", "matched", "mismatched", "viol%",
                    "recovered", "viol%", "rounds"});
  bench::Gate gate;
  bool cliff_everywhere = true;
  bool recovery_everywhere = true;
  for (const zoo::TransferResult& cell : matrix) {
    const bool diagonal = cell.train_arch == cell.serve_arch;
    const std::string pair = std::string(zoo::to_string(cell.train_arch)) +
                             " -> " + zoo::to_string(cell.serve_arch);
    if (!diagonal) {
      cliff_everywhere &=
          gate.check(cell.mismatched_score > cell.matched_score,
                     pair + " mismatched_score", cell.mismatched_score,
                     "> matched " + format_double(cell.matched_score, 6));
      const double recovery_bound = 2.0 * cell.matched_score + 0.02;
      recovery_everywhere &=
          gate.check(cell.recovered_score <= recovery_bound,
                     pair + " recovered_score", cell.recovered_score,
                     "<= 2 x matched + 0.02 = " +
                         format_double(recovery_bound, 6));
    }
    table.add_row({pair,
                   format_double(cell.matched_score, 4),
                   format_double(cell.mismatched_score, 4),
                   format_double(100.0 * cell.mismatched_violation_rate, 3),
                   format_double(cell.recovered_score, 4),
                   format_double(100.0 * cell.recovered_violation_rate, 3),
                   diagonal ? "-" : std::to_string(cell.rounds_to_promotion)});
  }
  table.print(std::cout, "transfer score (selection error + cap-violation "
                         "rate): matched vs cold transfer vs "
                         "post-adaptation");

  // -- heterogeneous fleet ------------------------------------------------
  // One shard per archetype; each shard's replicas adopt their own
  // architecture's model under its fingerprint. Fingerprint-carrying
  // requests must land on matching shards — 100% delivered, 0 mismatch.
  const zoo::ArchetypeCatalog catalog{options.seed};
  fleet::FleetOptions fleet_options;
  fleet_options.shards = archetypes.size();
  fleet_options.replicas = 3;
  fleet_options.executor = &bench::bench_executor();
  for (const zoo::Archetype archetype : archetypes) {
    fleet_options.shard_fingerprints.push_back(
        zoo::fingerprint_of(catalog.spec(archetype)));
  }
  fleet::Fleet fleet{fleet_options};
  for (const zoo::Archetype archetype : archetypes) {
    fleet.publish_for(zoo::fingerprint_of(catalog.spec(archetype)),
                      eval.data(archetype).model);
  }
  std::uint64_t request_id = 0;
  std::uint64_t fleet_ok = 0;
  std::uint64_t fleet_requests = 0;
  for (const zoo::Archetype archetype : archetypes) {
    const zoo::ArchData& data = eval.data(archetype);
    for (const core::KernelCharacterization& truth : data.truths) {
      serve::SelectRequest request;
      request.request_id = ++request_id;
      request.cap_w = data.cap_w;
      request.fingerprint = data.fingerprint;
      request.samples = truth.samples;
      const serve::SelectResponse response = fleet.select(request);
      ++fleet_requests;
      fleet_ok += response.status == serve::ResponseStatus::Ok ? 1 : 0;
    }
  }
  const fleet::FleetStats fleet_stats = fleet.stats();
  fleet.stop();
  bool fleet_clean =
      gate.check(fleet_ok == fleet_requests, "fleet delivered_ok", fleet_ok,
                 "== requests " + std::to_string(fleet_requests));
  fleet_clean &= gate.check(fleet_stats.model_mismatch == 0,
                            "fleet model_mismatch",
                            fleet_stats.model_mismatch, "== 0");
  fleet_clean &=
      gate.check(fleet_stats.shed == 0, "fleet shed", fleet_stats.shed, "== 0");

  std::cout << "\nHeterogeneous fleet: " << fleet_ok << "/" << fleet_requests
            << " delivered, " << fleet_stats.model_mismatch
            << " model mismatches, " << fleet_stats.rerouted
            << " reroutes.\n";
  std::cout << "Headline: cliff "
            << (cliff_everywhere ? "detected" : "NOT detected")
            << " on every off-diagonal pair; recovery "
            << (recovery_everywhere ? "within" : "NOT within")
            << " 2x of matched; fleet "
            << (fleet_clean ? "clean" : "NOT clean") << ".\n";

  // -- BENCH_transfer.json ------------------------------------------------
  std::ofstream json{"BENCH_transfer.json"};
  json << "{\n  \"bench\": \"model_transfer\",\n  \"seed\": " << options.seed
       << ",\n  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"archetypes\": [";
  for (std::size_t i = 0; i < archetypes.size(); ++i) {
    json << (i > 0 ? ", " : "") << '"' << zoo::to_string(archetypes[i])
         << '"';
  }
  json << "],\n  \"matrix\": [\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const zoo::TransferResult& cell = matrix[i];
    json << "    {\"train\": \"" << zoo::to_string(cell.train_arch)
         << "\", \"serve\": \"" << zoo::to_string(cell.serve_arch)
         << "\", \"matched_error\": " << format_double(cell.matched_error, 6)
         << ", \"matched_score\": " << format_double(cell.matched_score, 6)
         << ", \"mismatched_error\": "
         << format_double(cell.mismatched_error, 6)
         << ", \"mismatched_score\": "
         << format_double(cell.mismatched_score, 6)
         << ", \"mismatched_violation_rate\": "
         << format_double(cell.mismatched_violation_rate, 4)
         << ", \"recovered_error\": "
         << format_double(cell.recovered_error, 6)
         << ", \"recovered_score\": "
         << format_double(cell.recovered_score, 6)
         << ", \"recovered_violation_rate\": "
         << format_double(cell.recovered_violation_rate, 4)
         << ", \"rounds_to_promotion\": " << cell.rounds_to_promotion
         << ", \"promotions\": " << cell.adapt.promotions
         << ", \"retrains\": " << cell.adapt.retrains << "}"
         << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"fleet\": {\"requests\": " << fleet_requests
       << ", \"delivered_ok\": " << fleet_ok
       << ", \"model_mismatch\": " << fleet_stats.model_mismatch
       << ", \"rerouted\": " << fleet_stats.rerouted
       << ", \"shed\": " << fleet_stats.shed
       << "},\n  \"headline\": {\"cliff_everywhere\": "
       << (cliff_everywhere ? "true" : "false")
       << ", \"recovery_everywhere\": "
       << (recovery_everywhere ? "true" : "false") << ", \"fleet_clean\": "
       << (fleet_clean ? "true" : "false") << "}\n}\n";
  std::cout << "Wrote BENCH_transfer.json\n";
  return gate.exit_code();
}
