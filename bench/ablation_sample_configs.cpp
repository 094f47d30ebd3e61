// Ablation of the online sampling budget and the §VI risk-aware
// scheduler:
//  * sample iterations per device — the paper deliberately uses one
//    iteration per device ("our model needs only two iterations of a
//    kernel to find an effective configuration"; "requiring more sample
//    configurations leads to more time spent in configurations that are
//    suboptimal"). The sweep quantifies what averaging extra sample
//    iterations would buy;
//  * scheduler risk aversion — backing off configurations whose power
//    prediction interval crosses the cap trades performance for cap
//    compliance (§VI "taking variance into account").
#include <iostream>

#include "bench_common.h"
#include "eval/tables.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace acsel;
  bench::print_header("Sampling-budget and risk-aversion ablation",
                      "§III-B two-iteration claim; §VI extensions");

  const auto suite = workloads::Suite::standard();

  {
    TextTable table;
    table.set_header({"Sample iters/device", "Model+FL % under",
                      "Model+FL % perf (under)", "Sampling iterations"});
    for (const int reps : {1, 2, 4}) {
      const soc::Machine machine = bench::make_machine();
      eval::ProtocolOptions options;
      options.methods = {eval::Method::ModelFL};
      options.characterize.sample_reps = reps;
      const auto result = eval::run_loocv(
          {.machine = machine, .executor = bench::bench_executor()}, suite,
          options);
      const auto agg =
          eval::aggregate_method(result.cases, eval::Method::ModelFL);
      table.add_row({
          std::to_string(reps),
          format_double(agg.pct_under_limit, 3),
          format_double(agg.under_perf_pct, 3),
          std::to_string(2 * reps) + " per kernel",
      });
    }
    table.print(std::cout,
                "Sample-iteration sweep (paper runs exactly 2 total):");
    std::cout << "\nExpected: marginal gains beyond one iteration per "
                 "device — the two-sample design\nis enough, and extra "
                 "samples cost time at suboptimal configurations.\n\n";
  }

  {
    const soc::Machine machine = bench::make_machine();
    const auto characterizations =
        eval::characterize(machine, suite, {}, bench::bench_executor());
    TextTable table;
    table.set_header({"Risk aversion (sigma)", "Model % under",
                      "Model % perf (under)"});
    for (const double risk : {0.0, 0.5, 1.0, 2.0}) {
      eval::ProtocolOptions options;
      options.methods = {eval::Method::Model};
      options.method.policy = core::SelectionPolicy::upper_confidence(risk);
      const auto result = eval::run_loocv_characterized(
          {.machine = machine, .executor = bench::bench_executor()}, suite,
          characterizations, options);
      const auto agg =
          eval::aggregate_method(result.cases, eval::Method::Model);
      table.add_row({
          format_double(risk, 2),
          format_double(agg.pct_under_limit, 3),
          format_double(agg.under_perf_pct, 3),
      });
    }
    table.print(std::cout, "Risk-aversion sweep (§VI, model without FL):");
    std::cout << "\nExpected: under-limit rate rises with risk aversion "
                 "while under-limit\nperformance falls — the variance-aware "
                 "trade-off the paper's future work describes.\n";
  }
  return 0;
}
