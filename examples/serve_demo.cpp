// Serving demo: the node-level model as a concurrent service.
//
//  1. Train a model offline and publish it to a ModelRegistry.
//  2. Start a Server: worker pool + bounded queue + request batching.
//  3. Hit it from concurrent clients (direct API and the retrying wire
//     Client, which frames requests and backs off on transient failures).
//  4. Retrain, hot-swap the new version mid-traffic, then roll back —
//     all without pausing a single in-flight request.
//  5. Dump the server metrics table.
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "profile/profiler.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/server.h"
#include "util/strings.h"
#include "workloads/suite.h"

int main() {
  using namespace acsel;
  soc::Machine machine;
  const hw::ConfigSpace space;
  const auto suite = workloads::Suite::standard();

  // -- offline: train on LULESH/CoMD/SMC, serve requests about LU --------
  std::vector<core::KernelCharacterization> training;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != "LU") {
      training.push_back(eval::characterize_instance(machine, instance));
    }
  }
  serve::ModelRegistry registry;
  const std::uint64_t v1 =
      registry.publish(core::make_predictor(core::train(training).model));
  std::cout << "Published model version " << v1 << ".\n";

  // -- online: sample the unseen kernels once per device -----------------
  profile::Profiler profiler{machine};
  std::vector<core::SamplePair> kernels;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == "LU") {
      core::SamplePair samples;
      samples.cpu = profiler.run(instance, space.cpu_sample());
      samples.gpu = profiler.run(instance, space.gpu_sample());
      kernels.push_back(samples);
    }
  }

  serve::ServerOptions options;
  options.workers = 4;
  serve::Server server{registry, options};

  // -- concurrent clients: every cap re-evaluated for every kernel -------
  const double caps[] = {18.0, 22.0, 26.0, 30.0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::SelectResponse>> futures;
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        serve::SelectRequest request;
        request.request_id = c * 100 + k;
        request.samples = kernels[k];
        request.cap_w = caps[c];
        futures.push_back(server.submit(request));
      }
      for (auto& future : futures) {
        (void)future.get();
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }

  // -- one request over the wire, through the retrying Client (the same
  //    path a socket front-end would use; the transport is pluggable) ----
  serve::Client wire_client{[&](std::span<const std::uint8_t> frame) {
    return server.serve_frame(frame);
  }};
  serve::SelectRequest wire_request;
  wire_request.request_id = 999;
  wire_request.samples = kernels.front();
  wire_request.cap_w = 28.0;
  const serve::SelectResponse wire_response = wire_client.select(wire_request);
  std::cout << "Wire request -> "
            << space.at(wire_response.config_index).to_string()
            << " (predicted "
            << format_double(wire_response.predicted_power_w, 4)
            << " W, model v" << wire_response.model_version << ", "
            << wire_client.retries() << " retries)\n";

  // -- hot-swap: retrain (different shape), publish, keep serving --------
  core::TrainerOptions retrain;
  retrain.clusters = 3;
  const std::uint64_t v2 =
      registry.publish(
          core::make_predictor(core::train(training, retrain).model));
  serve::SelectRequest after_swap = wire_request;
  after_swap.request_id = 1000;
  const auto swapped = server.select(after_swap);
  std::cout << "After hot-swap: served by model v" << swapped.model_version
            << " (published v" << v2 << ").\n";

  // -- rollback: operator decides v2 was a bad retrain -------------------
  registry.rollback();
  serve::SelectRequest after_rollback = wire_request;
  after_rollback.request_id = 1001;
  std::cout << "After rollback: served by model v"
            << server.select(after_rollback).model_version << ".\n\n";

  obs::print_registry(server.stats_registry().snapshot(), std::cout,
                      "server metrics");
  return 0;
}
