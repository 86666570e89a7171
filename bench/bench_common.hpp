// Shared helpers for the reproduction benches: build a scenario, run it on
// a fresh simulated platform, return the conditioned package; plus the
// small statistics/date/link helpers the overhead benches share.
#pragma once

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/master.hpp"
#include "core/scenario.hpp"
#include "net/topology.hpp"
#include "stats/analysis.hpp"

namespace excovery::bench {

struct Executed {
  core::ExperimentDescription description;
  std::unique_ptr<core::SimPlatform> platform;
  storage::ExperimentPackage package;
};

inline Result<Executed> execute_description(
    core::ExperimentDescription description, std::uint64_t platform_seed = 42,
    const core::scenario::TopologyOptions& topology_options = {},
    core::MasterOptions master_options = {}) {
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description,
                                                    topology_options));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = platform_seed;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<core::SimPlatform> platform,
      core::SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform,
                            std::move(master_options));
  EXC_ASSIGN_OR_RETURN(storage::ExperimentPackage package, master.execute());
  return Executed{std::move(description), std::move(platform),
                  std::move(package)};
}

inline Result<Executed> execute(
    const core::scenario::TwoPartyOptions& options,
    std::uint64_t platform_seed = 42,
    const core::scenario::TopologyOptions& topology_options = {},
    core::MasterOptions master_options = {}) {
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  return execute_description(std::move(description), platform_seed,
                             topology_options, std::move(master_options));
}

/// Abort the bench with a readable message on error.
template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Upper-middle median over repetitions: the statistic the overhead
/// benches gate on (bench_provenance keeps its own averaging median).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Local date as YYYY-MM-DD, the `date` field of the curated BENCH_*.json.
inline std::string today() {
  std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%d", std::localtime(&now));
  return buffer;
}

/// Ideal link with loss and jitter off: the packet hot-path workloads.
inline net::LinkModel lossless_link() {
  net::LinkModel model = net::LinkModel::ideal();
  model.loss = 0.0;
  model.jitter_frac = 0.0;
  return model;
}

inline void banner(const char* artifact, const char* paper_content) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", artifact);
  std::printf("paper artifact: %s\n", paper_content);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace excovery::bench
