// Shared helpers for the reproduction benches: build a scenario, run it on
// a fresh simulated platform, return the conditioned package; plus the
// small statistics/date/link helpers the overhead benches share.
#pragma once

#include <algorithm>
#include <array>
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

/// Upper-middle median over repetitions, for reported per-mode times.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Process CPU time (user + system, all threads) in seconds.  Unlike the
/// wall clock it does not charge a bench for time the VM spent preempted,
/// the dominant noise at the 3% resolution of the overhead gates.
inline double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Times run(m) for the N modes m = 0 .. N-1 back to back in every
/// repetition, rotating which mode goes first (repetition r starts at mode
/// r % N) so that none always inherits the cache and frequency state of a
/// fixed predecessor (with a repetition count divisible by N every mode
/// takes every position equally often).  times[m][rep] pairs with
/// times[0][rep] for paired_overhead_percent / paired_speedup.
template <std::size_t N, typename Run>
std::array<std::vector<double>, N> interleaved_times(int reps, Run&& run) {
  std::array<std::vector<double>, N> times;
  for (int rep = 0; rep < reps; ++rep) {
    std::array<double, N> rep_times{};
    for (std::size_t k = 0; k < N; ++k) {
      const std::size_t m = (static_cast<std::size_t>(rep) + k) % N;
      rep_times[m] = run(m);
    }
    for (std::size_t m = 0; m < N; ++m) times[m].push_back(rep_times[m]);
  }
  return times;
}

/// Median over repetitions of fn(base[i], mode[i]), where base[i] and
/// mode[i] ran back to back in repetition i.  Pairing cancels the drift
/// between repetitions that a ratio of per-mode medians (taken in different
/// repetitions) keeps.
template <typename Fn>
double paired_median(const std::vector<double>& base,
                     const std::vector<double>& mode, Fn&& fn) {
  std::vector<double> values;
  for (std::size_t i = 0; i < base.size() && i < mode.size(); ++i) {
    values.push_back(fn(base[i], mode[i]));
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The overhead gates' statistic: the paired median of (mode - base) / base
/// in percent.
inline double paired_overhead_percent(const std::vector<double>& base,
                                      const std::vector<double>& mode) {
  return paired_median(base, mode, [](double b, double m) {
    return (m - b) / b * 100.0;
  });
}

/// The speed-up gates' statistic: the paired median of base / mode.
inline double paired_speedup(const std::vector<double>& base,
                             const std::vector<double>& mode) {
  return paired_median(base, mode, [](double b, double m) { return b / m; });
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
