// Intra-experiment run parallelism trajectory (DESIGN.md §10).
//
// Executes one ≥100-run two-party SD experiment at run_workers = 1 (the
// sequential pre-parallelism behaviour, recorded as the 'seed'), 4 and 0
// (hardware concurrency), verifies the conditioned packages are
// bit-identical across all worker counts, and writes the curated
// BENCH_runs.json trajectory consumed by bench/collect_bench.py.
//
// Flags:
//   --smoke     small plan (12 runs), no JSON written — CI correctness gate
//   --runs N    override the plan size
//   --out PATH  override the JSON output path (default BENCH_runs.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"

namespace {

using excovery::Bytes;
using excovery::Result;
using namespace excovery::core;
using scenario::TwoPartyOptions;
using excovery::bench::today;

struct Measurement {
  std::string label;
  std::size_t run_workers = 1;
  double seconds = 0.0;
  double runs_per_second = 0.0;
  Bytes package_bytes;
};

Result<Measurement> measure(const TwoPartyOptions& options,
                            std::size_t run_workers, std::string label) {
  MasterOptions master_options;
  master_options.run_workers = run_workers;
  EXC_ASSIGN_OR_RETURN(ExperimentDescription description,
                       scenario::two_party_sd(options));
  auto start = std::chrono::steady_clock::now();
  EXC_ASSIGN_OR_RETURN(
      excovery::bench::Executed executed,
      excovery::bench::execute_description(std::move(description), 42, {},
                                           std::move(master_options)));
  auto stop = std::chrono::steady_clock::now();
  Measurement m;
  m.label = std::move(label);
  m.run_workers = run_workers;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.runs_per_second =
      static_cast<double>(options.replications) / m.seconds;
  m.package_bytes = executed.package.database().serialize();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int runs = 100;
  std::string out = "BENCH_runs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      runs = 12;
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--runs N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  TwoPartyOptions options;
  options.replications = runs;
  options.environment_count = 1;

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("run-parallel bench: %d runs, hardware_concurrency=%u%s\n",
              runs, hardware, smoke ? " (smoke)" : "");

  std::vector<Measurement> measurements;
  for (auto [workers, label] :
       {std::pair<std::size_t, const char*>{1, "workers=1"},
        {4, "workers=4"},
        {0, "workers=hw"}}) {
    Result<Measurement> m = measure(options, workers, label);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label,
                   m.error().to_string().c_str());
      return 1;
    }
    std::printf("  %-12s %8.3f s  %8.1f runs/s\n", m.value().label.c_str(),
                m.value().seconds, m.value().runs_per_second);
    measurements.push_back(std::move(m).value());
  }

  for (std::size_t i = 1; i < measurements.size(); ++i) {
    if (measurements[i].package_bytes != measurements[0].package_bytes) {
      std::fprintf(stderr,
                   "FAIL: package at %s differs from sequential bytes\n",
                   measurements[i].label.c_str());
      return 1;
    }
  }
  std::printf("  packages bit-identical across worker counts\n");

  if (smoke) return 0;

  const Measurement& seed = measurements[0];
  std::string json;
  json += "{\n";
  json +=
      " \"description\": \"Intra-experiment run parallelism "
      "(bench/bench_run_parallel.cpp, DESIGN.md \\u00a710). 'seed' = "
      "sequential execution (run_workers=1), the only mode before the "
      "run-parallel executor existed; 'current' = sharded execution on "
      "platform replicas at the named worker count, same binary, same "
      "machine. The bench verifies the conditioned package is bit-identical "
      "at every worker count before reporting. NOTE: this bench host "
      "exposes a single CPU, so worker threads time-share one core and the "
      "speedup shows the sharding overhead floor, not the multi-core gain; "
      "on a real multi-core host the run shards execute concurrently.\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  bool first = true;
  for (std::size_t i = 1; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    if (!first) json += ",\n";
    first = false;
    json += excovery::strings::format(
        "  \"BM_ExperimentRuns/%s\": {\n"
        "   \"seed\": {\"items_per_second\": %.2f, \"cpu_time_ns\": %.0f},\n"
        "   \"current\": {\"items_per_second\": %.2f, \"cpu_time_ns\": "
        "%.0f},\n"
        "   \"speedup_items_per_second\": %.3f\n"
        "  }",
        m.label.c_str(), seed.runs_per_second,
        seed.seconds / runs * 1e9, m.runs_per_second,
        m.seconds / runs * 1e9, m.runs_per_second / seed.runs_per_second);
  }
  json += "\n }\n}\n";

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
