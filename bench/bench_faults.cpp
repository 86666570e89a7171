// Fault-subsystem overhead and dynamic-world throughput (DESIGN.md §12).
//
// Two promises are checked on the bench_kernel_hotpath packet workloads:
//
//  1. Idle cost: with the fault subsystem constructed (injector + schedule
//     engine, lifecycle exercised once) but NO fault active, the packet hot
//     path must cost under 3% versus a network without the subsystem — the
//     filter chain is pay-per-use.
//  2. Churn-world throughput (not gated, reported for trajectory): the same
//     workloads with a representative dynamic world active — crash/restart
//     churn on interior nodes, Gilbert–Elliott bursty loss, and packet
//     reordering at the source.
//
// Results go to BENCH_faults.json (curated format, bench/collect_bench.py).
// Unlike the other benches the JSON is written in --smoke mode too (gate is
// WARN-only there) so CI can archive the file from the smoke run.
//
// Flags:
//   --smoke     tiny iteration counts, WARN-only gate — CI smoke step
//   --reps N    repetitions per mode (default 9; gate = median of
//               per-repetition paired overheads on process CPU time)
//   --out PATH  override the JSON output path (default BENCH_faults.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace {

using excovery::net::Address;
using excovery::net::NodeId;
using excovery::net::Packet;
using excovery::sim::SimDuration;
namespace faults = excovery::faults;
using excovery::bench::cpu_seconds;
using excovery::bench::interleaved_times;
using excovery::bench::lossless_link;
using excovery::bench::median;
using excovery::bench::paired_overhead_percent;
using excovery::bench::today;

enum class Mode { kBare, kIdle, kChurnWorld };

struct FaultWorld {
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<faults::FaultScheduleEngine> engine;

  /// kIdle: construct the subsystem and run one schedule/stop cycle so the
  /// registration path is exercised, then leave the network fault-free.
  /// kChurnWorld: arm a representative dynamic world for the whole bench.
  void arm(Mode mode, excovery::net::Network& network,
           excovery::net::Port port, const std::vector<NodeId>& churn_nodes,
           NodeId ge_node, NodeId reorder_node) {
    if (mode == Mode::kBare) return;
    injector = std::make_unique<faults::FaultInjector>(network, port);
    engine = std::make_unique<faults::FaultScheduleEngine>(*injector);
    if (mode == Mode::kIdle) {
      excovery::Result<faults::FaultHandle> probe =
          injector->message_loss(0, 0.5, faults::FaultDirection::kBoth);
      if (!probe.ok()) std::abort();
      probe.value()->stop();
      return;
    }
    faults::TemporalSpec window;
    window.duration = SimDuration::from_seconds(100000.0);
    faults::ChurnSpec churn;
    churn.mean_uptime = SimDuration::from_millis(400);
    churn.mean_downtime = SimDuration::from_millis(100);
    for (NodeId node : churn_nodes) {
      faults::TemporalSpec seeded = window;
      seeded.randomseed = 17 + node;
      if (!engine->node_churn(node, churn, seeded).ok()) std::abort();
    }
    faults::GilbertElliott ge;
    ge.p_enter_bad = 0.05;
    ge.p_exit_bad = 0.3;
    ge.loss_bad = 1.0;
    if (!injector->ge_loss(ge_node, ge, faults::FaultDirection::kBoth, window)
             .ok()) {
      std::abort();
    }
    if (!injector
             ->message_reorder(reorder_node, 0.2,
                               SimDuration::from_millis(5), window)
             .ok()) {
      std::abort();
    }
  }
};

/// Multicast flood over an 8x8 grid — the dominant packet path of mesh
/// campaigns.  Stepped with run_until so churn processes never block the
/// drain.
double flood_grid(Mode mode, std::size_t side, int floods) {
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::grid(side, side, lossless_link()),
      /*seed=*/7);
  network.set_capture_enabled(false);
  FaultWorld world;
  world.arm(mode, network, excovery::net::kSdPort,
            {9, 27, 45}, /*ge_node=*/18, /*reorder_node=*/0);

  const Address group = Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, excovery::net::kSdPort,
                 [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto send_flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = excovery::net::kSdPort;
    packet.ttl = 32;
    packet.payload.assign(512, 0x6B);
    (void)network.send(0, std::move(packet));
  };
  auto step = [&] {
    scheduler.run_until(scheduler.now() + SimDuration::from_millis(50));
  };
  send_flood();  // warm-up
  step();
  network.reset_run_state();

  const double start = cpu_seconds();
  for (int i = 0; i < floods; ++i) {
    send_flood();
    step();
    network.reset_run_state();  // clear dedup sets between floods
  }
  const double stop = cpu_seconds();
  if (delivered == 0) std::abort();
  return stop - start;
}

/// Unicast hop chain: every packet crosses length-1 links.
double unicast_chain(Mode mode, std::size_t length, int batches) {
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::chain(length, lossless_link()),
      /*seed=*/7);
  network.set_capture_enabled(false);
  const excovery::net::Port port = 4000;
  FaultWorld world;
  // Churn the ends' neighbours, burst-loss a relay, reorder at the source.
  world.arm(mode, network, port,
            {static_cast<NodeId>(length - 2)}, /*ge_node=*/2,
            /*reorder_node=*/0);

  const NodeId last = static_cast<NodeId>(length - 1);
  std::uint64_t delivered = 0;
  network.bind(last, port, [&delivered](NodeId, const Packet&) {
    ++delivered;
  });
  auto send_one = [&] {
    Packet packet;
    packet.dst = network.topology().node(last).address;
    packet.dst_port = port;
    packet.payload.assign(256, 0x5A);
    (void)network.send(0, std::move(packet));
  };
  auto step = [&] {
    scheduler.run_until(scheduler.now() + SimDuration::from_millis(20));
  };
  send_one();  // warm-up
  step();

  const double start = cpu_seconds();
  for (int i = 0; i < batches; ++i) {
    for (int j = 0; j < 16; ++j) send_one();
    step();
  }
  const double stop = cpu_seconds();
  if (mode != Mode::kChurnWorld && delivered == 0) std::abort();
  return stop - start;
}

struct Workload {
  std::string name;
  double items_per_iteration = 0.0;  ///< for items/s reporting
  std::function<double(Mode)> run;   ///< CPU seconds for the fixed loop
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 9;
  std::string out = "BENCH_faults.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      reps = 3;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const int floods = smoke ? 100 : 600;
  const int batches = smoke ? 2000 : 20000;
  std::vector<Workload> workloads;
  workloads.push_back(
      {"flood_grid_8x8", static_cast<double>(floods) * 64,
       [floods](Mode mode) { return flood_grid(mode, 8, floods); }});
  workloads.push_back(
      {"unicast_chain_8", static_cast<double>(batches) * 16 * 7,
       [batches](Mode mode) { return unicast_chain(mode, 8, batches); }});

  std::printf("fault overhead bench: %d repetitions per mode%s\n", reps,
              smoke ? " (smoke)" : "");

  const Mode kModes[] = {Mode::kBare, Mode::kIdle, Mode::kChurnWorld};
  const double budget_percent = 3.0;
  bool over_budget = false;
  struct Line {
    std::string workload;
    double bare_s = 0.0, idle_s = 0.0, churn_s = 0.0;
    double idle_pct = 0.0;
    double items = 0.0;
  };
  std::vector<Line> lines;

  for (const Workload& workload : workloads) {
    const auto times = interleaved_times<3>(
        reps, [&](std::size_t m) { return workload.run(kModes[m]); });
    Line line;
    line.workload = workload.name;
    line.items = workload.items_per_iteration;
    line.bare_s = median(times[0]);
    line.idle_s = median(times[1]);
    line.churn_s = median(times[2]);
    line.idle_pct = paired_overhead_percent(times[0], times[1]);
    std::printf("  %-18s bare %8.2f Mitems/s   idle %+6.2f%% %s   "
                "churn-world %8.2f Mitems/s (not gated)\n",
                workload.name.c_str(), line.items / line.bare_s / 1e6,
                line.idle_pct,
                line.idle_pct <= budget_percent ? "PASS" : "OVER-BUDGET",
                line.items / line.churn_s / 1e6);
    if (line.idle_pct > budget_percent) over_budget = true;
    lines.push_back(std::move(line));
  }

  if (over_budget) {
    if (smoke) {
      std::fprintf(stderr,
                   "WARN: idle fault-subsystem overhead exceeds %.1f%% "
                   "(not gated in smoke mode)\n",
                   budget_percent);
    } else {
      std::fprintf(stderr, "FAIL: idle fault-subsystem overhead exceeds "
                           "%.1f%%\n",
                   budget_percent);
      return 1;
    }
  }

  std::string json;
  json += "{\n";
  json +=
      " \"description\": \"Fault-subsystem overhead "
      "(bench/bench_faults.cpp, DESIGN.md \\u00a712), on the "
      "bench_kernel_hotpath packet workloads. 'seed' = the workload with no "
      "fault subsystem constructed; 'current' = injector + schedule engine "
      "constructed and one fault scheduled/stopped, leaving the network "
      "fault-free (the pay-per-use promise: idle filter chain under 3%, "
      "gated outside --smoke). churn_items_per_second additionally arms a "
      "representative dynamic world — crash/restart churn on interior "
      "nodes, Gilbert-Elliott bursty loss, source-side reordering — and is "
      "reported for trajectory, not gated. Times are process CPU time; "
      "rates are per-mode medians over interleaved repetitions and "
      "overhead_percent is the median of per-repetition paired "
      "overheads.\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  bool first = true;
  for (const Line& line : lines) {
    if (!first) json += ",\n";
    first = false;
    json += excovery::strings::format(
        "  \"BM_FaultOverhead/%s\": {\n"
        "   \"seed\": {\"items_per_second\": %.0f, \"cpu_time_ns\": %.3f},\n"
        "   \"current\": {\"items_per_second\": %.0f, \"cpu_time_ns\": "
        "%.3f},\n"
        "   \"overhead_percent\": %.3f,\n"
        "   \"churn_items_per_second\": %.0f\n"
        "  }",
        line.workload.c_str(), line.items / line.bare_s,
        line.bare_s / line.items * 1e9, line.items / line.idle_s,
        line.idle_s / line.items * 1e9, line.idle_pct,
        line.items / line.churn_s);
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
