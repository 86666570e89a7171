// Observability overhead gate (DESIGN.md §11).
//
// Two promises are checked, on the same workloads bench_kernel_hotpath
// tracks:
//
//  1. Kernel throughput: the runtime-toggleable instrumentation the obs
//     layer adds to kernel hot paths — per-link packet counting
//     (Network::enable_link_stats) and the per-attempt kernel-counter
//     sampling into a MetricsShard — must cost under 3% of flood/unicast/
//     scheduler-churn throughput.  Per-packet lifecycle tracing is measured
//     too but not gated: it is explicitly opt-in (--packet-trace) because
//     one async pair per packet is never free.
//  2. Out-of-band-ness: a full experiment executed with an ObsContext
//     attached (metrics + trace + packet lifecycles) produces a
//     byte-identical conditioned package and is reported for context.
//
// Results go to BENCH_obs.json (curated format, bench/collect_bench.py).
//
// Flags:
//   --smoke     tiny iteration counts, no JSON, WARN-only gate — CI gate
//   --reps N    repetitions per mode (default 9; gate = median of
//               per-repetition paired overheads on process CPU time)
//   --out PATH  override the JSON output path (default BENCH_obs.json)
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace {

using excovery::Bytes;
using excovery::Result;
using excovery::net::Address;
using excovery::net::NodeId;
using excovery::net::Packet;
using excovery::sim::SimDuration;
using namespace excovery::core;
using scenario::TwoPartyOptions;
using excovery::bench::cpu_seconds;
using excovery::bench::interleaved_times;
using excovery::bench::lossless_link;
using excovery::bench::median;
using excovery::bench::paired_overhead_percent;
using excovery::bench::today;

enum class Mode { kOff, kMetrics, kTrace };

/// Install the obs-layer packet hook shape on a bench network: lifecycle
/// events rendered into a live TraceBuffer, like RunExecutor::on_packet_trace.
void install_packet_hook(excovery::net::Network& network,
                         excovery::obs::TraceBuffer& trace,
                         excovery::sim::Scheduler& scheduler) {
  namespace obs = excovery::obs;
  namespace net = excovery::net;
  network.set_packet_trace_hook(
      [&trace, &scheduler](const net::PacketTraceEvent& event) {
        const std::int64_t ts = scheduler.now().nanos();
        std::string pkt = excovery::strings::format(
            "pkt %llu", static_cast<unsigned long long>(event.uid));
        switch (event.kind) {
          case net::PacketTraceEvent::Kind::kSend:
            trace.async_begin(obs::Track::kSim, event.uid, std::move(pkt),
                              "packet", ts);
            break;
          case net::PacketTraceEvent::Kind::kDeliver:
          case net::PacketTraceEvent::Kind::kDrop:
            trace.async_end(obs::Track::kSim, event.uid, std::move(pkt),
                            "packet", ts);
            break;
          default:
            trace.instant(obs::Track::kSim, 0, std::move(pkt), "packet", ts);
            break;
        }
      });
}

/// Multicast flood over an n x n grid — the dominant packet path of mesh
/// campaigns.  kMetrics adds per-link counting; kTrace adds the packet hook.
double flood_grid(Mode mode, std::size_t side, int floods) {
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::grid(side, side, lossless_link()),
      /*seed=*/7);
  network.set_capture_enabled(false);
  excovery::obs::TraceBuffer trace(true);
  if (mode != Mode::kOff) network.enable_link_stats();
  if (mode == Mode::kTrace) install_packet_hook(network, trace, scheduler);

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
  send_flood();  // warm-up
  scheduler.run();
  network.reset_run_state();

  const double start = cpu_seconds();
  for (int i = 0; i < floods; ++i) {
    send_flood();
    scheduler.run();
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
  excovery::obs::TraceBuffer trace(true);
  if (mode != Mode::kOff) network.enable_link_stats();
  if (mode == Mode::kTrace) install_packet_hook(network, trace, scheduler);

  const NodeId last = static_cast<NodeId>(length - 1);
  std::uint64_t delivered = 0;
  network.bind(last, 4000,
               [&delivered](NodeId, const Packet&) { ++delivered; });
  auto send_one = [&] {
    Packet packet;
    // Node addresses are for_node(id + 1) — .0 is reserved — so resolve the
    // destination through the topology rather than hand-computing it.
    packet.dst = network.topology().node(last).address;
    packet.dst_port = 4000;
    packet.payload.assign(256, 0x5A);
    (void)network.send(0, std::move(packet));
  };
  send_one();  // warm-up
  scheduler.run();

  const double start = cpu_seconds();
  for (int i = 0; i < batches; ++i) {
    for (int j = 0; j < 16; ++j) send_one();
    scheduler.run();
  }
  const double stop = cpu_seconds();
  if (delivered == 0) std::abort();
  return stop - start;
}

/// Scheduler schedule/run churn with the per-attempt sampling the obs layer
/// performs: counter reads + shard adds once per batch (one batch stands in
/// for one run attempt).
double scheduler_churn(Mode mode, std::size_t batch, int iterations) {
  excovery::sim::Scheduler scheduler;
  excovery::obs::MetricsRegistry registry;
  excovery::obs::MetricsShard shard(&registry);
  const excovery::obs::MetricId executed_id =
      registry.counter("sched.events_executed");
  const excovery::obs::MetricId pending_id = registry.gauge("sched.pending");

  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < batch; ++i) {  // warm internal pools
    scheduler.schedule(SimDuration(static_cast<std::int64_t>(i)),
                       [&sink, i] { sink += i; });
  }
  scheduler.run();

  const double start = cpu_seconds();
  std::uint64_t last_executed = scheduler.executed();
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < batch; ++i) {
      scheduler.schedule(SimDuration(static_cast<std::int64_t>(i % 64)),
                         [&sink, i] { sink += i; });
    }
    scheduler.run();
    if (mode != Mode::kOff) {
      const std::uint64_t executed = scheduler.executed();
      shard.add(executed_id, executed - last_executed);
      last_executed = executed;
      shard.set_gauge(pending_id,
                      static_cast<std::int64_t>(scheduler.max_pending()));
    }
  }
  const double stop = cpu_seconds();
  if (sink == 0) std::abort();
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
  std::string out = "BENCH_obs.json";
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
  const int churns = smoke ? 500 : 4000;
  std::vector<Workload> workloads;
  workloads.push_back(
      {"flood_grid_8x8", static_cast<double>(floods) * 64,
       [floods](Mode mode) { return flood_grid(mode, 8, floods); }});
  workloads.push_back(
      {"unicast_chain_8", static_cast<double>(batches) * 16 * 7,
       [batches](Mode mode) { return unicast_chain(mode, 8, batches); }});
  workloads.push_back(
      {"sched_churn_1024", static_cast<double>(churns) * 1024,
       [churns](Mode mode) { return scheduler_churn(mode, 1024, churns); }});

  std::printf("obs overhead bench: %d repetitions per mode%s\n", reps,
              smoke ? " (smoke)" : "");

  const Mode kModes[] = {Mode::kOff, Mode::kMetrics, Mode::kTrace};
  const double budget_percent = 3.0;
  bool over_budget = false;
  struct Line {
    std::string workload;
    double off_s = 0.0, metrics_s = 0.0, trace_s = 0.0;
    double metrics_pct = 0.0, trace_pct = 0.0;
    double items = 0.0;
  };
  std::vector<Line> lines;

  for (const Workload& workload : workloads) {
    const auto times = interleaved_times<3>(
        reps, [&](std::size_t m) { return workload.run(kModes[m]); });
    Line line;
    line.workload = workload.name;
    line.items = workload.items_per_iteration;
    line.off_s = median(times[0]);
    line.metrics_s = median(times[1]);
    line.trace_s = median(times[2]);
    line.metrics_pct = paired_overhead_percent(times[0], times[1]);
    line.trace_pct = paired_overhead_percent(times[0], times[2]);
    std::printf("  %-18s off %8.2f Mitems/s   metrics %+6.2f%% %s   "
                "trace %+7.2f%% (not gated)\n",
                workload.name.c_str(), line.items / line.off_s / 1e6,
                line.metrics_pct,
                line.metrics_pct <= budget_percent ? "PASS" : "OVER-BUDGET",
                line.trace_pct);
    if (line.metrics_pct > budget_percent) over_budget = true;
    lines.push_back(std::move(line));
  }

  // Out-of-band check on a real experiment: attaching the full obs stack
  // (metrics + spans + packet lifecycles) must not change the package.
  TwoPartyOptions options;
  options.replications = smoke ? 6 : 40;
  options.environment_count = 1;
  excovery::obs::ObsConfig obs_config;
  obs_config.trace = true;
  obs_config.packet_trace = true;
  obs_config.progress_interval_s = 1e9;
  excovery::obs::ObsContext obs(obs_config);
  MasterOptions with_obs;
  with_obs.obs = &obs;
  Result<excovery::bench::Executed> plain =
      excovery::bench::execute(options, 42);
  Result<excovery::bench::Executed> observed =
      excovery::bench::execute(options, 42, {}, std::move(with_obs));
  if (!plain.ok() || !observed.ok()) {
    std::fprintf(stderr, "experiment execution failed\n");
    return 1;
  }
  if (plain.value().package.database().serialize() !=
      observed.value().package.database().serialize()) {
    std::fprintf(stderr, "FAIL: obs attachment changed the package bytes\n");
    return 1;
  }
  std::printf("  package bit-identical with full obs attached "
              "(%zu trace events, %zu ledger entries)\n",
              obs.trace().size(), obs.ledger().size());

  if (over_budget && !smoke) {
    std::fprintf(stderr, "FAIL: metrics-mode kernel overhead exceeds %.1f%%\n",
                 budget_percent);
    return 1;
  }
  if (smoke) return 0;

  std::string json;
  json += "{\n";
  json +=
      " \"description\": \"Observability kernel overhead "
      "(bench/bench_obs_overhead.cpp, DESIGN.md \\u00a711), on the "
      "bench_kernel_hotpath workloads. 'seed' = the workload with no obs "
      "instrumentation active (link stats off, no packet hook, no shard "
      "sampling — the pre-obs behaviour); 'current' = the same workload "
      "with metrics-grade instrumentation enabled (per-link packet "
      "counters plus per-batch kernel-counter sampling into a "
      "MetricsShard). overhead_percent is the gated value (budget 3%); "
      "trace_overhead_percent additionally installs the per-packet "
      "lifecycle hook emitting into a live TraceBuffer, which is opt-in "
      "and not gated. Times are process CPU time; rates are per-mode "
      "medians over interleaved repetitions, and both overheads are the "
      "median of per-repetition paired overheads. The bench also "
      "verifies a full experiment package is bit-identical with the "
      "complete obs stack attached.\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  bool first = true;
  for (const Line& line : lines) {
    if (!first) json += ",\n";
    first = false;
    json += excovery::strings::format(
        "  \"BM_ObsOverhead/%s\": {\n"
        "   \"seed\": {\"items_per_second\": %.0f, \"cpu_time_ns\": %.3f},\n"
        "   \"current\": {\"items_per_second\": %.0f, \"cpu_time_ns\": "
        "%.3f},\n"
        "   \"overhead_percent\": %.3f,\n"
        "   \"trace_overhead_percent\": %.3f\n"
        "  }",
        line.workload.c_str(), line.items / line.off_s,
        line.off_s / line.items * 1e9, line.items / line.metrics_s,
        line.metrics_s / line.items * 1e9, line.metrics_pct, line.trace_pct);
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
