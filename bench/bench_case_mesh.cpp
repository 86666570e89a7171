// Case study [26] — "Modeling responsiveness of decentralized service
// discovery in wireless mesh networks" (Dittrich et al., MMB&DFT 2014).
//
// Regenerated shapes on the simulated mesh:
//   (a) responsiveness vs hop distance between SU and SM (chain topology
//       with lossy links) — decreases with distance;
//   (b) responsiveness vs number of providers that must ALL be found —
//       decreases with n (product-like composition of per-SM success);
//   (c) responsiveness vs background load (Fig. 5/7 traffic generator on a
//       shared mesh) — decreases as offered load grows.
#include "bench_common.hpp"

using namespace excovery;

namespace {

/// One discovery scan per executed cell; every figure of the cell is read
/// from it.
std::vector<stats::RunDiscovery> discoveries_of(
    const bench::Executed& executed) {
  return bench::must(stats::discoveries(executed.package), "discoveries");
}

}  // namespace

int main(int argc, char** argv) {
  int replications = argc > 1 ? std::atoi(argv[1]) : 25;
  bench::banner("bench_case_mesh",
                "case study [26]: responsiveness of decentralised SD in "
                "wireless mesh networks");

  // (a) hop distance sweep on a lossy chain.
  std::printf("\n(a) responsiveness vs hop distance (per-hop loss 15%%, "
              "deadline 3 s, %d reps):\n", replications);
  std::printf("    %-6s %-16s %s\n", "hops", "responsiveness",
              "mean t_R");
  for (int spacing : {1, 2, 3, 4}) {
    core::scenario::TwoPartyOptions options;
    options.replications = replications;
    options.environment_count = 0;
    options.deadline_s = 3.0;
    core::scenario::TopologyOptions topology;
    topology.kind = core::scenario::TopologyKind::kChain;
    topology.chain_spacing = spacing;
    topology.link.loss = 0.15;
    bench::Executed executed = bench::must(
        bench::execute(options, 42, topology), "chain experiment");
    const std::vector<stats::RunDiscovery> discoveries =
        discoveries_of(executed);
    std::printf("    %-6d %-16.2f %.3fs\n", spacing,
                stats::responsiveness(discoveries, 3.0, 1).estimate,
                stats::mean(stats::first_latencies(discoveries)));
  }

  // (b) number of providers that must all be discovered.  This cell sweep
  // needs more replications than the others: the quantity is a product of
  // per-SM successes, so its variance is the largest.
  std::printf("\n(b) responsiveness vs #SMs that must ALL be found "
              "(loss 0.3 at the SU, deadline 3 s, %dx reps):\n",
              3 * replications);
  std::printf("    %-6s %s\n", "#SMs", "responsiveness(all found)");
  for (int sms : {1, 2, 3, 4}) {
    core::scenario::TwoPartyOptions options;
    options.sm_count = sms;
    options.replications = 3 * replications;
    options.environment_count = 0;
    options.deadline_s = 3.0;
    options.loss_levels = {0.3};
    bench::Executed executed =
        bench::must(bench::execute(options), "provider experiment");
    std::printf("    %-6d %.2f\n", sms,
                stats::responsiveness(discoveries_of(executed), 3.0,
                                      static_cast<std::size_t>(sms))
                    .estimate);
  }

  // (c) background load on a shared grid mesh.
  std::printf("\n(c) responsiveness vs background load (grid mesh, 6 env "
              "nodes, deadline 2 s):\n");
  std::printf("    %-10s %-16s %s\n", "load kbps", "responsiveness",
              "mean t_R");
  for (std::int64_t bw : {0, 200, 800, 2000}) {
    core::scenario::TwoPartyOptions options;
    options.replications = replications;
    options.environment_count = 6;
    options.deadline_s = 2.0;
    if (bw > 0) {
      options.pairs_levels = {3};
      options.bw_levels = {bw};
    }
    core::scenario::TopologyOptions topology;
    topology.kind = core::scenario::TopologyKind::kGrid;
    topology.link.bandwidth_bps = 1e6;  // narrow links: load matters
    topology.link.loss = 0.05;
    bench::Executed executed = bench::must(
        bench::execute(options, 42, topology), "load experiment");
    const std::vector<stats::RunDiscovery> discoveries =
        discoveries_of(executed);
    std::printf("    %-10lld %-16.2f %.3fs\n", static_cast<long long>(bw),
                stats::responsiveness(discoveries, 2.0, 1).estimate,
                stats::mean(stats::first_latencies(discoveries)));
  }

  std::printf(
      "\nshape check vs [26]: responsiveness falls with hop distance, with\n"
      "the number of providers required, and with background load.\n");
  return 0;
}
