// Fig. 2 — "Illustration of service discovery architectures: two-party
// (left) and three-party (right)".
//
// Regenerated from running code: the same discovery workload executed on
// the two-party (mdns) and three-party (slp + SCM) protocol suites; the
// bench prints each architecture's roles and the message classes actually
// observed on the wire, plus the load they put on the network.
#include <map>

#include "bench_common.hpp"
#include "sd/message.hpp"

using namespace excovery;

namespace {

void run_architecture(const char* label, const char* protocol,
                      int scm_count) {
  core::scenario::TwoPartyOptions options;
  options.protocol = protocol;
  options.architecture = label;
  options.scm_count = scm_count;
  options.sm_count = 2;
  options.su_count = 1;
  options.environment_count = 1;
  options.replications = 5;
  options.deadline_s = 15.0;

  bench::Executed executed =
      bench::must(bench::execute(options), label);

  // Roles present.
  std::printf("\n--- %s (%s) ---\n", label, protocol);
  std::printf("roles: %d SM, %d SU%s\n", options.sm_count, options.su_count,
              scm_count > 0 ? ", 1 SCM" : "");

  // Message classes observed in the packet record.
  std::map<std::string, std::size_t> kinds;
  std::size_t total_packets = 0;
  double total_bytes = 0;
  for (std::int64_t run_id : executed.package.run_ids()) {
    std::vector<storage::PacketRow> packets =
        bench::must(executed.package.packets(run_id), "packets");
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      if (image.value().direction != net::Direction::kTransmit) continue;
      ++total_packets;
      total_bytes += static_cast<double>(image.value().packet.wire_size());
      Result<sd::SdMessage> message =
          sd::decode(image.value().packet.payload);
      if (message.ok()) {
        kinds[std::string(sd::to_string(message.value().kind))]++;
      }
    }
  }
  std::printf("SD messages transmitted (5 runs):\n");
  for (const auto& [kind, count] : kinds) {
    std::printf("  %-16s %zu\n", kind.c_str(), count);
  }
  std::printf("total transmissions: %zu (%.1f KiB)\n", total_packets,
              total_bytes / 1024.0);

  const std::vector<stats::RunDiscovery> discoveries = bench::must(
      stats::discoveries(executed.package), "discoveries");
  const stats::Proportion responsiveness =
      stats::responsiveness(discoveries, 15.0, 2);
  std::printf("both SMs discovered within 15s: %.2f\n",
              responsiveness.estimate);
}

}  // namespace

int main() {
  bench::banner("bench_fig02_architectures",
                "Fig. 2: two-party vs three-party SD architectures");
  run_architecture("two-party", "mdns", 0);
  run_architecture("three-party", "slp", 1);
  std::printf(
      "\nshape check: two-party traffic is multicast query/response/"
      "announce;\nthree-party adds scm adverts + registrations and serves "
      "lookups with\nunicast directed query/reply.\n");
  return 0;
}
