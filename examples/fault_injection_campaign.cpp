// Fault injection campaign: demonstrates the full §IV-D manipulation
// vocabulary in one experiment — a timed interface fault on the SM
// (duration/rate/randomseed temporal model), path loss between SU and SM,
// and background traffic from the environment nodes — and shows how the
// injected faults shape the recorded event timeline.
//
//   $ ./fault_injection_campaign
#include <cstdio>

#include "common/strings.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "stats/analysis.hpp"

using namespace excovery;
using core::ParamValue;
using core::ProcessAction;

namespace {

ProcessAction action(std::string name,
                     std::vector<std::pair<std::string, ParamValue>> params = {}) {
  ProcessAction out;
  out.name = std::move(name);
  out.params = std::move(params);
  return out;
}

ParamValue lit(const std::string& text) {
  return ParamValue::lit(Value{text});
}

}  // namespace

int main() {
  core::scenario::TwoPartyOptions options;
  options.sm_count = 1;
  options.su_count = 1;
  options.environment_count = 4;
  options.replications = 10;
  options.deadline_s = 12.0;
  options.pairs_levels = {3};    // Fig. 7 environment traffic
  options.bw_levels = {100};

  Result<core::ExperimentDescription> built =
      core::scenario::two_party_sd(options);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.error().to_string().c_str());
    return 1;
  }
  core::ExperimentDescription description = std::move(built).value();

  // Manipulation process on the SM (§IV-D3): a windowed interface fault —
  // within a 2 s window the interface is dead for half the time, in one
  // continuous block placed by the replication-seeded PRNG.  (Runs end as
  // soon as discovery completes, so a short window keeps the fault inside
  // most runs.)
  {
    core::ManipulationProcess manipulation;
    manipulation.node_id = "SM0";
    manipulation.actions.push_back(action(
        "fault_interface_start",
        {{"direction", lit("both")},
         {"duration", lit("2")},
         {"rate", lit("0.5")},
         {"randomseed", ParamValue::factor("fact_replication_id")}}));
    manipulation.actions.push_back(action(
        "wait_for_event", {{"event_dependency", lit("done")}}));
    // The windowed fault auto-stops; stopping an already-finished fault is
    // handled by run clean-up, so no explicit stop action here.
    description.manipulation_processes.push_back(std::move(manipulation));
  }
  // Path loss on the SU against the SM specifically (§IV-D1 path fault).
  {
    core::ManipulationProcess manipulation;
    manipulation.node_id = "SU0";
    manipulation.actions.push_back(
        action("fault_path_loss_start", {{"peer", lit("SM0")},
                                         {"probability", lit("0.3")},
                                         {"direction", lit("both")}}));
    manipulation.actions.push_back(
        action("wait_for_event", {{"event_dependency", lit("done")}}));
    manipulation.actions.push_back(action("fault_path_loss_stop"));
    description.manipulation_processes.push_back(std::move(manipulation));
  }
  Status valid = description.validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "description invalid: %s\n",
                 valid.error().to_string().c_str());
    return 1;
  }

  Result<net::Topology> topology =
      core::scenario::topology_for(description, {});
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = 99;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description, std::move(config));
  if (!platform.ok()) {
    std::fprintf(stderr, "%s\n", platform.error().to_string().c_str());
    return 1;
  }
  core::ExperiMaster master(description, *platform.value());
  std::printf("executing %zu runs with interface fault + path loss + "
              "background traffic...\n",
              master.plan().run_count());
  Result<storage::ExperimentPackage> package = master.execute();
  if (!package.ok()) {
    std::fprintf(stderr, "%s\n", package.error().to_string().c_str());
    return 1;
  }

  // Per-run fault windows and discovery outcomes.
  std::printf("\n%-5s %-22s %-22s %-12s\n", "run", "interface fault window",
              "discovery latency", "timed out");
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package.value());
  for (std::int64_t run_id : package.value().run_ids()) {
    Result<std::vector<storage::EventRow>> events =
        package.value().events(run_id);
    if (!events.ok()) continue;
    double fault_start = -1;
    double fault_stop = -1;
    double run_start = 0;
    for (const storage::EventRow& event : events.value()) {
      if (event.event_type == "run_init" && run_start == 0) {
        run_start = event.common_time;
      }
      if (event.event_type == "fault_interface_start") {
        fault_start = event.common_time - run_start;
      }
      if (event.event_type == "fault_interface_stop") {
        fault_stop = event.common_time - run_start;
      }
    }
    double latency = -1;
    bool timed_out = false;
    if (discoveries.ok()) {
      for (const stats::RunDiscovery& run : discoveries.value()) {
        if (run.run_id != run_id) continue;
        timed_out = run.timed_out;
        for (const auto& [provider, value] : run.latencies) {
          latency = value;
        }
      }
    }
    std::printf("%-5lld [%6.2fs .. %6.2fs]     %-22s %s\n",
                static_cast<long long>(run_id), fault_start, fault_stop,
                latency >= 0 ? excovery::strings::format("%.3fs", latency).c_str()
                             : "-",
                timed_out ? "yes" : "no");
  }

  if (discoveries.ok()) {
    const stats::Proportion responsiveness =
        stats::responsiveness(discoveries.value(), options.deadline_s, 1);
    std::printf(
        "\nresponsiveness under faults (deadline %.0fs): %.2f "
        "[%.2f..%.2f]\n",
        options.deadline_s, responsiveness.estimate, responsiveness.lower,
        responsiveness.upper);
  }
  return 0;
}
