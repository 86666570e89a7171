// Three-party vs hybrid under SCM failure.
//
//   $ ./three_party_scm
//
// Runs the same discovery scenario twice: once with the pure three-party
// (SLP-style, directory-only) protocol and once with the hybrid protocol —
// while a manipulation process knocks out the SCM's network interface for
// most of the run.  The pure three-party architecture loses discovery with
// its directory; the hybrid one falls back to two-party mDNS operation and
// keeps finding the service (the availability argument for adaptive
// architectures, §III-B).
#include <cstdio>

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

Result<stats::Proportion> run_architecture(const std::string& protocol,
                                           bool scm_fault) {
  core::scenario::TwoPartyOptions options;
  options.protocol = protocol;
  options.architecture =
      protocol == "slp" ? "three-party" : "hybrid";
  options.scm_count = 1;
  options.sm_count = 1;
  options.su_count = 1;
  options.environment_count = 1;
  options.replications = 8;
  options.deadline_s = 15.0;
  // The SU only starts discovering at t = 3 s — after the SM has registered
  // and (in the faulty variants) after the SCM has been killed.
  options.su_start_delay_s = 3.0;
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));

  if (scm_fault) {
    // Kill the SCM's interfaces 1 s into the run, for good.
    core::ManipulationProcess manipulation;
    manipulation.node_id = "SCM0";
    manipulation.actions.push_back(
        action("wait_for_time", {{"time", lit("1")}}));
    manipulation.actions.push_back(action(
        "fault_interface_start", {{"direction", lit("both")}}));
    manipulation.actions.push_back(
        action("wait_for_event", {{"event_dependency", lit("done")}}));
    manipulation.actions.push_back(action("fault_interface_stop"));
    description.manipulation_processes.push_back(std::move(manipulation));
    EXC_TRY(description.validate());
  }

  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = 4242;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<core::SimPlatform> platform,
      core::SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform);
  EXC_ASSIGN_OR_RETURN(storage::ExperimentPackage package, master.execute());
  EXC_ASSIGN_OR_RETURN(std::vector<stats::RunDiscovery> discoveries,
                       stats::discoveries(package));
  return stats::responsiveness(discoveries, options.deadline_s, 1);
}

void report(const char* label, const Result<stats::Proportion>& outcome) {
  if (!outcome.ok()) {
    std::printf("%-38s ERROR: %s\n", label,
                outcome.error().to_string().c_str());
    return;
  }
  std::printf("%-38s %.2f  [%.2f..%.2f]  (%zu/%zu)\n", label,
              outcome.value().estimate, outcome.value().lower,
              outcome.value().upper, outcome.value().successes,
              outcome.value().trials);
}

}  // namespace

int main() {
  std::printf("responsiveness (deadline 15 s), 8 replications each:\n\n");
  report("three-party, healthy SCM",
         run_architecture("slp", /*scm_fault=*/false));
  report("three-party, SCM killed at t=1s",
         run_architecture("slp", /*scm_fault=*/true));
  report("hybrid, healthy SCM",
         run_architecture("hybrid", /*scm_fault=*/false));
  report("hybrid, SCM killed at t=1s",
         run_architecture("hybrid", /*scm_fault=*/true));
  std::printf(
      "\nexpected shape: the pure three-party architecture loses discovery\n"
      "with its directory; the hybrid one falls back to two-party mDNS and\n"
      "keeps responsiveness high.\n");
  return 0;
}
