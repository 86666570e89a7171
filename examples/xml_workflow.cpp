// File-based workflow: the way an experimenter actually uses ExCovery —
// author the experiment as an XML document, validate it against the
// shipped schema, execute it, and keep the single-file results database.
//
//   $ ./xml_workflow [description.xml]
//
// Without an argument the example writes a self-contained description
// (a two-SM discovery experiment with a message-loss manipulation) to
// ./experiment.xml first, so you can edit it and re-run.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/master.hpp"
#include "core/scenario.hpp"
#include "stats/analysis.hpp"
#include "stats/timeline.hpp"
#include "xml/parser.hpp"

using namespace excovery;

namespace {

const char* kDefaultDocument = R"(<?xml version="1.0" encoding="UTF-8"?>
<experiment name="xml-workflow-demo" seed="77">
  <parameterlist>
    <parameter key="sd_architecture">two-party</parameter>
    <parameter key="sd_protocol">mdns</parameter>
    <parameter key="sd_comm">active</parameter>
  </parameterlist>
  <nodelist>
    <node id="SM0" /><node id="SM1" /><node id="SU0" />
  </nodelist>
  <factorlist>
    <factor id="fact_nodes" type="actor_node_map" usage="blocking">
      <levels><level>
        <actor id="actor0">
          <instance id="0">SM0</instance>
          <instance id="1">SM1</instance>
        </actor>
        <actor id="actor1"><instance id="0">SU0</instance></actor>
      </level></levels>
    </factor>
    <factor usage="constant" id="fact_loss" type="double">
      <levels><level>0</level><level>0.4</level></levels>
    </factor>
    <replicationfactor usage="replication" type="int"
        id="fact_replication_id">6</replicationfactor>
  </factorlist>
  <processes>
    <node_process>
      <actor id="actor0" name="SM">
        <sd_actions>
          <sd_init role="SM" />
          <sd_start_publish />
          <wait_for_event>
            <event_dependency>"done"</event_dependency>
          </wait_for_event>
          <sd_stop_publish />
          <sd_exit />
        </sd_actions>
      </actor>
      <actor id="actor1" name="SU">
        <sd_actions>
          <wait_for_event>
            <from_dependency><node actor="actor0" instance="all"/>
            </from_dependency>
            <event_dependency>"sd_start_publish"</event_dependency>
          </wait_for_event>
          <sd_init role="SU" />
          <wait_marker />
          <sd_start_search />
          <wait_for_event>
            <event_dependency>"sd_service_add"</event_dependency>
            <param_dependency><node actor="actor0" instance="all"/>
            </param_dependency>
            <timeout>"10"</timeout>
          </wait_for_event>
          <event_flag><value>"done"</value></event_flag>
          <sd_stop_search />
          <sd_exit />
        </sd_actions>
      </actor>
    </node_process>
    <manipulation_process node="SU0">
      <actions>
        <fault_message_loss_start>
          <probability><factorref id="fact_loss" /></probability>
          <direction>both</direction>
          <randomseed><factorref id="fact_replication_id" /></randomseed>
        </fault_message_loss_start>
        <wait_for_event>
          <event_dependency>"done"</event_dependency>
        </wait_for_event>
        <fault_message_loss_stop />
      </actions>
    </manipulation_process>
  </processes>
  <platform>
    <actor_nodes>
      <node id="SM0" abstract="SM0" />
      <node id="SM1" abstract="SM1" />
      <node id="SU0" abstract="SU0" />
    </actor_nodes>
    <environment_nodes>
      <node id="ENV0" /><node id="ENV1" />
    </environment_nodes>
  </platform>
</experiment>
)";

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "experiment.xml";
  if (argc <= 1) {
    std::ofstream out(path, std::ios::trunc);
    out << kDefaultDocument;
    std::printf("wrote default description to %s (edit and re-run)\n\n",
                path.c_str());
  }

  // Load and parse the document from disk.
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  Result<core::ExperimentDescription> description =
      core::ExperimentDescription::parse(buffer.str());
  if (!description.ok()) {
    std::fprintf(stderr, "description invalid: %s\n",
                 description.error().to_string().c_str());
    return 1;
  }
  std::printf("parsed '%s': %zu abstract nodes, %zu factors, %d "
              "replications, protocol=%s\n",
              description.value().name.c_str(),
              description.value().abstract_nodes.size(),
              description.value().factors.size(),
              description.value().replications,
              description.value().info("sd_protocol").c_str());

  // Platform and execution.
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value(), {});
  if (!topology.ok()) {
    std::fprintf(stderr, "%s\n", topology.error().to_string().c_str());
    return 1;
  }
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = description.value().seed;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  if (!platform.ok()) {
    std::fprintf(stderr, "%s\n", platform.error().to_string().c_str());
    return 1;
  }
  core::ExperiMaster master(description.value(), *platform.value());
  std::printf("executing %zu runs...\n", master.plan().run_count());
  Result<storage::ExperimentPackage> package = master.execute();
  if (!package.ok()) {
    std::fprintf(stderr, "%s\n", package.error().to_string().c_str());
    return 1;
  }

  // Analysis + timeline of the first run.
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package.value());
  if (discoveries.ok()) {
    const stats::Proportion responsiveness =
        stats::responsiveness(discoveries.value(), 10.0, 2);
    std::printf("\nboth SMs found within 10 s: %.2f [%.2f..%.2f] "
                "(%zu/%zu runs)\n",
                responsiveness.estimate, responsiveness.lower,
                responsiveness.upper, responsiveness.successes,
                responsiveness.trials);
  }
  stats::TimelineOptions timeline_options;
  timeline_options.marker_events = {"sd_start_publish", "sd_start_search",
                                    "sd_service_add", "done"};
  Result<std::string> timeline =
      stats::render_timeline(package.value(), 1, timeline_options);
  if (timeline.ok()) std::printf("\n%s", timeline.value().c_str());

  // Persist the level-3 database next to the description.
  std::string db_path = path + ".excovery";
  if (package.value().save(db_path).ok()) {
    std::printf("\nresults database: %s\n", db_path.c_str());
  }
  return 0;
}
