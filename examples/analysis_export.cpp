// Analysis & export: run two small experiments as one service batch, name
// both in a level-4 repository, compare them with cross-experiment queries,
// and export one run's conditioned measurements as CSV (the "reusable data
// access functions" the unified storage of §IV-F enables).
//
//   $ ./analysis_export [output-dir]
#include <cstdio>

#include "common/strings.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "stats/analysis.hpp"
#include "storage/repository.hpp"
#include "storage/warehouse.hpp"

using namespace excovery;

namespace {

Result<core::Submission> protocol_submission(const std::string& protocol) {
  core::scenario::TwoPartyOptions options;
  options.protocol = protocol;
  if (protocol == "slp") {
    options.scm_count = 1;
    options.architecture = "three-party";
  }
  options.replications = 5;
  core::Submission submission;
  EXC_ASSIGN_OR_RETURN(submission.description,
                       core::scenario::two_party_sd(options));
  submission.scope.platform_seed = 11;
  return submission;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "excovery-results";

  Result<storage::Repository> repo = storage::Repository::open(dir);
  if (!repo.ok()) {
    std::fprintf(stderr, "%s\n", repo.error().to_string().c_str());
    return 1;
  }

  // Both experiments go to the service as one batch; results already in
  // the repository are disk hits.  Naming happens on this thread once the
  // batch is done (the repository is not thread-safe).
  const std::vector<std::string> protocols = {"mdns", "slp"};
  std::vector<core::Submission> submissions;
  for (const std::string& protocol : protocols) {
    Result<core::Submission> submission = protocol_submission(protocol);
    if (!submission.ok()) {
      std::fprintf(stderr, "%s: %s\n", protocol.c_str(),
                   submission.error().to_string().c_str());
      return 1;
    }
    submissions.push_back(std::move(submission).value());
  }
  core::ExperimentService::Config config;
  config.workers = 2;
  config.repository = &repo.value();
  const std::vector<core::ServiceReply> replies =
      core::ExperimentService(std::move(config))
          .submit_all(std::move(submissions));
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].status.ok()) {
      std::fprintf(stderr, "%s: %s\n", protocols[i].c_str(),
                   replies[i].status.error().to_string().c_str());
      return 1;
    }
    const std::string id = "export-demo-" + protocols[i];
    if (Status stored = repo.value().alias(id, replies[i].digest);
        !stored.ok()) {
      std::fprintf(stderr, "store %s: %s\n", id.c_str(),
                   stored.error().to_string().c_str());
      return 1;
    }
  }
  const auto fetch = [&](const std::string& id)
      -> Result<storage::ExperimentPackage> {
    EXC_ASSIGN_OR_RETURN(std::string digest, repo.value().resolve(id));
    return repo.value().fetch(digest);
  };

  // Level-4 comparison across everything in the repository.
  std::printf("=== repository %s ===\n", dir.c_str());
  Result<std::vector<storage::Repository::Summary>> summaries =
      repo.value().summaries();
  if (summaries.ok()) {
    std::printf("%-28s %-24s %6s %8s %8s\n", "experiment", "name", "runs",
                "events", "packets");
    for (const auto& summary : summaries.value()) {
      std::printf("%-28s %-24s %6zu %8zu %8zu\n",
                  summary.experiment_id.c_str(), summary.name.c_str(),
                  summary.runs, summary.events, summary.packets);
    }
  }

  // Cross-experiment query: mean first-discovery latency per experiment.
  std::printf("\nmean first-discovery latency by experiment:\n");
  for (const std::string& id : repo.value().names()) {
    Result<storage::ExperimentPackage> package = fetch(id);
    if (!package.ok()) continue;
    Result<std::vector<double>> latencies =
        stats::first_latencies(package.value());
    if (!latencies.ok() || latencies.value().empty()) continue;
    std::printf("  %-28s %.3fs over %zu runs\n", id.c_str(),
                stats::mean(latencies.value()), latencies.value().size());
  }

  // Dimensional warehouse roll-up across the whole repository (§IV-F's
  // anticipated data-warehouse structure).
  storage::Warehouse warehouse;
  for (const std::string& id : repo.value().names()) {
    Result<storage::ExperimentPackage> package = fetch(id);
    if (package.ok()) (void)warehouse.add(id, package.value());
  }
  std::printf("\n=== warehouse: sd_service_add facts per experiment ===\n");
  for (const std::string& line :
       strings::split(warehouse.rollup_by_type(), '\n')) {
    if (line.find("sd_service_add") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
  }
  for (const std::string& id : repo.value().names()) {
    Result<double> t_r =
        warehouse.mean_interval(id, "sd_start_search", "sd_service_add");
    if (t_r.ok()) {
      std::printf("  %-28s mean t_R (star-schema query) %.3fs\n", id.c_str(),
                  t_r.value());
    }
  }

  // CSV export of one experiment's conditioned event list.
  Result<storage::ExperimentPackage> package = fetch("export-demo-mdns");
  if (package.ok()) {
    std::printf("\n=== export-demo-mdns events.csv (first 25 rows) ===\n");
    std::printf("run_id,node_id,common_time,event_type,parameter\n");
    Result<std::vector<storage::EventRow>> events =
        package.value().all_events();
    if (events.ok()) {
      int shown = 0;
      for (const storage::EventRow& event : events.value()) {
        if (shown++ >= 25) break;
        std::printf("%lld,%s,%.9f,%s,%s\n",
                    static_cast<long long>(event.run_id),
                    csv_escape(event.node_id).c_str(), event.common_time,
                    csv_escape(event.event_type).c_str(),
                    csv_escape(event.parameter).c_str());
      }
      std::printf("... (%zu rows total)\n", events.value().size());
    }
  }
  return 0;
}
