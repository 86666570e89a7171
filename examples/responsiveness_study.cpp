// Responsiveness study: the case-study experiment the paper's prototype was
// built for (§VI, refs [25]/[26]) — "the probability that a number of SMs
// is found within a deadline".
//
//   $ ./responsiveness_study [replications]
//
// Sweeps a message-loss factor across {0, 0.1, ..., 0.5} on the SU's node
// (a §IV-D manipulation process driven by a factor reference) and reports
// responsiveness for several deadlines, with Wilson 95% bounds, plus the
// discovery-latency distribution.  The experiment runs through the
// ExperimentService, whose results are stored content-addressed in a
// level-4 repository under ./excovery-results and named there; a re-run
// with the same inputs is served from disk.
#include <cstdio>
#include <cstdlib>

#include "core/plan.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "stats/analysis.hpp"
#include "storage/repository.hpp"

using namespace excovery;

int main(int argc, char** argv) {
  int replications = argc > 1 ? std::atoi(argv[1]) : 30;
  if (replications < 1) replications = 30;

  core::scenario::TwoPartyOptions options;
  options.sm_count = 1;
  options.su_count = 1;
  options.environment_count = 2;
  options.replications = replications;
  options.deadline_s = 8.0;
  options.loss_levels = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  if (!description.ok()) {
    std::fprintf(stderr, "%s\n", description.error().to_string().c_str());
    return 1;
  }
  Result<core::TreatmentPlan> plan =
      core::TreatmentPlan::generate(description.value());
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.error().to_string().c_str());
    return 1;
  }
  // An unopenable repository only loses the archive, not the study.
  Result<storage::Repository> repo =
      storage::Repository::open("excovery-results");
  core::ExperimentService::Config config;
  config.workers = 1;
  config.repository = repo.ok() ? &repo.value() : nullptr;
  core::ExperimentService service(std::move(config));
  core::Submission submission;
  submission.description = description.value();
  submission.scope.platform_seed = 7;

  std::printf("executing %zu runs (%zu treatments x %d replications)...\n",
              plan.value().run_count(), plan.value().treatment_count(),
              replications);
  const core::ServiceReply reply = service.submit(submission);
  if (!reply.status.ok()) {
    std::fprintf(stderr, "%s\n", reply.status.error().to_string().c_str());
    return 1;
  }
  const storage::ExperimentPackage& package = *reply.package;

  // Group run outcomes by the loss level of their treatment (OFAT order:
  // loss levels in sequence, `replications` runs each).
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package);
  if (!discoveries.ok()) {
    std::fprintf(stderr, "%s\n", discoveries.error().to_string().c_str());
    return 1;
  }

  const double deadlines[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  std::printf(
      "\nresponsiveness P(SM found within deadline) by injected loss:\n");
  std::printf("%-6s", "loss");
  for (double deadline : deadlines) std::printf("  <=%.1fs          ", deadline);
  std::printf("\n");
  for (std::size_t level = 0; level < options.loss_levels.size(); ++level) {
    std::printf("%-6.2f", options.loss_levels[level]);
    std::int64_t lo = static_cast<std::int64_t>(level) * replications + 1;
    std::int64_t hi = lo + replications - 1;
    for (double deadline : deadlines) {
      std::size_t hits = 0;
      std::size_t trials = 0;
      for (const stats::RunDiscovery& run : discoveries.value()) {
        if (run.run_id < lo || run.run_id > hi) continue;
        ++trials;
        for (const auto& [provider, latency] : run.latencies) {
          if (latency <= deadline) {
            ++hits;
            break;
          }
        }
      }
      stats::Proportion p = stats::wilson(hits, trials);
      std::printf("  %.2f [%.2f-%.2f]", p.estimate, p.lower, p.upper);
    }
    std::printf("\n");
  }

  const std::vector<double> latencies =
      stats::discovery_latencies(discoveries.value());
  if (!latencies.empty()) {
    std::printf("\ndiscovery latency distribution (all %zu discoveries):\n",
                latencies.size());
    std::printf("  mean %.3fs  median %.3fs  p95 %.3fs  max %.3fs\n",
                stats::mean(latencies), stats::median(latencies),
                stats::percentile(latencies, 95), stats::max_of(latencies));
    stats::Histogram histogram(0.0, 8.0, 16);
    for (double latency : latencies) histogram.add(latency);
    std::printf("%s", histogram.format(30).c_str());
  }

  // Name the stored result in the level-4 repository for later comparison.
  if (repo.ok()) {
    const std::string id = "responsiveness-loss-sweep";
    Result<std::string> named = repo.value().resolve(id);
    if (!named.ok() || named.value() != reply.digest) {
      Status stored = repo.value().alias(id, reply.digest);
      std::printf("\narchived as '%s' in ./excovery-results: %s\n",
                  id.c_str(), stored.ok() ? "ok" : "failed");
    }
  }
  return 0;
}
