// Cross-module integration tests: XML text -> execution -> level-3 package
// -> repository; parallel replication determinism; cross-run and
// cross-experiment conditioning guarantees; responsiveness under loss.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "stats/analysis.hpp"
#include "storage/repository.hpp"

namespace excovery {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("excovery-int-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter = 0;
};

Result<storage::ExperimentPackage> execute_options(
    const core::scenario::TwoPartyOptions& options, std::uint64_t seed) {
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = seed;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<core::SimPlatform> platform,
      core::SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform);
  return master.execute();
}

/// The same experiment as execute_options, as a service submission.
core::Submission submission_for(
    const core::scenario::TwoPartyOptions& options, std::uint64_t seed) {
  core::Submission submission;
  submission.description = core::scenario::two_party_sd(options).value();
  submission.scope.platform_seed = seed;
  return submission;
}

TEST(Integration, XmlTextToPackagePipeline) {
  // Author the description as text (as an experimenter would), then run the
  // entire workflow from the parsed document.
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  Result<core::ExperimentDescription> built =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(built.ok());
  std::string xml_text = built.value().to_xml_text();

  Result<core::ExperimentDescription> parsed =
      core::ExperimentDescription::parse(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  Result<net::Topology> topology =
      core::scenario::topology_for(parsed.value(), {});
  ASSERT_TRUE(topology.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = 99;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(parsed.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(parsed.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  EXPECT_EQ(package.value().run_ids().size(), 2u);

  // The stored description equals what was executed.
  EXPECT_EQ(package.value().description_xml().value(),
            parsed.value().to_xml_text());
}

TEST(Integration, PackageSurvivesDiskAndRepository) {
  TempDir dir;
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  Result<storage::Repository> repo =
      storage::Repository::open((dir.path / "repo").string());
  ASSERT_TRUE(repo.ok());
  core::ExperimentService::Config config;
  config.workers = 1;
  config.repository = &repo.value();
  core::ExperimentService service(std::move(config));
  const core::ServiceReply reply = service.submit(submission_for(options, 7));
  ASSERT_TRUE(reply.status.ok()) << reply.status.error().to_string();
  const storage::ExperimentPackage& package = *reply.package;
  ASSERT_TRUE(repo.value().alias("exp-1", reply.digest).ok());

  Result<std::string> digest = repo.value().resolve("exp-1");
  ASSERT_TRUE(digest.ok());
  Result<storage::ExperimentPackage> fetched =
      repo.value().fetch(digest.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().event_count(), package.event_count());
  EXPECT_EQ(fetched.value().packet_count(), package.packet_count());

  // Analysis gives identical results on the reloaded package.
  Result<stats::Proportion> before = stats::responsiveness(package, 5.0, 1);
  Result<stats::Proportion> after =
      stats::responsiveness(fetched.value(), 5.0, 1);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before.value().estimate, after.value().estimate);
}

TEST(Integration, Level2DirectoryRoundTripMidExperiment) {
  TempDir dir;
  // Execute two of three runs, persist level-2 to disk, reload into a
  // fresh store and condition: only completed runs appear.
  core::scenario::TwoPartyOptions options;
  options.replications = 3;
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value(), {});
  ASSERT_TRUE(topology.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = 3;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  ASSERT_TRUE(master.execute_run(master.plan().runs()[0]).ok());
  ASSERT_TRUE(master.execute_run(master.plan().runs()[1]).ok());

  ASSERT_TRUE(platform.value()
                  ->level2()
                  .write_to_directory(dir.path.string())
                  .ok());
  Result<storage::Level2Store> reloaded =
      storage::Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().completed_runs().size(), 2u);

  Result<storage::ExperimentPackage> package = storage::condition(
      reloaded.value(), description.value().to_xml_text(), {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().run_ids(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_GT(package.value().event_count(), 0u);
}

TEST(Integration, ParallelCampaignsAreDeterministic) {
  // Independent experiments with distinct platform seeds executed across a
  // thread pool produce exactly the same packages as sequential execution
  // (replication parallelism per DESIGN.md §6).
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  constexpr int kCampaigns = 4;

  auto fingerprint = [&](std::uint64_t seed) -> std::string {
    Result<storage::ExperimentPackage> package =
        execute_options(options, seed);
    EXPECT_TRUE(package.ok());
    if (!package.ok()) return "error";
    Bytes serialized = package.value().database().serialize();
    // Fingerprint the whole package (size + full-content hash).
    std::string_view view(reinterpret_cast<const char*>(serialized.data()),
                          serialized.size());
    return std::to_string(serialized.size()) + ":" +
           std::to_string(fnv1a64(view));
  };

  std::vector<std::string> sequential;
  sequential.reserve(kCampaigns);
  for (int i = 0; i < kCampaigns; ++i) {
    sequential.push_back(fingerprint(static_cast<std::uint64_t>(i + 1)));
  }

  std::vector<std::string> parallel(kCampaigns);
  ThreadPool pool(4);
  pool.parallel_for(kCampaigns, [&](std::size_t i) {
    parallel[i] = fingerprint(static_cast<std::uint64_t>(i + 1));
  });

  EXPECT_EQ(sequential, parallel);
  // Different seeds genuinely differ.
  EXPECT_NE(sequential[0], sequential[1]);
}

TEST(Integration, ResponsivenessDegradesWithInjectedLoss) {
  // The headline case-study shape: responsiveness falls as the message-loss
  // factor rises (a small version of the [25] experiment).
  core::scenario::TwoPartyOptions options;
  options.replications = 12;
  options.deadline_s = 2.0;  // tight: one query round
  options.environment_count = 0;
  options.loss_levels = {0.0, 0.9};
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value(), {});
  ASSERT_TRUE(topology.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = 21;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();

  // Split runs by the loss level applied (treatment 0 = loss 0.0 first).
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package.value());
  ASSERT_TRUE(discoveries.ok());
  int hits_clean = 0;
  int hits_lossy = 0;
  for (const stats::RunDiscovery& run : discoveries.value()) {
    bool hit = false;
    for (const auto& [provider, latency] : run.latencies) {
      if (latency <= options.deadline_s) hit = true;
    }
    // Runs 1-12 are loss 0.0; runs 13-24 loss 0.9 (OFAT order).
    if (run.run_id <= 12) {
      hits_clean += hit ? 1 : 0;
    } else {
      hits_lossy += hit ? 1 : 0;
    }
  }
  EXPECT_EQ(hits_clean, 12);
  EXPECT_LT(hits_lossy, 12);
}

TEST(Integration, ConditioningBeatsRawLocalTimestamps) {
  // With +/-50 ms clock offsets, ordering events by RAW local time breaks
  // causality (responses before requests); the conditioned common time
  // base repairs it.  This is the point of §IV-B3.
  core::scenario::TwoPartyOptions options;
  options.replications = 4;
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value(), {});
  ASSERT_TRUE(topology.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = 17;
  config.max_clock_offset = sim::SimDuration::from_millis(200);
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok());

  // Conditioned timeline: no packet is received before it was sent, even
  // though senders and receivers stamp with different clocks.
  Result<std::size_t> conditioned =
      stats::propagation_violations(package.value());
  ASSERT_TRUE(conditioned.ok());
  EXPECT_EQ(conditioned.value(), 0u);

  // Counter-check: rebuild a package from the same level-2 data with the
  // offsets zeroed (i.e. raw local time as common time) and observe
  // violations appear.
  storage::Level2Store raw_view;  // copy with zeroed syncs
  for (const std::string& node :
       platform.value()->level2().node_names()) {
    raw_view.node(node) = *platform.value()->level2().find_node(node);
  }
  for (storage::SyncMeasurement sync : platform.value()->level2().syncs()) {
    sync.offset_ns = 0;
    raw_view.add_sync(sync);
  }
  for (std::int64_t run : platform.value()->level2().completed_runs()) {
    raw_view.mark_run_complete(run);
  }
  Result<storage::ExperimentPackage> raw_package = storage::condition(
      raw_view, description.value().to_xml_text(), {});
  ASSERT_TRUE(raw_package.ok());
  Result<std::size_t> raw_violations =
      stats::propagation_violations(raw_package.value());
  ASSERT_TRUE(raw_violations.ok());
  EXPECT_GT(raw_violations.value(), 0u);
}

TEST(Integration, RepositoryComparesArchitectures) {
  TempDir dir;
  Result<storage::Repository> repo =
      storage::Repository::open((dir.path / "repo").string());
  ASSERT_TRUE(repo.ok());

  const std::vector<std::string> protocols = {"mdns", "slp"};
  std::vector<core::Submission> submissions;
  for (const std::string& protocol : protocols) {
    core::scenario::TwoPartyOptions options;
    options.replications = 2;
    options.protocol = protocol;
    if (protocol == "slp") {
      options.scm_count = 1;
      options.architecture = "three-party";
    }
    submissions.push_back(submission_for(options, 31));
  }
  core::ExperimentService::Config config;
  config.workers = 2;
  config.repository = &repo.value();
  core::ExperimentService service(std::move(config));
  const std::vector<core::ServiceReply> replies =
      service.submit_all(std::move(submissions));
  ASSERT_EQ(replies.size(), protocols.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_TRUE(replies[i].status.ok())
        << replies[i].status.error().to_string();
    ASSERT_TRUE(
        repo.value().alias("arch-" + protocols[i], replies[i].digest).ok());
  }

  // Cross-experiment query: both experiments discovered services.
  Result<std::vector<storage::Repository::CrossEvent>> adds =
      repo.value().events_of_type("sd_service_add");
  ASSERT_TRUE(adds.ok());
  std::set<std::string> experiments;
  for (const auto& cross : adds.value()) {
    experiments.insert(cross.experiment_id);
  }
  EXPECT_EQ(experiments.size(), 2u);
}

}  // namespace
}  // namespace excovery
