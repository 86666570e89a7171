// Byte and answer pins for the post-run tail: conditioning, package
// serialisation and the discovery scan.
//
// PackageGolden pins the SHA-256 of Database::serialize() for a small,
// fully deterministic experiment (two loss treatments x three replications,
// with packet capture) plus hand-inserted cells the simulated study never
// writes itself: a null Parameter, an int cell in a double column and a
// Metrics row.  The digest was captured from the implementation that built
// every column block in a private ByteWriter and copied it into the output;
// any writer that changes a byte of the package fails here.
//
// DiscoveryOracle keeps the original per-run discovery extraction (one
// ExperimentPackage::events() call per run, a std::map per run) inside this
// file as the reference, and compares stats::discoveries with it on a
// hand-built package that covers every ordering and filtering rule of the
// scan.
#include <gtest/gtest.h>

#include <map>

#include "common/hash.hpp"
#include "core/master.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "sd/model.hpp"
#include "stats/analysis.hpp"
#include "storage/package.hpp"

namespace excovery {
namespace {

// ---- golden package bytes ---------------------------------------------------

constexpr const char* kGoldenPackageSha256 =
    "65842f72b91e8a0304c94599f27c746d6272adcd7041d0fb68d19ec5f71f8a75";

storage::ExperimentPackage golden_package() {
  core::scenario::TwoPartyOptions options;
  options.replications = 3;
  options.environment_count = 1;
  options.deadline_s = 5.0;
  options.seed = 5;
  options.loss_levels = {0.0, 0.4};
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  EXPECT_TRUE(description.ok());
  core::SimPlatformConfig config;
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value());
  EXPECT_TRUE(topology.ok());
  config.topology = std::move(topology).value();
  config.seed = 11;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  EXPECT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  EXPECT_TRUE(package.ok()) << package.error().to_string();
  storage::ExperimentPackage out = std::move(package).value();

  // Cells the simulated study never produces, so every lane of the column
  // writer is part of the pinned bytes.
  storage::Table* events = out.database().table("Events");
  EXPECT_TRUE(events
                  ->insert({Value{std::int64_t{1}}, Value{"SU0"},
                            Value{std::int64_t{2}}, Value{"golden_probe"},
                            Value{}})
                  .ok());
  EXPECT_TRUE(out.add_metric(-1, "golden.metric", 0.5).ok());
  return out;
}

TEST(PackageGolden, SerializedBytesUnchanged) {
  const storage::ExperimentPackage package = golden_package();
  ASSERT_EQ(package.run_ids().size(), 6u);
  ASSERT_GT(package.packet_count(), 0u);  // packet capture is in the bytes
  const Bytes bytes = package.database().serialize();
  EXPECT_EQ(Sha256().update(bytes.data(), bytes.size()).finish_hex(),
            kGoldenPackageSha256);
}

TEST(PackageGolden, RoundTripReserialisesIdentically) {
  const Bytes bytes = golden_package().database().serialize();
  Result<storage::Database> db = storage::Database::deserialize(bytes);
  ASSERT_TRUE(db.ok()) << db.error().to_string();
  EXPECT_EQ(db.value().serialize(), bytes);
}

// ---- discovery oracle -------------------------------------------------------

/// The original extraction: per run, the run's events ordered by CommonTime
/// (ExperimentPackage::events, a stable sort), one map entry per searcher.
std::vector<stats::RunDiscovery> reference_discoveries(
    const storage::ExperimentPackage& package) {
  std::vector<stats::RunDiscovery> out;
  for (std::int64_t run_id : package.run_ids()) {
    Result<std::vector<storage::EventRow>> events = package.events(run_id);
    EXPECT_TRUE(events.ok());
    std::map<std::string, stats::RunDiscovery> by_searcher;
    for (const storage::EventRow& event : events.value()) {
      if (event.event_type == sd::events::kStartSearch) {
        auto [it, inserted] =
            by_searcher.try_emplace(event.node_id, stats::RunDiscovery{});
        if (inserted) {
          it->second.run_id = run_id;
          it->second.searcher = event.node_id;
          it->second.search_start = event.common_time;
        }
      } else if (event.event_type == sd::events::kServiceAdd) {
        auto it = by_searcher.find(event.node_id);
        if (it == by_searcher.end()) continue;
        it->second.latencies.try_emplace(
            event.parameter, event.common_time - it->second.search_start);
      } else if (event.event_type == "wait_timeout") {
        auto it = by_searcher.find(event.node_id);
        if (it != by_searcher.end()) it->second.timed_out = true;
      }
    }
    for (auto& [searcher, discovery] : by_searcher) {
      out.push_back(std::move(discovery));
    }
  }
  return out;
}

void expect_same(const std::vector<stats::RunDiscovery>& actual,
                 const std::vector<stats::RunDiscovery>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("discovery " + std::to_string(i));
    EXPECT_EQ(actual[i].run_id, expected[i].run_id);
    EXPECT_EQ(actual[i].searcher, expected[i].searcher);
    EXPECT_EQ(actual[i].search_start, expected[i].search_start);
    EXPECT_EQ(actual[i].latencies, expected[i].latencies);
    EXPECT_EQ(actual[i].timed_out, expected[i].timed_out);
  }
}

/// Every rule of the scan in one package.  Rows are inserted node by node
/// (as conditioning's shard merge does), so each run's rows interleave in
/// time across nodes.
storage::ExperimentPackage oracle_package() {
  storage::ExperimentPackage package;
  EXPECT_TRUE(package.set_experiment_info("<e/>", "oracle", "").ok());
  // Run 4 is deliberately listed before run 2, and run 3 has no RunInfos
  // row at all: its events must be skipped.
  for (std::int64_t run : {1, 4, 2, 5}) {
    EXPECT_TRUE(package.add_run_info({run, "SU0", 0.0, 0.0}).ok());
    EXPECT_TRUE(package.add_run_info({run, "SU1", 0.0, 0.0}).ok());
  }
  auto add = [&](std::int64_t run, const char* node, double time,
                 const char* type, const char* parameter) {
    EXPECT_TRUE(package.add_event({run, node, time, type, parameter}).ok());
  };
  storage::Table* events = package.database().table("Events");
  auto add_null_parameter = [&](std::int64_t run, const char* node,
                                double time, const char* type) {
    EXPECT_TRUE(events
                    ->insert({Value{run}, Value{node}, Value{time},
                              Value{type}, Value{}})
                    .ok());
  };

  // Node SU1 first: two searchers in runs 1 and 2, with SU1's rows
  // inserted before SU0's although SU0's come first in time.
  add(1, "SU1", 2.0, "sd_start_search", "_t");
  add(1, "SU1", 2.5, "sd_service_add", "SM0");
  add(1, "SU1", 2.5, "sd_service_add", "SM1");  // tie with the row above
  add(2, "SU1", 5.0, "sd_service_add", "SM0");  // add before its search
  add(2, "SU1", 6.0, "sd_start_search", "_t");
  add(2, "SU1", 6.0, "sd_service_add", "SM1");  // tie with the search
  add(2, "SU1", 9.0, "wait_timeout", "sd_service_add");
  add(3, "SU1", 1.0, "sd_start_search", "_t");  // run 3 is not in RunInfos
  add(3, "SU1", 1.5, "sd_service_add", "SM0");
  add_null_parameter(4, "SU1", 3.0, "sd_start_search");
  add_null_parameter(4, "SU1", 3.25, "sd_service_add");  // provider ""

  // Node SU0: out of insertion order in time, with ties whose insertion
  // order decides which add of the same provider wins.
  add(1, "SU0", 1.75, "sd_service_add", "SM0");
  add(1, "SU0", 1.0, "sd_start_search", "_t");
  add(1, "SU0", 1.5, "sd_service_add", "SM0");   // earlier in time: wins
  add(1, "SU0", 1.75, "sd_service_add", "SM1");
  add(1, "SU0", 3.0, "sd_start_search", "_t");   // second search ignored
  add(1, "SU0", 0.5, "sd_service_add", "SM2");   // before the search
  add(2, "SU0", 7.0, "sd_service_add", "SM0");
  add(2, "SU0", 7.0, "sd_start_search", "_t");   // tie: add came first
  add(2, "SU0", 7.0, "sd_service_add", "SM1");   // tie: search came first
  add(4, "SU0", 4.0, "wait_timeout", "sd_service_add");  // no search
  add(5, "SU0", 0.0, "sd_start_search", "_t");
  add(5, "SU0", -0.0, "sd_service_add", "SM0");  // -0.0 ties with 0.0
  add(5, "SU0", 1.0, "sd_stop_search", "_t");

  // A third node appended last, whose rows precede everything in time.
  add(1, "SU2", 0.25, "sd_start_search", "_t");
  add(1, "SU2", 0.75, "sd_service_add", "SM0");
  add(5, "SU2", 0.0, "sd_service_add", "SM0");   // tie, but before search
  add(5, "SU2", 0.0, "sd_start_search", "_t");
  return package;
}

TEST(DiscoveryOracle, MatchesPerRunReference) {
  const storage::ExperimentPackage package = oracle_package();
  const std::vector<stats::RunDiscovery> expected =
      reference_discoveries(package);
  // The fixture really exercises the rules it claims to.
  ASSERT_EQ(expected.size(), 8u);
  EXPECT_EQ(expected[0].searcher, "SU0");  // run 1: ordered by name
  EXPECT_EQ(expected[0].latencies.at("SM0"), 0.5);
  EXPECT_EQ(expected[0].latencies.count("SM2"), 0u);
  EXPECT_EQ(expected[3].latencies.count("SM0"), 0u);  // run 2, SU0
  EXPECT_EQ(expected[5].latencies.at(""), 0.25);      // run 4, null param

  Result<std::vector<stats::RunDiscovery>> actual = stats::discoveries(package);
  ASSERT_TRUE(actual.ok()) << actual.error().to_string();
  expect_same(actual.value(), expected);
}

TEST(DiscoveryOracle, MatchesPerRunReferenceOnASimulatedStudy) {
  const storage::ExperimentPackage package = golden_package();
  Result<std::vector<stats::RunDiscovery>> actual = stats::discoveries(package);
  ASSERT_TRUE(actual.ok()) << actual.error().to_string();
  expect_same(actual.value(), reference_discoveries(package));
}

}  // namespace
}  // namespace excovery
