// Result-store pipeline benchmarks (google-benchmark).
//
// Measures the level-3 storage paths the analysis pipeline hammers: row
// insertion, per-run point queries and ordered scans over an event-shaped
// table, level-2 -> level-3 conditioning of a multi-node package,
// (de)serialisation bandwidth of the single-file database image, and the
// discovery scan over a paper-sized package.
//
// The `Seed` variants replicate the previous implementation faithfully —
// a row-oriented Value table with linear predicate scans, and a sequential
// conditioner that re-scans every sync measurement per event — so the JSON
// output carries seed-vs-new numbers side by side.  Results go to
// BENCH_storage.json (override with --benchmark_out=...).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "storage/conditioning.hpp"
#include "storage/database.hpp"
#include "storage/level2.hpp"
#include "storage/package.hpp"
#include "storage/table.hpp"

namespace excovery::storage {
namespace {

constexpr std::int64_t kRuns = 100;

TableSchema events_schema() {
  return {"Events",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"EventType", ValueType::kString, false},
           {"Parameter", ValueType::kString, true}}};
}

Row event_row(std::int64_t i) {
  const auto id = [](const char* prefix, std::int64_t n) {
    return Value{strings::format("%s%lld", prefix, static_cast<long long>(n))};
  };
  return {Value{i % kRuns + 1}, id("N", i % 8),
          Value{static_cast<double>((i * 37) % 10'000) * 1e-3},
          id("ev", i % 12), i % 5 ? id("p", i % 50) : Value{}};
}

// ---- seed replica: row-oriented table with linear scans --------------------

struct SeedTable {
  std::vector<Row> rows;

  std::vector<const Row*> select_equals(std::size_t column,
                                        const Value& value) const {
    std::vector<const Row*> out;
    for (const Row& row : rows) {
      if (row[column] == value) out.push_back(&row);
    }
    return out;
  }

  std::vector<const Row*> order_by(std::size_t column) const {
    std::vector<const Row*> out;
    out.reserve(rows.size());
    for (const Row& row : rows) out.push_back(&row);
    std::stable_sort(out.begin(), out.end(),
                     [column](const Row* a, const Row* b) {
                       return (*a)[column] < (*b)[column];
                     });
    return out;
  }
};

SeedTable seed_events(std::int64_t rows) {
  SeedTable table;
  table.rows.reserve(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) table.rows.push_back(event_row(i));
  return table;
}

Table columnar_events(std::int64_t rows) {
  Table table(events_schema());
  for (std::int64_t i = 0; i < rows; ++i) (void)table.insert(event_row(i));
  return table;
}

/// The previous conditioner: one sequential pass, completed-run membership
/// via linear find, and a full scan over all sync measurements per event
/// (Level2Store::offset_ns) to resolve the clock offset.
Result<ExperimentPackage> condition_seed_replica(
    const Level2Store& level2, const std::string& description_xml) {
  ExperimentPackage package;
  EXC_TRY(package.set_experiment_info(description_xml, "experiment", ""));
  auto include_run = [&](std::int64_t run_id) {
    const std::vector<std::int64_t>& completed = level2.completed_runs();
    return std::find(completed.begin(), completed.end(), run_id) !=
           completed.end();
  };
  for (const SyncMeasurement& sync : level2.syncs()) {
    if (!include_run(sync.run_id)) continue;
    RunInfoRow info;
    info.run_id = sync.run_id;
    info.node_id = sync.node;
    info.start_time = static_cast<double>(sync.run_start_ns) / 1e9;
    info.time_diff = static_cast<double>(sync.offset_ns) / 1e9;
    EXC_TRY(package.add_run_info(info));
  }
  std::int64_t measurement_id = 1;
  for (const std::string& node_name : level2.node_names()) {
    const NodeStore* node = level2.find_node(node_name);
    if (!node->log().empty()) {
      EXC_TRY(package.add_log(node_name, node->log()));
    }
    for (const RawEvent& event : node->events()) {
      if (!include_run(event.run_id)) continue;
      EventRow row;
      row.run_id = event.run_id;
      row.node_id = node_name;
      row.common_time = to_common_time(
          event.local_time_ns, level2.offset_ns(event.run_id, node_name));
      row.event_type = event.type;
      row.parameter = event.parameter.to_text();
      EXC_TRY(package.add_event(row));
    }
    for (const RawPacket& packet : node->packets()) {
      if (!include_run(packet.run_id)) continue;
      PacketRow row;
      row.run_id = packet.run_id;
      row.node_id = node_name;
      row.common_time = to_common_time(
          packet.local_time_ns, level2.offset_ns(packet.run_id, node_name));
      row.src_node_id = packet.src_node;
      row.data = packet.data;
      EXC_TRY(package.add_packet(row));
    }
    auto route_blobs = [&](const std::vector<NamedBlob>& blobs) -> Status {
      for (const NamedBlob& blob : blobs) {
        if (blob.run_id < 0) {
          EXC_TRY(package.add_experiment_measurement(
              measurement_id++, node_name, blob.name, blob.content));
        } else if (include_run(blob.run_id)) {
          EXC_TRY(package.add_extra_run_measurement(blob.run_id, node_name,
                                                    blob.name, blob.content));
        }
      }
      return {};
    };
    EXC_TRY(route_blobs(node->blobs()));
    EXC_TRY(route_blobs(node->plugin_data()));
  }
  return package;
}

/// A multi-node level-2 store shaped like a real campaign: `nodes` nodes,
/// kRuns runs, events + packets + blobs + plugin data per (run, node).
Level2Store busy_level2(int nodes, int events_per_run) {
  Level2Store level2;
  for (int n = 0; n < nodes; ++n) {
    std::string node = "N" + std::to_string(n);
    for (std::int64_t run = 1; run <= kRuns; ++run) {
      for (int e = 0; e < events_per_run; ++e) {
        level2.node(node).record_event(
            {run, run * 1'000'000'000LL + e * 1000 + n,
             "ev" + std::to_string(e % 4), Value{e}});
      }
      for (int p = 0; p < events_per_run / 4; ++p) {
        level2.node(node).record_packet(
            {run, run * 1'000'000'000LL + p * 700, "N0",
             Bytes{static_cast<std::uint8_t>(p),
                   static_cast<std::uint8_t>(n)}});
      }
      level2.node(node).add_run_blob(run, "hops", std::to_string(run));
      level2.node(node).add_plugin_measurement(run, "plug", "m",
                                               std::to_string(n));
      level2.add_sync({run, node, n * 1000LL, run * 1'000'000'000LL});
      level2.mark_run_complete(run);
    }
    level2.node(node).add_experiment_blob("topo", node);
    level2.node(node).append_log("log of " + node + "\n");
  }
  return level2;
}

// ---- insert throughput -----------------------------------------------------

void BM_InsertColumnar(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  for (auto _ : state) {
    Table table = columnar_events(rows);
    benchmark::DoNotOptimize(table.row_count());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_InsertColumnar)->Arg(10'000)->Arg(100'000);

// ---- per-run point queries (the level-3 extraction hot path) ---------------

void BM_SelectEqualsSeedScan(benchmark::State& state) {
  SeedTable table = seed_events(state.range(0));
  std::int64_t run = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits += table.select_equals(0, Value{run % kRuns + 1}).size();
    ++run;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectEqualsSeedScan)->Arg(10'000)->Arg(100'000);

void BM_SelectEqualsColumnar(benchmark::State& state) {
  Table table = columnar_events(state.range(0));
  benchmark::DoNotOptimize(table.select_equals("RunID", Value{1}).size());
  std::int64_t run = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits += table.select_equals("RunID", Value{run % kRuns + 1}).size();
    ++run;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectEqualsColumnar)->Arg(10'000)->Arg(100'000);

// ---- ordered scans ---------------------------------------------------------

void BM_OrderBySeedSort(benchmark::State& state) {
  SeedTable table = seed_events(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.order_by(2).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderBySeedSort)->Arg(100'000);

void BM_OrderByColumnarCached(benchmark::State& state) {
  Table table = columnar_events(state.range(0));
  benchmark::DoNotOptimize(table.order_by("CommonTime").value().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.order_by("CommonTime").value().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderByColumnarCached)->Arg(100'000);

// ---- conditioning ----------------------------------------------------------

void bench_condition(benchmark::State& state, std::size_t workers,
                     bool seed_replica) {
  Level2Store level2 =
      busy_level2(static_cast<int>(state.range(0)), 200);
  std::size_t events = 0;
  for (auto _ : state) {
    if (seed_replica) {
      Result<ExperimentPackage> package =
          condition_seed_replica(level2, "<e/>");
      events += package.value().event_count();
    } else {
      ConditioningOptions options;
      options.workers = workers;
      Result<ExperimentPackage> package = condition(level2, "<e/>", options);
      events += package.value().event_count();
    }
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(state.iterations());
}

void BM_ConditionSeedReplica(benchmark::State& state) {
  bench_condition(state, 1, true);
}
BENCHMARK(BM_ConditionSeedReplica)->Arg(8)->Arg(20);

void BM_ConditionSequential(benchmark::State& state) {
  bench_condition(state, 1, false);
}
BENCHMARK(BM_ConditionSequential)->Arg(8)->Arg(20);

void BM_ConditionParallel(benchmark::State& state) {
  bench_condition(state, 0, false);
}
BENCHMARK(BM_ConditionParallel)->Arg(8)->Arg(20);

// ---- (de)serialisation bandwidth -------------------------------------------

void BM_DatabaseSerialize(benchmark::State& state) {
  Database db;
  Table* table = db.create_table(events_schema()).value();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)table->insert(event_row(i));
  }
  std::size_t bytes = db.serialize().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.serialize().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DatabaseSerialize)->Arg(100'000);

void BM_DatabaseDeserialize(benchmark::State& state) {
  Database db;
  Table* table = db.create_table(events_schema()).value();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)table->insert(event_row(i));
  }
  Bytes image = db.serialize();
  for (auto _ : state) {
    Result<Database> back = Database::deserialize(image);
    benchmark::DoNotOptimize(back.value().table_count());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_DatabaseDeserialize)->Arg(100'000);

// ---- discovery scan over a paper-sized package ------------------------------

/// The [25]/Sec. V study of e2ebench's paper_loss workload: two-party mDNS,
/// 4 loss levels x 1000 replications, 80k event rows.
const ExperimentPackage& paper_package() {
  static const bench::Executed executed = [] {
    core::scenario::TwoPartyOptions options;
    options.replications = 1000;
    options.environment_count = 2;
    options.deadline_s = 8.0;
    options.loss_levels = {0.0, 0.2, 0.4, 0.6};
    return bench::must(bench::execute(options), "paper-sized study");
  }();
  return executed.package;
}

void BM_Discoveries(benchmark::State& state) {
  const ExperimentPackage& package = paper_package();
  std::size_t found = 0;
  for (auto _ : state) {
    found += bench::must(stats::discoveries(package), "discoveries").size();
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(package.event_count()));
}
BENCHMARK(BM_Discoveries)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace excovery::storage

// Custom main: default the JSON output to BENCH_storage.json so the perf
// trajectory is tracked without remembering reporter flags.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage(argv, argv + argc);
  bool has_out = false;
  for (const std::string& arg : args_storage) {
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args_storage.push_back("--benchmark_out=BENCH_storage.json");
    args_storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(args_storage.size());
  for (std::string& arg : args_storage) args.push_back(arg.data());
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
