#include "storage/conditioning.hpp"

#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.hpp"

namespace excovery::storage {

double to_common_time(std::int64_t local_time_ns, std::int64_t offset_ns) {
  return static_cast<double>(local_time_ns - offset_ns) / 1e9;
}

namespace {

/// Offset estimates keyed by run id, one map per node — replaces the
/// per-event linear scan over every sync measurement.
using OffsetsByRun = std::unordered_map<std::int64_t, std::int64_t>;

/// Everything one node contributes to the package, built independently of
/// every other node.  Blob lists keep the node-store traversal order
/// (run-scoped blobs before plugin data) so the merged table rows match a
/// sequential pass exactly.
struct NodeShard {
  std::string node_name;
  const NodeStore* store = nullptr;
  std::vector<EventRow> events;
  std::vector<PacketRow> packets;
  std::vector<const NamedBlob*> experiment_blobs;
  std::vector<const NamedBlob*> run_blobs;
};

void build_shard(NodeShard& shard, const OffsetsByRun* offsets,
                 const std::unordered_set<std::int64_t>* completed_runs) {
  auto include_run = [&](std::int64_t run_id) {
    return completed_runs == nullptr || completed_runs->count(run_id) != 0;
  };
  // A node records its runs one after another, so the run of the previous
  // record answers almost every lookup.
  struct RunLookup {
    std::int64_t run_id = 0;
    bool included = false;
    std::int64_t offset_ns = 0;
  };
  std::optional<RunLookup> last;
  auto lookup = [&](std::int64_t run_id) -> const RunLookup& {
    if (!last || last->run_id != run_id) {
      RunLookup found{run_id, include_run(run_id), 0};
      if (offsets) {
        auto it = offsets->find(run_id);
        if (it != offsets->end()) found.offset_ns = it->second;
      }
      last = found;
    }
    return *last;
  };
  shard.events.reserve(shard.store->events().size());
  shard.packets.reserve(shard.store->packets().size());
  // Events: split into single entries on the common time base.
  for (const RawEvent& event : shard.store->events()) {
    const RunLookup& run = lookup(event.run_id);
    if (!run.included) continue;
    EventRow row;
    row.run_id = event.run_id;
    row.node_id = shard.node_name;
    row.common_time = to_common_time(event.local_time_ns, run.offset_ns);
    row.event_type = event.type;
    row.parameter = event.parameter.to_text();
    shard.events.push_back(std::move(row));
  }
  // Packets.
  for (const RawPacket& packet : shard.store->packets()) {
    const RunLookup& run = lookup(packet.run_id);
    if (!run.included) continue;
    PacketRow row;
    row.run_id = packet.run_id;
    row.node_id = shard.node_name;
    row.common_time = to_common_time(packet.local_time_ns, run.offset_ns);
    row.src_node_id = packet.src_node;
    row.data = packet.data;
    shard.packets.push_back(std::move(row));
  }
  // Named blobs: experiment-scoped go to ExperimentMeasurements,
  // run-scoped (and plugin data) to ExtraRunMeasurements.
  auto classify = [&](const std::vector<NamedBlob>& blobs) {
    for (const NamedBlob& blob : blobs) {
      if (blob.run_id < 0) {
        shard.experiment_blobs.push_back(&blob);
      } else if (include_run(blob.run_id)) {
        shard.run_blobs.push_back(&blob);
      }
    }
  };
  classify(shard.store->blobs());
  classify(shard.store->plugin_data());
}

}  // namespace

Result<ExperimentPackage> condition(const Level2Store& level2,
                                    const std::string& description_xml,
                                    const ConditioningOptions& options) {
  ExperimentPackage package;
  EXC_TRY(package.set_experiment_info(description_xml, options.experiment_name,
                                      options.comment));

  std::unordered_set<std::int64_t> completed(
      level2.completed_runs().begin(), level2.completed_runs().end());
  const std::unordered_set<std::int64_t>* completed_filter =
      options.completed_runs_only ? &completed : nullptr;
  auto include_run = [&](std::int64_t run_id) {
    return completed_filter == nullptr ||
           completed_filter->count(run_id) != 0;
  };

  // RunInfos from the master's sync measurements; at the same time hoist
  // the offset estimates into per-(run, node) caches (first sync per key
  // wins, like Level2Store::offset_ns).
  std::unordered_map<std::string, OffsetsByRun> offsets_by_node;
  for (const SyncMeasurement& sync : level2.syncs()) {
    offsets_by_node[sync.node].emplace(sync.run_id, sync.offset_ns);
    if (!include_run(sync.run_id)) continue;
    RunInfoRow info;
    info.run_id = sync.run_id;
    info.node_id = sync.node;
    info.start_time = static_cast<double>(sync.run_start_ns) / 1e9;
    info.time_diff = static_cast<double>(sync.offset_ns) / 1e9;
    EXC_TRY(package.add_run_info(info));
  }

  // Resolve the node stores up front; a name without a store is a corrupt
  // level-2 hierarchy, not undefined behaviour.
  std::vector<NodeShard> shards;
  for (const std::string& node_name : level2.node_names()) {
    NodeShard shard;
    shard.node_name = node_name;
    shard.store = level2.find_node(node_name);
    if (shard.store == nullptr) {
      return err_not_found("level-2 store lists node '" + node_name +
                           "' but holds no data for it");
    }
    shards.push_back(std::move(shard));
  }

  auto offsets_for = [&](const std::string& node) -> const OffsetsByRun* {
    auto it = offsets_by_node.find(node);
    return it == offsets_by_node.end() ? nullptr : &it->second;
  };
  const auto phase_start = std::chrono::steady_clock::now();
  auto report_phase = [&](std::string_view phase, auto since) {
    if (!options.timing_hook) return;
    options.timing_hook(
        phase, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - since)
                   .count());
  };

  if (options.workers == 1 || shards.size() <= 1) {
    for (NodeShard& shard : shards) {
      build_shard(shard, offsets_for(shard.node_name), completed_filter);
    }
  } else {
    ThreadPool pool(options.workers);
    pool.parallel_for(shards.size(), [&](std::size_t i) {
      build_shard(shards[i], offsets_for(shards[i].node_name),
                  completed_filter);
    });
  }
  report_phase("build_shards", phase_start);
  const auto merge_start = std::chrono::steady_clock::now();

  // Deterministic merge in node order: shard contents are appended exactly
  // where a sequential pass would have inserted them, including the global
  // experiment-measurement id sequence.
  std::size_t event_rows = 0, packet_rows = 0;
  for (const NodeShard& shard : shards) {
    event_rows += shard.events.size();
    packet_rows += shard.packets.size();
  }
  package.database().table("Events")->reserve(event_rows);
  package.database().table("Packets")->reserve(packet_rows);
  std::int64_t measurement_id = 1;
  for (NodeShard& shard : shards) {
    std::string node_log = shard.store->log();
    if (!node_log.empty()) {
      EXC_TRY(package.add_log(shard.node_name, std::move(node_log)));
    }
    // The shard's strings and packet bytes move into the table; its row
    // vectors are released before the next shard is merged.
    for (EventRow& row : shard.events) {
      EXC_TRY(package.add_event(std::move(row)));
    }
    std::vector<EventRow>().swap(shard.events);
    for (PacketRow& row : shard.packets) {
      EXC_TRY(package.add_packet(std::move(row)));
    }
    std::vector<PacketRow>().swap(shard.packets);
    for (const NamedBlob* blob : shard.experiment_blobs) {
      EXC_TRY(package.add_experiment_measurement(measurement_id++,
                                                 shard.node_name, blob->name,
                                                 blob->content));
    }
    for (const NamedBlob* blob : shard.run_blobs) {
      EXC_TRY(package.add_extra_run_measurement(blob->run_id, shard.node_name,
                                                blob->name, blob->content));
    }
  }
  report_phase("merge", merge_start);
  return package;
}

}  // namespace excovery::storage
