// The level-3 experiment package: one complete experiment in one database,
// with exactly the schema of the paper's Table I.
//
//   Table                  | Attributes
//   ExperimentInfo         | ExpXML, EEVersion, Name, Comment
//   Logs                   | NodeID, Log
//   EEFiles                | ID, File
//   ExperimentMeasurements | ID, NodeID, Name, Content
//   RunInfos               | RunID, NodeID, StartTime, TimeDiff
//   ExtraRunMeasurements   | RunID, NodeID, Name, Content
//   Events                 | RunID, NodeID, CommonTime, EventType, Parameter
//   Packets                | RunID, NodeID, CommonTime, SrcNodeID, Data
//
// Two extensions beyond Table I, both written by the observability layer
// (src/obs), both part of the fresh-package schema but not required on load
// so packages written by older versions still open:
//   Metrics    | RunID, Name, Value — framework self-measurements;
//   Provenance | RunID, Path, Seq, Kind, NodeID, Detail, Time, Latency —
//     per-discovery critical paths from causal lineage tracing
//     (DESIGN.md §16).
#pragma once

#include <string>

#include "storage/database.hpp"

namespace excovery::storage {

/// Version string recorded as EEVersion in every package.
inline constexpr const char* kEeVersion = "excovery-cpp 1.0.0";

/// A typed event row (conditioned: CommonTime is on the reference
/// timeline, in seconds).
struct EventRow {
  std::int64_t run_id = 0;
  std::string node_id;
  double common_time = 0.0;
  std::string event_type;
  std::string parameter;
};

/// A typed packet row (conditioned).
struct PacketRow {
  std::int64_t run_id = 0;
  std::string node_id;      ///< capturing node
  double common_time = 0.0;
  std::string src_node_id;  ///< originating node
  Bytes data;               ///< raw packet bytes (unaltered content)
};

/// One framework-metric value (see src/obs).  RunID -1 carries
/// experiment-wide aggregates; run-scoped rows use the real run id.
struct MetricRow {
  std::int64_t run_id = 0;
  std::string name;
  double value = 0.0;
};

/// One step of a discovery's critical path (see obs::CriticalPath).  Rows
/// with the same (RunID, Path) form one root-to-discovery chain ordered by
/// Seq; Time is the step's common time (seconds into the run's timeline),
/// Latency the seconds elapsed since the previous step.
struct ProvenanceRow {
  std::int64_t run_id = 0;
  std::int64_t path = 0;  ///< per-run path index (one per discovery)
  std::int64_t seq = 0;   ///< step index within the path, root first
  std::string kind;       ///< lineage kind ("root", "send", "deliver", …)
  std::string node_id;    ///< node the step happened on
  std::string detail;     ///< site detail (label / instance / cause)
  double time = 0.0;
  double latency = 0.0;
};

/// Per-run bookkeeping.
struct RunInfoRow {
  std::int64_t run_id = 0;
  std::string node_id;
  double start_time = 0.0;  ///< common-time start of the run
  double time_diff = 0.0;   ///< estimated node clock offset (seconds)
};

class ExperimentPackage {
 public:
  /// Fresh package with the Table I schema.
  ExperimentPackage();

  /// Wrap an existing database (load path); validates the schema.
  static Result<ExperimentPackage> from_database(Database db);

  // ---- single-tuple experiment info -------------------------------------
  Status set_experiment_info(const std::string& description_xml,
                             const std::string& name,
                             const std::string& comment);
  Result<std::string> description_xml() const;
  Result<std::string> experiment_name() const;
  Result<std::string> ee_version() const;

  // ---- writers -----------------------------------------------------------
  Status add_log(const std::string& node_id, std::string log_text);
  Status add_ee_file(const std::string& id, Bytes contents);
  Status add_experiment_measurement(std::int64_t id,
                                    const std::string& node_id,
                                    const std::string& name,
                                    const std::string& content);
  Status add_run_info(const RunInfoRow& info);
  Status add_extra_run_measurement(std::int64_t run_id,
                                   const std::string& node_id,
                                   const std::string& name,
                                   const std::string& content);
  /// Event and packet rows are taken by value and their strings and bytes
  /// moved into the table: pass an rvalue to store a row without a copy.
  Status add_event(EventRow event);
  Status add_packet(PacketRow packet);
  /// Append to the Metrics table (created on demand, so packages written by
  /// older versions accept metric rows too).
  Status add_metric(std::int64_t run_id, const std::string& name,
                    double value);
  /// Append to the Provenance table (created on demand, like Metrics).
  Status add_provenance(const ProvenanceRow& row);

  // ---- readers -----------------------------------------------------------
  /// Events of one run, ordered by CommonTime.
  Result<std::vector<EventRow>> events(std::int64_t run_id) const;
  /// All events, ordered by (RunID, CommonTime).
  Result<std::vector<EventRow>> all_events() const;
  /// Packets of one run, ordered by CommonTime.
  Result<std::vector<PacketRow>> packets(std::int64_t run_id) const;
  Result<std::vector<RunInfoRow>> run_infos() const;
  /// All metric rows in insertion order ([] for packages without the table).
  std::vector<MetricRow> metrics() const;
  /// All provenance rows in insertion order ([] when the table is absent).
  std::vector<ProvenanceRow> provenance() const;
  /// Distinct run ids present in RunInfos, ascending.
  std::vector<std::int64_t> run_ids() const;
  /// Log text for a node ("" if absent).
  std::string log_for(const std::string& node_id) const;

  std::size_t event_count() const;
  std::size_t packet_count() const;

  const Database& database() const noexcept { return db_; }
  Database& database() noexcept { return db_; }

  Status save(const std::string& path) const { return db_.save(path); }
  static Result<ExperimentPackage> load(const std::string& path);

 private:
  explicit ExperimentPackage(Database db) : db_(std::move(db)) {}
  Status check_schema() const;
  /// Resolve the row-volume tables once; Database keeps each Table at a
  /// fixed address for its lifetime, moves included.
  void bind_tables();

  Database db_;
  Table* events_ = nullptr;
  Table* packets_ = nullptr;
};

}  // namespace excovery::storage
