#include "storage/package.hpp"

#include <algorithm>

namespace excovery::storage {

namespace {

TableSchema experiment_info_schema() {
  return {"ExperimentInfo",
          {{"ExpXML", ValueType::kString, false},
           {"EEVersion", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Comment", ValueType::kString, true}}};
}
TableSchema logs_schema() {
  return {"Logs",
          {{"NodeID", ValueType::kString, false},
           {"Log", ValueType::kString, false}}};
}
TableSchema ee_files_schema() {
  return {"EEFiles",
          {{"ID", ValueType::kString, false},
           {"File", ValueType::kBytes, false}}};
}
TableSchema experiment_measurements_schema() {
  return {"ExperimentMeasurements",
          {{"ID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Content", ValueType::kString, true}}};
}
TableSchema run_infos_schema() {
  return {"RunInfos",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"StartTime", ValueType::kDouble, false},
           {"TimeDiff", ValueType::kDouble, false}}};
}
TableSchema extra_run_measurements_schema() {
  return {"ExtraRunMeasurements",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Content", ValueType::kString, true}}};
}
TableSchema events_schema() {
  return {"Events",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"EventType", ValueType::kString, false},
           {"Parameter", ValueType::kString, true}}};
}
TableSchema packets_schema() {
  return {"Packets",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"SrcNodeID", ValueType::kString, false},
           {"Data", ValueType::kBytes, false}}};
}

TableSchema metrics_schema() {
  return {"Metrics",
          {{"RunID", ValueType::kInt, false},
           {"Name", ValueType::kString, false},
           {"Value", ValueType::kDouble, false}}};
}

TableSchema provenance_schema() {
  return {"Provenance",
          {{"RunID", ValueType::kInt, false},
           {"Path", ValueType::kInt, false},
           {"Seq", ValueType::kInt, false},
           {"Kind", ValueType::kString, false},
           {"NodeID", ValueType::kString, false},
           {"Detail", ValueType::kString, true},
           {"Time", ValueType::kDouble, false},
           {"Latency", ValueType::kDouble, false}}};
}

// The Metrics and Provenance tables are deliberately absent here: packages
// written before they existed must keep loading.
const char* kRequiredTables[] = {
    "ExperimentInfo", "Logs",      "EEFiles",
    "ExperimentMeasurements",      "RunInfos",
    "ExtraRunMeasurements",        "Events",
    "Packets"};

}  // namespace

ExperimentPackage::ExperimentPackage() {
  // Creation of the canonical schema cannot fail on an empty database.
  (void)db_.create_table(experiment_info_schema());
  (void)db_.create_table(logs_schema());
  (void)db_.create_table(ee_files_schema());
  (void)db_.create_table(experiment_measurements_schema());
  (void)db_.create_table(run_infos_schema());
  (void)db_.create_table(extra_run_measurements_schema());
  (void)db_.create_table(events_schema());
  (void)db_.create_table(packets_schema());
  (void)db_.create_table(metrics_schema());
  (void)db_.create_table(provenance_schema());
  bind_tables();
}

void ExperimentPackage::bind_tables() {
  events_ = db_.table("Events");
  packets_ = db_.table("Packets");
}

Result<ExperimentPackage> ExperimentPackage::from_database(Database db) {
  ExperimentPackage package(std::move(db));
  EXC_TRY(package.check_schema());
  package.bind_tables();
  return package;
}

Result<ExperimentPackage> ExperimentPackage::load(const std::string& path) {
  EXC_ASSIGN_OR_RETURN(Database db, Database::load(path));
  return from_database(std::move(db));
}

Status ExperimentPackage::check_schema() const {
  for (const char* name : kRequiredTables) {
    if (!db_.table(name)) {
      return err_validation(std::string("package missing table '") + name +
                            "'");
    }
  }
  return {};
}

Status ExperimentPackage::set_experiment_info(
    const std::string& description_xml, const std::string& name,
    const std::string& comment) {
  Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 0) {
    return err_state("ExperimentInfo already set (single-tuple table)");
  }
  Value row[] = {Value{description_xml}, Value{kEeVersion}, Value{name},
                 Value{comment}};
  return info->insert(row);
}

Result<std::string> ExperimentPackage::description_xml() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(0));
}

Result<std::string> ExperimentPackage::experiment_name() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(2));
}

Result<std::string> ExperimentPackage::ee_version() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(1));
}

Status ExperimentPackage::add_log(const std::string& node_id,
                                  std::string log_text) {
  Value row[] = {Value{node_id}, Value{std::move(log_text)}};
  return db_.table("Logs")->insert(row);
}

Status ExperimentPackage::add_ee_file(const std::string& id, Bytes contents) {
  Value row[] = {Value{id}, Value{std::move(contents)}};
  return db_.table("EEFiles")->insert(row);
}

Status ExperimentPackage::add_experiment_measurement(std::int64_t id,
                                                     const std::string& node_id,
                                                     const std::string& name,
                                                     const std::string& content) {
  Value row[] = {Value{id}, Value{node_id}, Value{name}, Value{content}};
  return db_.table("ExperimentMeasurements")->insert(row);
}

Status ExperimentPackage::add_run_info(const RunInfoRow& info) {
  Value row[] = {Value{info.run_id}, Value{info.node_id},
                 Value{info.start_time}, Value{info.time_diff}};
  return db_.table("RunInfos")->insert(row);
}

Status ExperimentPackage::add_extra_run_measurement(std::int64_t run_id,
                                                    const std::string& node_id,
                                                    const std::string& name,
                                                    const std::string& content) {
  Value row[] = {Value{run_id}, Value{node_id}, Value{name}, Value{content}};
  return db_.table("ExtraRunMeasurements")->insert(row);
}

Status ExperimentPackage::add_event(EventRow event) {
  Value row[] = {Value{event.run_id}, Value{std::move(event.node_id)},
                 Value{event.common_time}, Value{std::move(event.event_type)},
                 Value{std::move(event.parameter)}};
  return events_->insert(row);
}

Status ExperimentPackage::add_packet(PacketRow packet) {
  Value row[] = {Value{packet.run_id}, Value{std::move(packet.node_id)},
                 Value{packet.common_time},
                 Value{std::move(packet.src_node_id)},
                 Value{std::move(packet.data)}};
  return packets_->insert(row);
}

Status ExperimentPackage::add_metric(std::int64_t run_id,
                                     const std::string& name, double value) {
  Table* table = db_.table("Metrics");
  if (!table) {
    // Loaded legacy package: materialise the table on first write.
    EXC_ASSIGN_OR_RETURN(table, db_.create_table(metrics_schema()));
  }
  Value cells[] = {Value{run_id}, Value{name}, Value{value}};
  return table->insert(cells);
}

Status ExperimentPackage::add_provenance(const ProvenanceRow& row) {
  Table* table = db_.table("Provenance");
  if (!table) {
    // Loaded legacy package: materialise the table on first write.
    EXC_ASSIGN_OR_RETURN(table, db_.create_table(provenance_schema()));
  }
  Value cells[] = {Value{row.run_id},  Value{row.path},    Value{row.seq},
                   Value{row.kind},    Value{row.node_id}, Value{row.detail},
                   Value{row.time},    Value{row.latency}};
  return table->insert(cells);
}

std::vector<ProvenanceRow> ExperimentPackage::provenance() const {
  const Table* table = db_.table("Provenance");
  std::vector<ProvenanceRow> out;
  if (!table) return out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    ProvenanceRow step;
    step.run_id = row.as_int(0);
    step.path = row.as_int(1);
    step.seq = row.as_int(2);
    step.kind = std::string(row.as_string(3));
    step.node_id = std::string(row.as_string(4));
    step.detail = row.is_null(5) ? "" : std::string(row.as_string(5));
    step.time = row.as_double(6);
    step.latency = row.as_double(7);
    out.push_back(std::move(step));
  }
  return out;
}

std::vector<MetricRow> ExperimentPackage::metrics() const {
  const Table* table = db_.table("Metrics");
  std::vector<MetricRow> out;
  if (!table) return out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    MetricRow metric;
    metric.run_id = row.as_int(0);
    metric.name = std::string(row.as_string(1));
    metric.value = row.as_double(2);
    out.push_back(std::move(metric));
  }
  return out;
}

namespace {
EventRow event_from_row(const RowView& row) {
  EventRow event;
  event.run_id = row.as_int(0);
  event.node_id = std::string(row.as_string(1));
  event.common_time = row.as_double(2);
  event.event_type = std::string(row.as_string(3));
  event.parameter = row.is_null(4) ? "" : std::string(row.as_string(4));
  return event;
}
PacketRow packet_from_row(const RowView& row) {
  PacketRow packet;
  packet.run_id = row.as_int(0);
  packet.node_id = std::string(row.as_string(1));
  packet.common_time = row.as_double(2);
  packet.src_node_id = std::string(row.as_string(3));
  packet.data = row.as_bytes(4);
  return packet;
}
}  // namespace

Result<std::vector<EventRow>> ExperimentPackage::events(
    std::int64_t run_id) const {
  std::vector<RowView> rows = events_->select_equals("RunID", Value{run_id});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<EventRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(event_from_row(row));
  return out;
}

Result<std::vector<EventRow>> ExperimentPackage::all_events() const {
  std::vector<RowView> rows;
  rows.reserve(events_->row_count());
  for (std::size_t r = 0; r < events_->row_count(); ++r) {
    rows.push_back(events_->row(r));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     if (a.as_int(0) != b.as_int(0)) {
                       return a.as_int(0) < b.as_int(0);
                     }
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<EventRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(event_from_row(row));
  return out;
}

Result<std::vector<PacketRow>> ExperimentPackage::packets(
    std::int64_t run_id) const {
  std::vector<RowView> rows = packets_->select_equals("RunID", Value{run_id});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<PacketRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(packet_from_row(row));
  return out;
}

Result<std::vector<RunInfoRow>> ExperimentPackage::run_infos() const {
  const Table* table = db_.table("RunInfos");
  std::vector<RunInfoRow> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    RunInfoRow info;
    info.run_id = row.as_int(0);
    info.node_id = std::string(row.as_string(1));
    info.start_time = row.as_double(2);
    info.time_diff = row.as_double(3);
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::int64_t> ExperimentPackage::run_ids() const {
  const Table* table = db_.table("RunInfos");
  std::vector<std::int64_t> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    out.push_back(table->row(r).as_int(0));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string ExperimentPackage::log_for(const std::string& node_id) const {
  const Table* table = db_.table("Logs");
  std::vector<RowView> rows = table->select_equals("NodeID", Value{node_id});
  std::string out;
  for (const RowView& row : rows) out += row.as_string(1);
  return out;
}

std::size_t ExperimentPackage::event_count() const {
  return events_->row_count();
}

std::size_t ExperimentPackage::packet_count() const {
  return packets_->row_count();
}

}  // namespace excovery::storage
