#include "storage/database.hpp"

#include <cstdio>
#include <memory>

#include "common/bytes.hpp"

namespace excovery::storage {

namespace {
constexpr std::uint32_t kMagic = 0x45584342;  // "EXCB"
// Version 2: columnar blocks with a per-table interned-string dictionary.
constexpr std::uint16_t kFormatVersion = 2;
}  // namespace

Result<Table*> Database::create_table(TableSchema schema) {
  if (tables_.find(schema.name) != tables_.end()) {
    return err_state("table '" + schema.name + "' already exists");
  }
  if (schema.columns.empty()) {
    return err_invalid("table '" + schema.name + "' needs columns");
  }
  std::string name = schema.name;
  auto table = std::make_unique<Table>(std::move(schema));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  order_.push_back(std::move(name));
  return raw;
}

Table* Database::table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<Table*> Database::require_table(const std::string& name) {
  Table* t = table(name);
  if (!t) return err_not_found("no table '" + name + "'");
  return t;
}

std::vector<std::string> Database::table_names() const { return order_; }

std::string Database::schema_description() const {
  std::string out;
  for (const std::string& name : order_) {
    const Table* t = table(name);
    out += name;
    out += " | ";
    bool first = true;
    for (const Column& column : t->schema().columns) {
      if (!first) out += ", ";
      first = false;
      out += column.name;
    }
    out += "\n";
  }
  return out;
}

Bytes Database::serialize() const {
  auto write_image = [this](ByteWriter& w) {
    w.u32(kMagic);
    w.u16(kFormatVersion);
    w.u32(static_cast<std::uint32_t>(order_.size()));
    for (const std::string& name : order_) {
      const Table* t = table(name);
      w.string(name);
      w.u16(static_cast<std::uint16_t>(t->schema().columns.size()));
      for (const Column& column : t->schema().columns) {
        w.string(column.name);
        w.u8(static_cast<std::uint8_t>(column.type));
        w.u8(column.nullable ? 1 : 0);
      }
      w.u64(t->row_count());
      t->serialize_columns(w);
    }
  };
  // The same write code runs twice: a counting pass sizes the image, so the
  // real pass writes a multi-megabyte package into one allocation instead
  // of regrowing (and copying) its buffer some twenty times.
  ByteWriter counter = ByteWriter::counting();
  write_image(counter);
  ByteWriter w;
  w.reserve(counter.size());
  write_image(w);
  return w.take();
}

namespace {

Result<TableSchema> read_schema(ByteReader& r) {
  TableSchema schema;
  EXC_ASSIGN_OR_RETURN(schema.name, r.string());
  EXC_ASSIGN_OR_RETURN(std::uint16_t column_count, r.u16());
  for (std::uint16_t c = 0; c < column_count; ++c) {
    Column column;
    EXC_ASSIGN_OR_RETURN(column.name, r.string());
    EXC_ASSIGN_OR_RETURN(std::uint8_t type, r.u8());
    column.type = static_cast<ValueType>(type);
    EXC_ASSIGN_OR_RETURN(std::uint8_t nullable, r.u8());
    column.nullable = nullable != 0;
    schema.columns.push_back(std::move(column));
  }
  return schema;
}

}  // namespace

Result<Database> Database::deserialize(const Bytes& data) {
  ByteReader r(data);
  EXC_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kMagic) return err_io("not an ExCovery database file");
  EXC_ASSIGN_OR_RETURN(std::uint16_t version, r.u16());
  if (version != kFormatVersion) {
    return err_io("unsupported database format version " +
                  std::to_string(version));
  }
  Database db;
  EXC_ASSIGN_OR_RETURN(std::uint32_t table_count, r.u32());
  for (std::uint32_t i = 0; i < table_count; ++i) {
    EXC_ASSIGN_OR_RETURN(TableSchema schema, read_schema(r));
    EXC_ASSIGN_OR_RETURN(Table * t, db.create_table(std::move(schema)));
    EXC_ASSIGN_OR_RETURN(std::uint64_t row_count, r.u64());
    EXC_TRY(t->deserialize_columns(r, row_count));
  }
  return db;
}

Status Database::save(const std::string& path) const {
  Bytes data = serialize();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) return err_io("cannot open '" + path + "' for writing");
  std::size_t written = std::fwrite(data.data(), 1, data.size(), file);
  int close_rc = std::fclose(file);
  if (written != data.size() || close_rc != 0) {
    return err_io("short write to '" + path + "'");
  }
  return {};
}

Result<Database> Database::load(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return err_io("cannot open '" + path + "' for reading");
  // Size the buffer once from the file length so a package load is a single
  // allocation and a single read; the chunked tail loop only runs if the
  // file grows between the seek and the read (or the size was unavailable).
  Bytes data;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    long size = std::ftell(file);
    if (size > 0) data.reserve(static_cast<std::size_t>(size));
    std::rewind(file);
  }
  std::uint8_t buffer[64 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    data.insert(data.end(), buffer, buffer + n);
  }
  std::fclose(file);
  return deserialize(data);
}

}  // namespace excovery::storage
