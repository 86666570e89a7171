// A typed in-memory relational table with columnar storage.
//
// Together with Database this is the stand-in for the prototype's SQLite
// third-level store (§IV-F): typed columns, insertion, predicate scans and
// ordered iteration, serialisable into a single binary package.  The query
// surface is the small subset the paper's "reusable data access functions"
// need — not a SQL engine.
//
// Layout: one typed vector per column.  Int/double/bool columns are flat
// POD vectors with a one-byte-per-row cell tag (null / int / double);
// string columns store u32 ids into a per-table interning pool; columns of
// any other declared type (bytes, array, map) fall back to a plain Value
// vector.  Rows are materialised on demand through RowView, a cheap
// (pointer, index) cursor — callers that need whole Values still get them,
// hot paths read typed cells without boxing.
//
// Queries are accelerated by lazily built, mutation-maintained structures:
// `select_equals`/`count_equals` build a per-column hash index on first use
// (kept incrementally up to date by `insert`), and `order_by` caches the
// sort permutation per column (invalidated by `insert`).  Both reproduce
// the exact result order and Value comparison semantics of a linear
// predicate scan.
//
// RowViews (and string_views handed out by them) are invalidated by any
// mutation of the table, exactly like the row pointers of the previous
// row-oriented implementation.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery::storage {

/// Column definition.
struct Column {
  std::string name;
  ValueType type = ValueType::kString;
  bool nullable = true;
};

/// Table definition.
struct TableSchema {
  std::string name;
  std::vector<Column> columns;

  /// Index of a column by name, or nullopt.
  std::optional<std::size_t> column_index(std::string_view name) const;
};

using Row = ValueArray;

class Table;

/// A cheap cursor to one row of a columnar table.  Cells materialise to
/// Value through operator[]; the typed accessors read the column storage
/// directly (they assert on kind mismatch, like Value's accessors).
class RowView {
 public:
  RowView() = default;

  std::size_t index() const noexcept { return row_; }
  std::size_t size() const noexcept;  ///< arity (number of columns)

  bool is_null(std::size_t column) const;
  /// Materialise one cell as a Value.
  Value operator[](std::size_t column) const;
  /// Materialise the whole row.
  Row materialize() const;

  std::int64_t as_int(std::size_t column) const;
  /// Numeric read; widens int cells like Value::as_double.
  double as_double(std::size_t column) const;
  bool as_bool(std::size_t column) const;
  /// View into the table's interning pool; valid until the next mutation.
  std::string_view as_string(std::size_t column) const;
  const Bytes& as_bytes(std::size_t column) const;

 private:
  friend class Table;
  RowView(const Table* table, std::uint32_t row) : table_(table), row_(row) {}

  const Table* table_ = nullptr;
  std::uint32_t row_ = 0;
};

using RowPredicate = std::function<bool(const RowView&)>;

class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const noexcept { return schema_; }
  const std::string& name() const noexcept { return schema_.name; }
  std::size_t row_count() const noexcept { return row_count_; }

  /// Cursor to row `index` (unchecked, like vector indexing).
  RowView row(std::size_t index) const {
    return RowView(this, static_cast<std::uint32_t>(index));
  }

  /// Insert a row, moving its cells into the table; arity and types are
  /// checked (null allowed if nullable).  A rejected row is left untouched.
  /// Writers that build rows in a stack array pass it here directly, so an
  /// insert needs no heap row.
  Status insert(std::span<Value> row);
  /// The same insert for brace lists and owned rows.
  Status insert(Row row) { return insert(std::span<Value>(row)); }

  /// Rows matching a predicate (linear scan, insertion order).
  std::vector<RowView> select(const RowPredicate& predicate) const;
  /// Rows where column == value (hash-indexed; insertion order).
  std::vector<RowView> select_equals(std::string_view column,
                                     const Value& value) const;
  /// All rows ordered ascending by a column (stable; cached permutation).
  Result<std::vector<RowView>> order_by(std::string_view column) const;

  /// Count of rows matching column == value (hash-indexed).
  std::size_t count_equals(std::string_view column, const Value& value) const;

  /// Column value of a row by name (checked).
  Result<Value> cell(const RowView& row, std::string_view column) const;

  void clear();
  /// Make room for `rows` rows in every column lane, so a bulk writer that
  /// knows its row count fills the table without regrowing it.
  void reserve(std::size_t rows);

  // ---- column-block serialisation (used by Database) ---------------------
  /// Append the interning dictionary plus one length-prefixed block per
  /// column to `writer`.
  void serialize_columns(ByteWriter& writer) const;
  /// Read back `rows` rows worth of column blocks; validates tags, string
  /// ids and nullability against the schema.
  Status deserialize_columns(ByteReader& reader, std::uint64_t rows);

 private:
  friend class RowView;

  /// Physical representation chosen from the declared column type.
  enum class ColumnKind : std::uint8_t {
    kInt64 = 0,
    kFloat64 = 1,
    kBool = 2,
    kString = 3,
    kGeneric = 4,
  };

  // Per-row cell tags for POD columns.
  static constexpr std::uint8_t kTagNull = 0;
  static constexpr std::uint8_t kTagValue = 1;   // int64 / bool lane
  static constexpr std::uint8_t kTagDouble = 2;  // double lane (kFloat64)
  static constexpr std::uint32_t kNullStringId = 0xFFFFFFFFu;

  /// Exact identity of a cell for hash lookups: the Value type discriminator
  /// plus a canonical 64-bit image of the content (string cells use the
  /// interned id; -0.0 is normalised to 0.0 to match Value equality).
  struct CellKey {
    std::uint8_t tag = 0;
    std::uint64_t bits = 0;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& key) const noexcept;
  };
  using HashIndex =
      std::unordered_map<CellKey, std::vector<std::uint32_t>, CellKeyHash>;

  struct ColumnStore {
    ColumnKind kind = ColumnKind::kGeneric;
    std::vector<std::uint8_t> tags;     // kInt64/kFloat64/kBool
    std::vector<std::int64_t> i64;      // kInt64 values; kFloat64 int lane
    std::vector<double> f64;            // kFloat64 double lane
    std::vector<std::uint8_t> b8;       // kBool values
    std::vector<std::uint32_t> str;     // kString interned ids
    // Id of the string this column interned last: consecutive rows often
    // repeat a string (a node id within one node's rows), and the check
    // spares the pool lookup.
    std::uint32_t last_interned = kNullStringId;
    std::vector<Value> generic;         // kGeneric cells
    // Lazily built acceleration structures.  The hash index is maintained
    // incrementally by insert(); the sort permutation is dropped on any
    // mutation and rebuilt on the next order_by.
    mutable std::optional<HashIndex> hash_index;
    mutable std::optional<std::vector<std::uint32_t>> sort_permutation;
  };

  static ColumnKind kind_for(ValueType type) noexcept;

  std::uint32_t intern(ColumnStore& store, std::string_view text);
  /// Key of the cell at (column, row).
  CellKey key_at(const ColumnStore& store, std::uint32_t row) const;
  /// Key a probe value would have in this column, or nullopt if no cell of
  /// the column can ever equal it (wrong type, unknown string, NaN).
  std::optional<CellKey> probe_key(const ColumnStore& store,
                                   const Value& value) const;
  const HashIndex& ensure_hash_index(const ColumnStore& store) const;
  const std::vector<std::uint32_t>& ensure_sort_permutation(
      std::size_t column) const;
  Value cell_value(std::size_t column, std::uint32_t row) const;
  /// Exactly Value::operator< on the materialised cells, without boxing.
  bool cell_less(const ColumnStore& store, std::uint32_t a,
                 std::uint32_t b) const;

  TableSchema schema_;
  std::vector<ColumnStore> columns_;
  std::size_t row_count_ = 0;
  /// Hashes std::string and std::string_view alike, so a pool lookup by
  /// view builds no temporary string.
  struct PoolHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::vector<std::string> pool_;  // interned strings, id = position
  std::unordered_map<std::string, std::uint32_t, PoolHash, std::equal_to<>>
      pool_ids_;
};

// ---- RowView typed accessors (inline: the analysis scans call them per
// cell) ------------------------------------------------------------------------

inline std::size_t RowView::size() const noexcept {
  return table_->schema_.columns.size();
}

inline bool RowView::is_null(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  switch (store.kind) {
    case Table::ColumnKind::kInt64:
    case Table::ColumnKind::kFloat64:
    case Table::ColumnKind::kBool:
      return store.tags[row_] == Table::kTagNull;
    case Table::ColumnKind::kString:
      return store.str[row_] == Table::kNullStringId;
    case Table::ColumnKind::kGeneric:
      return store.generic[row_].is_null();
  }
  return true;
}

inline std::int64_t RowView::as_int(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kInt64 &&
         store.tags[row_] == Table::kTagValue);
  return store.i64[row_];
}

inline double RowView::as_double(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  if (store.kind == Table::ColumnKind::kFloat64) {
    assert(store.tags[row_] != Table::kTagNull);
    // The f64 lane always carries the widened value, also for int cells.
    return store.f64[row_];
  }
  assert(store.kind == Table::ColumnKind::kInt64 &&
         store.tags[row_] == Table::kTagValue);
  return static_cast<double>(store.i64[row_]);
}

inline bool RowView::as_bool(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kBool &&
         store.tags[row_] == Table::kTagValue);
  return store.b8[row_] != 0;
}

inline std::string_view RowView::as_string(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kString &&
         store.str[row_] != Table::kNullStringId);
  return table_->pool_[store.str[row_]];
}

inline const Bytes& RowView::as_bytes(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kGeneric);
  return store.generic[row_].as_bytes();
}

}  // namespace excovery::storage
