// Unit tests for the storage module: tables, database files, the Table I
// package, level-2 stores, conditioning and the level-4 repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "common/strings.hpp"
#include "stats/analysis.hpp"
#include "storage/conditioning.hpp"
#include "storage/database.hpp"
#include "storage/level2.hpp"
#include "storage/package.hpp"
#include "storage/repository.hpp"

namespace excovery::storage {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("excovery-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter = 0;
};

// ---- Table ---------------------------------------------------------------------

TableSchema point_schema() {
  return {"Points",
          {{"Id", ValueType::kInt, false},
           {"Label", ValueType::kString, true},
           {"X", ValueType::kDouble, false}}};
}

TEST(Table, InsertEnforcesArityAndTypes) {
  Table table(point_schema());
  EXPECT_TRUE(table.insert({Value{1}, Value{"a"}, Value{0.5}}).ok());
  EXPECT_TRUE(table.insert({Value{2}, Value{}, Value{1.5}}).ok());  // null ok
  EXPECT_FALSE(table.insert({Value{3}, Value{"b"}}).ok());          // arity
  EXPECT_FALSE(table.insert({Value{"x"}, Value{"b"}, Value{0.1}}).ok());
  EXPECT_FALSE(table.insert({Value{}, Value{"b"}, Value{0.1}}).ok());  // null id
  // Int widens into double columns.
  EXPECT_TRUE(table.insert({Value{4}, Value{"c"}, Value{2}}).ok());
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(Table, SelectAndCount) {
  Table table(point_schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .insert({Value{i}, Value{i % 2 ? "odd" : "even"},
                             Value{i * 0.5}})
                    .ok());
  }
  EXPECT_EQ(table.select_equals("Label", Value{"odd"}).size(), 5u);
  EXPECT_EQ(table.count_equals("Label", Value{"even"}), 5u);
  EXPECT_EQ(
      table.select([](const RowView& row) { return row.as_int(0) > 6; })
          .size(),
      3u);
  EXPECT_TRUE(table.select_equals("Missing", Value{1}).empty());
}

TEST(Table, OrderByIsStableAndChecked) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{3}, Value{"c"}, Value{1.0}}).ok());
  ASSERT_TRUE(table.insert({Value{1}, Value{"a"}, Value{2.0}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{"b"}, Value{3.0}}).ok());
  Result<std::vector<RowView>> ordered = table.order_by("Id");
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered.value()[0].as_int(0), 1);
  EXPECT_EQ(ordered.value()[2].as_int(0), 3);
  EXPECT_FALSE(table.order_by("Nope").ok());
}

TEST(Table, CellAccessByName) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{"a"}, Value{0.5}}).ok());
  Result<Value> cell = table.cell(table.row(0), "X");
  ASSERT_TRUE(cell.ok());
  EXPECT_DOUBLE_EQ(cell.value().as_double(), 0.5);
  EXPECT_FALSE(table.cell(table.row(0), "Nope").ok());
}

TEST(Table, IndexedQueriesMatchPredicateScanAfterInterleavedInserts) {
  Table table(point_schema());
  // Reference implementations through the plain predicate scan.
  auto scan_equals = [&](std::string_view column, const Value& value) {
    std::size_t col = *table.schema().column_index(column);
    std::vector<std::size_t> out;
    for (const RowView& view : table.select(
             [&](const RowView& row) { return row[col] == value; })) {
      out.push_back(view.index());
    }
    return out;
  };
  auto indexed_equals = [&](std::string_view column, const Value& value) {
    std::vector<std::size_t> out;
    for (const RowView& view : table.select_equals(column, value)) {
      out.push_back(view.index());
    }
    return out;
  };
  // Interleave inserts with queries so the lazily built index goes through
  // incremental maintenance, not one bulk build at the end.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(table
                    .insert({Value{i % 7}, Value{i % 3 ? "a" : "b"},
                             Value{static_cast<double>((i * 13) % 60)}})
                    .ok());
    if (i % 12 == 5) {
      for (int probe = 0; probe < 8; ++probe) {
        EXPECT_EQ(indexed_equals("Id", Value{probe}),
                  scan_equals("Id", Value{probe}));
      }
      EXPECT_EQ(indexed_equals("Label", Value{"a"}),
                scan_equals("Label", Value{"a"}));
      EXPECT_EQ(table.count_equals("Label", Value{"b"}),
                scan_equals("Label", Value{"b"}).size());
      // Probes that can never match: wrong type, unknown string.
      EXPECT_TRUE(table.select_equals("Id", Value{"a"}).empty());
      EXPECT_TRUE(table.select_equals("Label", Value{"nope"}).empty());
    }
  }
  // order_by equals a manual stable sort through Value comparison, also
  // after an insert invalidated a previously cached permutation.
  for (int round = 0; round < 2; ++round) {
    Result<std::vector<RowView>> ordered = table.order_by("X");
    ASSERT_TRUE(ordered.ok());
    std::vector<std::size_t> expected(table.row_count());
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return table.row(a)[2] < table.row(b)[2];
                     });
    ASSERT_EQ(ordered.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ordered.value()[i].index(), expected[i]);
    }
    ASSERT_TRUE(table.insert({Value{99}, Value{"z"}, Value{-1.0}}).ok());
  }
}

TEST(Table, DoubleColumnPreservesIntCells) {
  // The insert type check accepts ints in double columns without
  // converting the stored Value; equality and ordering stay type-exact.
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{}, Value{2}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{}, Value{2.0}}).ok());
  EXPECT_TRUE(table.row(0)[2].is_int());
  EXPECT_TRUE(table.row(1)[2].is_double());
  EXPECT_DOUBLE_EQ(table.row(0).as_double(2), 2.0);  // typed read widens
  // Indexed lookups distinguish Value{2} from Value{2.0}, like Value==.
  ASSERT_EQ(table.select_equals("X", Value{2}).size(), 1u);
  EXPECT_EQ(table.select_equals("X", Value{2})[0].index(), 0u);
  ASSERT_EQ(table.select_equals("X", Value{2.0}).size(), 1u);
  EXPECT_EQ(table.select_equals("X", Value{2.0})[0].index(), 1u);
}

TEST(Table, NegativeZeroMatchesPositiveZero) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{}, Value{-0.0}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{}, Value{0.0}}).ok());
  // IEEE: -0.0 == 0.0, so both probes hit both rows.
  EXPECT_EQ(table.select_equals("X", Value{0.0}).size(), 2u);
  EXPECT_EQ(table.count_equals("X", Value{-0.0}), 2u);
}

TEST(Table, SpanInsertMovesCellsAndLeavesRejectedRowsIntact) {
  Table table({"Blobs",
               {{"ID", ValueType::kInt, false},
                {"Data", ValueType::kBytes, false}}});
  Value rejected[] = {Value{"not an int"}, Value{Bytes{1, 2, 3}}};
  EXPECT_FALSE(table.insert(rejected).ok());
  EXPECT_EQ(rejected[1], (Value{Bytes{1, 2, 3}}));  // not moved from
  EXPECT_EQ(table.row_count(), 0u);

  Value accepted[] = {Value{7}, Value{Bytes{4, 5}}};
  ASSERT_TRUE(table.insert(accepted).ok());
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.row(0).as_int(0), 7);
  EXPECT_EQ(table.row(0).as_bytes(1), (Bytes{4, 5}));
}

// ---- Database ------------------------------------------------------------------

TEST(Database, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.create_table(point_schema()).ok());
  EXPECT_FALSE(db.create_table(point_schema()).ok());  // duplicate
  EXPECT_FALSE(db.create_table({"Empty", {}}).ok());   // no columns
  EXPECT_NE(db.table("Points"), nullptr);
  EXPECT_EQ(db.table("Nope"), nullptr);
  EXPECT_TRUE(db.require_table("Points").ok());
  EXPECT_FALSE(db.require_table("Nope").ok());
}

TEST(Database, SerializeRoundTrip) {
  Database db;
  Table* table = db.create_table(point_schema()).value();
  ASSERT_TRUE(table->insert({Value{1}, Value{"x"}, Value{2.5}}).ok());
  ASSERT_TRUE(table->insert({Value{2}, Value{}, Value{-1.0}}).ok());

  Result<Database> back = Database::deserialize(db.serialize());
  ASSERT_TRUE(back.ok());
  const Table* restored = back.value().table("Points");
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->row_count(), 2u);
  EXPECT_EQ(restored->row(0).materialize(), table->row(0).materialize());
  EXPECT_EQ(restored->row(1).materialize(), table->row(1).materialize());
  EXPECT_EQ(restored->schema().columns.size(), 3u);
}

TEST(Database, SaveLoadFile) {
  TempDir dir;
  std::string path = (dir.path / "test.excovery").string();
  Database db;
  Table* table = db.create_table(point_schema()).value();
  ASSERT_TRUE(table->insert({Value{7}, Value{"seven"}, Value{7.7}}).ok());
  ASSERT_TRUE(db.save(path).ok());

  Result<Database> loaded = Database::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().table("Points")->row_count(), 1u);

  EXPECT_FALSE(Database::load((dir.path / "missing").string()).ok());
}

TEST(Database, CorruptFileRejected) {
  Bytes garbage{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(Database::deserialize(garbage).ok());
  Bytes truncated = [] {
    Database db;
    (void)db.create_table(point_schema());
    return db.serialize();
  }();
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(Database::deserialize(truncated).ok());
}

TEST(Database, RoundTripEveryValueType) {
  Database db;
  Table* t = db.create_table({"Everything",
                              {{"I", ValueType::kInt, true},
                               {"D", ValueType::kDouble, true},
                               {"B", ValueType::kBool, true},
                               {"S", ValueType::kString, true},
                               {"Y", ValueType::kBytes, true},
                               {"A", ValueType::kArray, true},
                               {"M", ValueType::kMap, true}}})
                 .value();
  ValueArray array{Value{1}, Value{"two"}, Value{}};
  ValueMap map;
  map.emplace("k", Value{3.5});
  ASSERT_TRUE(t->insert({Value{-42}, Value{2.5}, Value{true}, Value{"text"},
                         Value{Bytes{0, 255, 7}}, Value{array}, Value{map}})
                  .ok());
  // A row of nothing but nulls.
  ASSERT_TRUE(t->insert({Value{}, Value{}, Value{}, Value{}, Value{},
                         Value{}, Value{}})
                  .ok());
  // Edge cells: int stored in a double column, empty string/bytes/array/map.
  ASSERT_TRUE(t->insert({Value{1}, Value{3}, Value{false}, Value{""},
                         Value{Bytes{}}, Value{ValueArray{}},
                         Value{ValueMap{}}})
                  .ok());
  ASSERT_TRUE(db.create_table({"Empty", {{"Only", ValueType::kString, true}}})
                  .ok());

  Result<Database> back = Database::deserialize(db.serialize());
  ASSERT_TRUE(back.ok());
  const Table* restored = back.value().table("Everything");
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->row_count(), 3u);
  for (std::size_t r = 0; r < restored->row_count(); ++r) {
    EXPECT_EQ(restored->row(r).materialize(), t->row(r).materialize());
  }
  // The int-in-double cell survives as a typed int Value.
  EXPECT_TRUE(restored->row(2)[1].is_int());
  ASSERT_NE(back.value().table("Empty"), nullptr);
  EXPECT_EQ(back.value().table("Empty")->row_count(), 0u);
}

TEST(Database, MixedColumnsRoundTripByteForByte) {
  Database db;
  Table* t = db.create_table({"Mixed",
                              {{"I", ValueType::kInt, true},
                               {"D", ValueType::kDouble, true},
                               {"S", ValueType::kString, true},
                               {"Y", ValueType::kBytes, true}}})
                 .value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t->insert({i % 3 ? Value{i} : Value{},
                           i % 2 ? Value{i * 0.5} : Value{i},
                           Value{i % 4 ? "s" : "longer than inline"},
                           Value{Bytes(static_cast<std::size_t>(i), 1)}})
                    .ok());
  }
  // Null, int-in-double, short and long string and variable-length bytes
  // cells all pass through the back-patched column blocks, and the
  // counting pass sizes the image exactly.
  const Bytes image = db.serialize();
  EXPECT_EQ(image.capacity(), image.size());
  Result<Database> back = Database::deserialize(image);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serialize(), image);
}

TEST(Database, SerializationIsDeterministic) {
  Database db;
  Table* t = db.create_table(point_schema()).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        t->insert({Value{i}, Value{i % 2 ? "x" : "y"}, Value{i * 0.25}}).ok());
  }
  Bytes first = db.serialize();
  // Building query indexes must not change the serialised image.
  (void)t->select_equals("Label", Value{"x"});
  (void)t->order_by("X");
  EXPECT_EQ(db.serialize(), first);
}

TEST(Database, LegacyV1FormatRejected) {
  // Version 1 (cell-by-cell tagged Values) is no longer read: a v1 header
  // fails cleanly with the version in the message.
  ByteWriter w;
  w.u32(0x45584342);  // magic
  w.u16(1);           // retired version
  w.u32(1);           // one table
  w.string("Points");
  w.u16(1);
  w.string("Id");
  w.u8(static_cast<std::uint8_t>(ValueType::kInt));
  w.u8(0);
  w.u64(1);
  w.value(Value{1});

  Result<Database> db = Database::deserialize(w.take());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.error().code(), ErrorCode::kIo);
  EXPECT_NE(db.error().message().find("version 1"), std::string::npos)
      << db.error().to_string();
}

TEST(Database, CorruptLengthPrefixesRejected) {
  // An array count larger than the input is an error, not an allocation.
  const Bytes array_header = {static_cast<std::uint8_t>(ValueType::kArray),
                              0xff, 0xff, 0xff, 0xff};
  ByteReader reader(array_header);
  Result<Value> value = reader.value();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code(), ErrorCode::kIo);

  // A one-row table whose row count is patched to 2^44, for the string and
  // the generic column store (numeric stores already bound-check the read).
  for (ValueType type : {ValueType::kString, ValueType::kBytes}) {
    Database db;
    Table* t = db.create_table({"T", {{"C", type, false}}}).value();
    ASSERT_TRUE(t->insert({type == ValueType::kString ? Value{"x"}
                                                      : Value{Bytes{7}}})
                    .ok());
    Bytes image = db.serialize();
    ASSERT_TRUE(Database::deserialize(image).ok());
    // The row count follows the header and the one-column schema.
    ByteWriter header;
    header.u32(0x45584342);
    header.u16(2);
    header.u32(1);
    header.string("T");
    header.u16(1);
    header.string("C");
    header.u8(static_cast<std::uint8_t>(type));
    header.u8(0);
    const std::size_t offset = header.take().size();
    ByteWriter rows;
    rows.u64(std::uint64_t{1} << 44);
    const Bytes patch = rows.take();
    ASSERT_LE(offset + patch.size(), image.size());
    std::copy(patch.begin(), patch.end(),
              image.begin() + static_cast<std::ptrdiff_t>(offset));
    Result<Database> bad = Database::deserialize(image);
    ASSERT_FALSE(bad.ok()) << to_string(type);
    EXPECT_EQ(bad.error().code(), ErrorCode::kIo) << bad.error().to_string();
  }
}

TEST(Database, CorruptV2ImagesRejected) {
  // Unsupported version.
  ByteWriter w;
  w.u32(0x45584342);
  w.u16(9);
  w.u32(0);
  EXPECT_FALSE(Database::deserialize(w.take()).ok());

  Database db;
  Table* t = db.create_table(point_schema()).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->insert({Value{i}, Value{"s"}, Value{1.0 * i}}).ok());
  }
  Bytes good = db.serialize();
  ASSERT_TRUE(Database::deserialize(good).ok());
  // Truncation anywhere — header, schema, or inside the column blocks.
  for (std::size_t cut :
       {good.size() - 1, good.size() - 9, good.size() / 2, std::size_t{5}}) {
    Bytes bad(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Database::deserialize(bad).ok()) << "cut at " << cut;
  }
  // Flipped magic.
  Bytes flipped = good;
  flipped[0] ^= 0xFF;
  EXPECT_FALSE(Database::deserialize(flipped).ok());
}

/// `levels` nested one-element arrays around a null, in ByteWriter::value
/// format, written directly so no deep Value is ever built.
Bytes nested_arrays(int levels) {
  ByteWriter w;
  for (int i = 0; i < levels; ++i) {
    w.u8(static_cast<std::uint8_t>(ValueType::kArray));
    w.u32(1);
  }
  w.u8(static_cast<std::uint8_t>(ValueType::kNull));
  return w.take();
}

TEST(Database, DeeplyNestedCellRejected) {
  // A one-row array column; its column block is the image's tail: u64 size,
  // kind byte, then the cell.
  Database db;
  Table* t = db.create_table({"Nested", {{"A", ValueType::kArray, true}}})
                 .value();
  ASSERT_TRUE(t->insert({Value{ValueArray{}}}).ok());
  Bytes good = db.serialize();
  ASSERT_TRUE(Database::deserialize(good).ok());
  ByteWriter empty_cell;
  empty_cell.value(Value{ValueArray{}});
  const std::size_t tail = 8 + 1 + empty_cell.size();
  const std::uint8_t kind = good[good.size() - empty_cell.size() - 1];

  // 10^6 levels used to recurse until the stack overflowed.
  const Bytes bomb = nested_arrays(1'000'000);
  ByteWriter image;
  image.raw(good.data(), good.size() - tail);
  image.u64(1 + bomb.size());
  image.u8(kind);
  image.raw(bomb.data(), bomb.size());
  Result<Database> back = Database::deserialize(image.take());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), ErrorCode::kIo) << back.error().to_string();

  ByteReader reader(bomb);
  Result<Value> value = reader.value();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code(), ErrorCode::kIo);

  // Up to the bound, nesting still decodes.
  const Bytes deepest = nested_arrays(ByteReader::kMaxValueDepth);
  ByteReader ok_reader(deepest);
  EXPECT_TRUE(ok_reader.value().ok());
  EXPECT_TRUE(ok_reader.exhausted());
  const Bytes too_deep = nested_arrays(ByteReader::kMaxValueDepth + 1);
  ByteReader deep_reader(too_deep);
  EXPECT_FALSE(deep_reader.value().ok());
}

// ---- ExperimentPackage (Table I) ----------------------------------------------------

TEST(Package, SchemaMatchesTableI) {
  ExperimentPackage package;
  // The eight tables of the paper's Table I, in order, plus the Metrics and
  // Provenance extensions (out-of-band observability data; not required on
  // load, so legacy packages still open).
  EXPECT_EQ(package.database().table_names(),
            (std::vector<std::string>{
                "ExperimentInfo", "Logs", "EEFiles", "ExperimentMeasurements",
                "RunInfos", "ExtraRunMeasurements", "Events", "Packets",
                "Metrics", "Provenance"}));
  std::string schema = package.database().schema_description();
  EXPECT_NE(schema.find("ExperimentInfo | ExpXML, EEVersion, Name, Comment"),
            std::string::npos);
  EXPECT_NE(schema.find(
                "Events | RunID, NodeID, CommonTime, EventType, Parameter"),
            std::string::npos);
  EXPECT_NE(
      schema.find("Packets | RunID, NodeID, CommonTime, SrcNodeID, Data"),
      std::string::npos);
  EXPECT_NE(schema.find("RunInfos | RunID, NodeID, StartTime, TimeDiff"),
            std::string::npos);
}

TEST(Package, ExperimentInfoIsSingleTuple) {
  ExperimentPackage package;
  EXPECT_FALSE(package.description_xml().ok());  // not set yet
  ASSERT_TRUE(package.set_experiment_info("<experiment/>", "exp", "c").ok());
  EXPECT_FALSE(package.set_experiment_info("<x/>", "again", "").ok());
  EXPECT_EQ(package.description_xml().value(), "<experiment/>");
  EXPECT_EQ(package.experiment_name().value(), "exp");
  EXPECT_EQ(package.ee_version().value(), kEeVersion);
}

TEST(Package, EventAndPacketReadersSortByTime) {
  ExperimentPackage package;
  ASSERT_TRUE(package.add_event({1, "B", 2.0, "late", ""}).ok());
  ASSERT_TRUE(package.add_event({1, "A", 1.0, "early", ""}).ok());
  ASSERT_TRUE(package.add_event({2, "A", 0.5, "other_run", ""}).ok());
  ASSERT_TRUE(package.add_run_info({1, "A", 0.0, 0.001}).ok());
  ASSERT_TRUE(package.add_run_info({2, "A", 5.0, 0.002}).ok());

  Result<std::vector<EventRow>> run1 = package.events(1);
  ASSERT_TRUE(run1.ok());
  ASSERT_EQ(run1.value().size(), 2u);
  EXPECT_EQ(run1.value()[0].event_type, "early");
  EXPECT_EQ(run1.value()[1].event_type, "late");

  Result<std::vector<EventRow>> all = package.all_events();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value()[2].event_type, "other_run");

  EXPECT_EQ(package.run_ids(), (std::vector<std::int64_t>{1, 2}));
}

TEST(Package, SaveLoadPreservesEverything) {
  TempDir dir;
  std::string path = (dir.path / "exp.excovery").string();
  ExperimentPackage package;
  ASSERT_TRUE(package.set_experiment_info("<e/>", "n", "c").ok());
  ASSERT_TRUE(package.add_log("SU0", "log text").ok());
  ASSERT_TRUE(package.add_ee_file("master.bin", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(package.add_experiment_measurement(1, "env", "topo", "a b 1").ok());
  ASSERT_TRUE(package.add_run_info({1, "SU0", 0.0, -0.004}).ok());
  ASSERT_TRUE(package.add_extra_run_measurement(1, "SU0", "plugin/x", "7").ok());
  ASSERT_TRUE(package.add_event({1, "SU0", 0.5, "sd_start_search", "_t"}).ok());
  ASSERT_TRUE(package.add_packet({1, "SU0", 0.6, "SM0", Bytes{9, 9}}).ok());
  ASSERT_TRUE(package.save(path).ok());

  Result<ExperimentPackage> loaded = ExperimentPackage::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().experiment_name().value(), "n");
  EXPECT_EQ(loaded.value().log_for("SU0"), "log text");
  EXPECT_EQ(loaded.value().event_count(), 1u);
  EXPECT_EQ(loaded.value().packet_count(), 1u);
  Result<std::vector<PacketRow>> packets = loaded.value().packets(1);
  ASSERT_TRUE(packets.ok());
  ASSERT_EQ(packets.value().size(), 1u);
  EXPECT_EQ(packets.value()[0].src_node_id, "SM0");
  EXPECT_EQ(packets.value()[0].data, (Bytes{9, 9}));
}

TEST(Package, FromDatabaseValidatesSchema) {
  Database empty;
  EXPECT_FALSE(ExperimentPackage::from_database(std::move(empty)).ok());
}

// ---- Level2Store -------------------------------------------------------------------

TEST(Level2, RecordsPerNodeAndScopes) {
  Level2Store store;
  store.node("A").record_event({1, 100, "x", Value{}});
  store.node("A").record_event({2, 200, "y", Value{}});
  store.node("B").record_packet({1, 150, "A", Bytes{1}});
  store.node("A").add_run_blob(1, "m", "v");
  store.node("A").add_experiment_blob("topo", "t");
  store.node("A").add_plugin_measurement(1, "plug", "metric", "42");

  EXPECT_EQ(store.node_names(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(store.node("A").events().size(), 2u);
  EXPECT_EQ(store.node("B").packets().size(), 1u);
  EXPECT_EQ(store.node("A").plugin_data()[0].name, "plug/metric");
}

TEST(Level2, DiscardRunRemovesOnlyThatRun) {
  Level2Store store;
  store.node("A").record_event({1, 100, "x", Value{}});
  store.node("A").record_event({2, 200, "y", Value{}});
  store.add_sync({1, "A", 50, 0});
  store.add_sync({2, "A", 60, 1000});
  store.mark_run_complete(1);
  store.mark_run_complete(2);

  store.discard_run(1);
  EXPECT_EQ(store.node("A").events().size(), 1u);
  EXPECT_EQ(store.node("A").events()[0].run_id, 2);
  EXPECT_EQ(store.syncs().size(), 1u);
  EXPECT_FALSE(store.run_complete(1));
  EXPECT_TRUE(store.run_complete(2));
  EXPECT_EQ(store.offset_ns(2, "A"), 60);
  EXPECT_EQ(store.offset_ns(1, "A"), 0);  // gone
}

TEST(Level2, DirectoryRoundTrip) {
  TempDir dir;
  Level2Store store;
  store.node("SU0").record_event({1, 123, "e", Value{"p"}});
  store.node("SU0").append_log("hello\n");
  store.node("SM0").record_packet({1, 456, "SU0", Bytes{7, 8}});
  store.add_sync({1, "SU0", -5000, 0});
  store.mark_run_complete(1);
  ASSERT_TRUE(store.write_to_directory(dir.path.string()).ok());

  Result<Level2Store> loaded =
      Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_names(),
            (std::vector<std::string>{"SM0", "SU0"}));
  ASSERT_EQ(loaded.value().node("SU0").events().size(), 1u);
  EXPECT_EQ(loaded.value().node("SU0").events()[0].parameter, Value{"p"});
  EXPECT_EQ(loaded.value().node("SU0").log(), "hello\n");
  EXPECT_EQ(loaded.value().node("SM0").packets()[0].data, (Bytes{7, 8}));
  EXPECT_EQ(loaded.value().offset_ns(1, "SU0"), -5000);
  EXPECT_TRUE(loaded.value().run_complete(1));
}

TEST(Level2, LoadFromEmptyDirectoryYieldsEmptyStore) {
  TempDir dir;
  Result<Level2Store> loaded =
      Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().node_names().empty());
}

// ---- conditioning ---------------------------------------------------------------------

TEST(Conditioning, CommonTimeSubtractsOffset) {
  // local = common + offset  =>  common = local - offset.
  EXPECT_DOUBLE_EQ(to_common_time(1'500'000'000, 500'000'000), 1.0);
  EXPECT_DOUBLE_EQ(to_common_time(1'000'000'000, -250'000'000), 1.25);
}

TEST(Conditioning, UnifiesTimeBaseAcrossNodes) {
  Level2Store level2;
  // Two nodes observing the same instant: A's clock is +100ms, B's -50ms.
  level2.node("A").record_event({1, 1'100'000'000, "tick", Value{}});
  level2.node("B").record_event({1, 950'000'000, "tick", Value{}});
  level2.add_sync({1, "A", 100'000'000, 0});
  level2.add_sync({1, "B", -50'000'000, 0});
  level2.mark_run_complete(1);

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  Result<std::vector<EventRow>> events = package.value().events(1);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 2u);
  EXPECT_NEAR(events.value()[0].common_time, 1.0, 1e-9);
  EXPECT_NEAR(events.value()[1].common_time, 1.0, 1e-9);
}

TEST(Conditioning, IncompleteRunsExcludedByDefault) {
  Level2Store level2;
  level2.node("A").record_event({1, 100, "done", Value{}});
  level2.node("A").record_event({2, 200, "aborted", Value{}});
  level2.add_sync({1, "A", 0, 0});
  level2.add_sync({2, "A", 0, 0});
  level2.mark_run_complete(1);  // run 2 aborted

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().event_count(), 1u);
  EXPECT_EQ(package.value().run_ids(), (std::vector<std::int64_t>{1}));

  ConditioningOptions keep_all;
  keep_all.completed_runs_only = false;
  Result<ExperimentPackage> full = condition(level2, "<e/>", keep_all);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().event_count(), 2u);
}

TEST(Conditioning, BlobsRouteToCorrectTables) {
  Level2Store level2;
  level2.node("A").add_experiment_blob("topology_before", "x y 2");
  level2.node("A").add_run_blob(1, "hops", "1");
  level2.node("A").add_plugin_measurement(1, "plug", "m", "v");
  level2.node("A").append_log("LOG LINE");
  level2.mark_run_complete(1);

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().database().table("ExperimentMeasurements")
                ->row_count(),
            1u);
  EXPECT_EQ(
      package.value().database().table("ExtraRunMeasurements")->row_count(),
      2u);
  EXPECT_EQ(package.value().log_for("A"), "LOG LINE");
}

/// A level-2 store with several nodes, runs, logs, blobs and plugin data —
/// enough surface to exercise every merge path of condition().
Level2Store busy_level2() {
  Level2Store level2;
  for (int n = 0; n < 5; ++n) {
    std::string node = strings::format("N%d", n);
    for (int run = 1; run <= 4; ++run) {
      for (int e = 0; e < 20; ++e) {
        level2.node(node).record_event(
            {run, run * 1'000'000'000LL + e * 1000 + n,
             "ev" + std::to_string(e % 3), Value{e}});
      }
      for (int p = 0; p < 10; ++p) {
        level2.node(node).record_packet(
            {run, run * 1'000'000'000LL + p * 500, "N0",
             Bytes{static_cast<std::uint8_t>(p),
                   static_cast<std::uint8_t>(n)}});
      }
      level2.node(node).add_run_blob(run, "hops", std::to_string(run));
      level2.node(node).add_plugin_measurement(run, "plug", "m",
                                               std::to_string(n));
      level2.add_sync({run, node, n * 1000LL, run * 1'000'000'000LL});
    }
    level2.node(node).add_experiment_blob("topo", node);
    level2.node(node).append_log("log of " + node + "\n");
  }
  level2.mark_run_complete(1);
  level2.mark_run_complete(2);
  level2.mark_run_complete(3);  // run 4 stays incomplete
  return level2;
}

TEST(Conditioning, ParallelShardsBitIdenticalAcrossWorkerCounts) {
  Level2Store level2 = busy_level2();
  auto image_for = [&](std::size_t workers) {
    ConditioningOptions options;
    options.workers = workers;
    Result<ExperimentPackage> package = condition(level2, "<e/>", options);
    EXPECT_TRUE(package.ok());
    return package.value().database().serialize();
  };
  Bytes sequential = image_for(1);
  EXPECT_EQ(image_for(4), sequential);
  EXPECT_EQ(image_for(0), sequential);  // hardware concurrency
}

TEST(Conditioning, AnalysisOutputsIdenticalAcrossWorkerCounts) {
  // Discovery-shaped data: the stats pipeline must see identical packages
  // whether conditioning ran sequentially or on the pool.
  Level2Store level2;
  for (int run = 1; run <= 6; ++run) {
    level2.node("SU0").record_event(
        {run, run * 1'000'000'000LL, "sd_start_search", Value{}});
    level2.node("SU0").record_event(
        {run, run * 1'000'000'000LL + 40'000'000LL * run, "sd_service_add",
         Value{"SM0"}});
    level2.add_sync({run, "SU0", 123'000LL, run * 1'000'000'000LL});
    level2.add_sync({run, "SM0", -77'000LL, run * 1'000'000'000LL});
    level2.mark_run_complete(run);
  }
  level2.node("SM0").append_log("provider\n");

  ConditioningOptions sequential;
  sequential.workers = 1;
  ConditioningOptions pooled;
  pooled.workers = 4;
  Result<ExperimentPackage> a = condition(level2, "<e/>", sequential);
  Result<ExperimentPackage> b = condition(level2, "<e/>", pooled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  Result<std::vector<double>> lat_a = stats::first_latencies(a.value());
  Result<std::vector<double>> lat_b = stats::first_latencies(b.value());
  ASSERT_TRUE(lat_a.ok());
  ASSERT_TRUE(lat_b.ok());
  EXPECT_EQ(lat_a.value(), lat_b.value());
  ASSERT_EQ(lat_a.value().size(), 6u);

  Result<stats::Proportion> resp_a =
      stats::responsiveness(a.value(), 0.15, 1);
  Result<stats::Proportion> resp_b =
      stats::responsiveness(b.value(), 0.15, 1);
  ASSERT_TRUE(resp_a.ok());
  ASSERT_TRUE(resp_b.ok());
  EXPECT_EQ(resp_a.value().successes, resp_b.value().successes);
  EXPECT_EQ(resp_a.value().trials, resp_b.value().trials);
}

// ---- repository (level 4) ------------------------------------------------------------------

ExperimentPackage tiny_package(const std::string& name, int runs) {
  ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", name, "");
  for (int run = 1; run <= runs; ++run) {
    (void)package.add_run_info({run, "A", 0.0, 0.0});
    (void)package.add_event({run, "A", 0.1, "sd_service_add", "SM0"});
  }
  return package;
}

constexpr char kDigestA[] =
    "aa11223344556677889900aabbccddeeff00112233445566778899aabbccddee";
constexpr char kDigestB[] =
    "bb11223344556677889900aabbccddeeff00112233445566778899aabbccddee";

std::size_t line_count(const fs::path& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

TEST(Repository, StoreFetchAndIndex) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  EXPECT_EQ(repo.value().size(), 0u);

  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 2)).ok());
  ASSERT_TRUE(repo.value().store(kDigestB, tiny_package("B", 3)).ok());
  ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  ASSERT_TRUE(repo.value().alias("exp-b", kDigestB).ok());
  // Names are one line each in names.txt: no empty names, no separators,
  // and only stored digests can be named.
  EXPECT_FALSE(repo.value().alias("", kDigestA).ok());
  EXPECT_FALSE(repo.value().alias("bad\tname", kDigestA).ok());
  EXPECT_FALSE(repo.value().alias("bad\nname", kDigestA).ok());
  EXPECT_FALSE(repo.value()
                   .alias("exp-c", std::string(kDigestA).replace(0, 2, "cc"))
                   .ok());

  EXPECT_EQ(repo.value().names(),
            (std::vector<std::string>{"exp-a", "exp-b"}));
  EXPECT_EQ(repo.value().digests(),
            (std::vector<std::string>{kDigestA, kDigestB}));
  Result<std::string> digest = repo.value().resolve("exp-b");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), kDigestB);
  Result<ExperimentPackage> fetched = repo.value().fetch(digest.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "B");
  EXPECT_FALSE(repo.value().resolve("nope").ok());
}

TEST(Repository, ReStoreReplacesWithoutLeakingFilesOrIndexEntries) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("old", 2)).ok());
  ASSERT_TRUE(repo.value().store(kDigestB, tiny_package("new", 1)).ok());
  ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  ASSERT_TRUE(repo.value().alias("exp-a", kDigestB).ok());

  // Re-aliasing re-points the name: the new content is served, exactly one
  // names.txt line remains, both packages stay addressable by digest, and
  // no .tmp sibling leaks.
  Result<std::string> digest = repo.value().resolve("exp-a");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), kDigestB);
  Result<ExperimentPackage> fetched = repo.value().fetch(digest.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "new");
  EXPECT_EQ(repo.value().names().size(), 1u);
  EXPECT_EQ(repo.value().size(), 2u);
  EXPECT_EQ(line_count(dir.path / "names.txt"), 1u);

  std::size_t packages = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    if (entry.path().extension() == ".excovery") ++packages;
  }
  EXPECT_EQ(packages, 2u);
}

TEST(Repository, ReopenRebuildsIndexFromFiles) {
  TempDir dir;
  {
    Result<Repository> repo = Repository::open(dir.path.string());
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 1)).ok());
    ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  }
  Result<Repository> reopened = Repository::open(dir.path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().contains(kDigestA));
  Result<std::string> digest = reopened.value().resolve("exp-a");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), kDigestA);
}

TEST(Repository, CrossExperimentQueries) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 2)).ok());
  ASSERT_TRUE(repo.value().store(kDigestB, tiny_package("B", 3)).ok());
  ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  ASSERT_TRUE(repo.value().alias("exp-b", kDigestB).ok());

  Result<std::vector<Repository::CrossEvent>> adds =
      repo.value().events_of_type("sd_service_add");
  ASSERT_TRUE(adds.ok());
  EXPECT_EQ(adds.value().size(), 5u);

  Result<std::vector<Repository::Summary>> summaries =
      repo.value().summaries();
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries.value().size(), 2u);
  EXPECT_EQ(summaries.value()[0].experiment_id, "exp-a");
  EXPECT_EQ(summaries.value()[0].runs, 2u);
  EXPECT_EQ(summaries.value()[1].events, 3u);
}

// ---- repository CAS layout -----------------------------------------------------------------

TEST(Repository, CasStoreFetchAndLayout) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  EXPECT_FALSE(repo.value().contains(kDigestA));

  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 2)).ok());
  EXPECT_TRUE(repo.value().contains(kDigestA));
  EXPECT_EQ(repo.value().size(), 1u);
  // Sharded layout: cas/<first two hex chars>/<digest>.excovery.
  EXPECT_TRUE(fs::exists(dir.path / "cas" / "aa" /
                         (std::string(kDigestA) + ".excovery")));

  Result<ExperimentPackage> fetched = repo.value().fetch(kDigestA);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "A");
  EXPECT_FALSE(repo.value().fetch(kDigestB).ok());

  // Content addressing makes re-storing idempotent: equal digest means
  // equal content, so rewriting the file leaves the same package.
  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 2)).ok());
  EXPECT_EQ(repo.value().size(), 1u);

  // Digest validation: only lower-case hex reaches the file system.
  EXPECT_FALSE(repo.value().store("UPPER", tiny_package("X", 1)).ok());
  EXPECT_FALSE(repo.value().store("../evil", tiny_package("X", 1)).ok());
  EXPECT_EQ(repo.value().size(), 1u);
  EXPECT_TRUE(repo.value().names().empty());
}

TEST(Repository, CasSurvivesReopenAndToleratesCorruptIndexes) {
  TempDir dir;
  {
    Result<Repository> repo = Repository::open(dir.path.string());
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 2)).ok());
    ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  }

  // Corrupt names.txt the way a crash mid-write could: garbage lines,
  // missing columns, and an alias to a digest whose package does not
  // exist.  open() must skip the damage and keep the real alias.
  std::ofstream(dir.path / "names.txt", std::ios::app)
      << "no-tab-line\n\t\n\t" << kDigestA << "\nexp-empty\t\n"
      << "exp-gone\t" << kDigestB << "\n";

  Result<Repository> reopened = Repository::open(dir.path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().names(), (std::vector<std::string>{"exp-a"}));
  EXPECT_FALSE(reopened.value().resolve("exp-gone").ok());
  EXPECT_TRUE(reopened.value().contains(kDigestA));
  EXPECT_FALSE(reopened.value().contains(kDigestB));
  EXPECT_EQ(reopened.value().size(), 1u);
  Result<std::string> digest = reopened.value().resolve("exp-a");
  ASSERT_TRUE(digest.ok());
  Result<ExperimentPackage> fetched = reopened.value().fetch(digest.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "A");

  // The next alias rewrites names.txt without the damaged lines.
  ASSERT_TRUE(reopened.value().alias("exp-a2", kDigestA).ok());
  EXPECT_EQ(line_count(dir.path / "names.txt"), 2u);
}

TEST(Repository, OpensHandPlacedCasFiles) {
  // The directory scan is the only CAS index: a package file copied into
  // the sharded layout by hand (or by an older build) is found, while
  // misplaced files, non-digest stems and leftover .tmp siblings are not.
  TempDir dir;
  const Bytes bytes = tiny_package("A", 1).database().serialize();
  const auto place = [&](const fs::path& path) {
    fs::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  };
  place(dir.path / "cas" / "aa" / (std::string(kDigestA) + ".excovery"));
  place(dir.path / "cas" / "aa" / (std::string(kDigestB) + ".excovery"));
  place(dir.path / "cas" / "bb" / (std::string(kDigestB) + ".excovery.tmp"));
  place(dir.path / "cas" / "bb" / "NOT-HEX.excovery");
  place(dir.path / "exp-a.excovery");

  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  EXPECT_EQ(repo.value().digests(), (std::vector<std::string>{kDigestA}));
  Result<ExperimentPackage> fetched = repo.value().fetch(kDigestA);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "A");
}

TEST(Repository, StoreLeavesNoTempFilesBehind) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store(kDigestA, tiny_package("A", 1)).ok());
  ASSERT_TRUE(repo.value().alias("exp-a", kDigestA).ok());
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

}  // namespace
}  // namespace excovery::storage
