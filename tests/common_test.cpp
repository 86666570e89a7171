// Unit tests for the common kernel: Result/Status, Value, strings, RNG,
// byte codec, thread pool, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/value.hpp"

namespace excovery {
namespace {

// ---- Result / Status --------------------------------------------------------

Result<int> parse_positive(int v) {
  if (v <= 0) return err_invalid("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrError) {
  Result<int> ok = parse_positive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  Result<int> bad = parse_positive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(ResultTest, MapTransformsValueAndPropagatesError) {
  Result<int> doubled = parse_positive(4).map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 8);

  Result<int> still_bad =
      parse_positive(0).map([](int v) { return v * 2; });
  EXPECT_FALSE(still_bad.ok());
}

TEST(ResultTest, ContextPrefixesMessage) {
  Result<int> bad = parse_positive(0);
  Result<int> wrapped = std::move(bad).context("while parsing config");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.error().message().find("while parsing config"),
            std::string::npos);
}

Status needs_even(int v) {
  if (v % 2 != 0) return err_state("odd");
  return {};
}

TEST(StatusTest, TryMacroPropagates) {
  auto run = [](int v) -> Status {
    EXC_TRY(needs_even(v));
    return {};
  };
  EXPECT_TRUE(run(2).ok());
  EXPECT_FALSE(run(3).ok());
}

TEST(StatusTest, AssignOrReturnMacro) {
  auto run = [](int v) -> Result<int> {
    EXC_ASSIGN_OR_RETURN(int parsed, parse_positive(v));
    return parsed + 1;
  };
  EXPECT_EQ(run(2).value(), 3);
  EXPECT_FALSE(run(-2).ok());
}

TEST(ErrorTest, CodeNamesAreStable) {
  EXPECT_EQ(to_string(ErrorCode::kTimeout), "timeout");
  EXPECT_EQ(to_string(ErrorCode::kParse), "parse");
  Error e = err_timeout("waiting for x");
  EXPECT_EQ(e.to_string(), "timeout: waiting for x");
}

// ---- Value -------------------------------------------------------------------

TEST(ValueTest, TypeDiscrimination) {
  EXPECT_TRUE(Value{}.is_null());
  EXPECT_TRUE(Value{true}.is_bool());
  EXPECT_TRUE(Value{42}.is_int());
  EXPECT_TRUE(Value{1.5}.is_double());
  EXPECT_TRUE(Value{"hi"}.is_string());
  EXPECT_TRUE((Value{Bytes{1, 2}}.is_bytes()));
  EXPECT_TRUE(Value{ValueArray{}}.is_array());
  EXPECT_TRUE(Value{ValueMap{}}.is_map());
  EXPECT_TRUE(Value{42}.is_number());
  EXPECT_TRUE(Value{1.5}.is_number());
  EXPECT_FALSE(Value{"x"}.is_number());
}

TEST(ValueTest, IntCoercion) {
  EXPECT_EQ(Value{"123"}.to_int().value(), 123);
  EXPECT_EQ(Value{"\"123\""}.to_int().value(), 123);  // quoted XML levels
  EXPECT_EQ(Value{" 7 "}.to_int().value(), 7);
  EXPECT_EQ(Value{3.0}.to_int().value(), 3);
  EXPECT_FALSE(Value{3.5}.to_int().ok());
  EXPECT_FALSE(Value{"abc"}.to_int().ok());
  EXPECT_EQ(Value{true}.to_int().value(), 1);
}

TEST(ValueTest, DoubleCoercion) {
  EXPECT_DOUBLE_EQ(Value{"0.25"}.to_double().value(), 0.25);
  EXPECT_DOUBLE_EQ(Value{7}.to_double().value(), 7.0);
  EXPECT_FALSE(Value{"x1"}.to_double().ok());
}

TEST(ValueTest, BoolCoercion) {
  EXPECT_TRUE(Value{"true"}.to_bool().value());
  EXPECT_TRUE(Value{"1"}.to_bool().value());
  EXPECT_FALSE(Value{"off"}.to_bool().value());
  EXPECT_FALSE(Value{"maybe"}.to_bool().ok());
}

TEST(ValueTest, TextRendering) {
  EXPECT_EQ(Value{42}.to_text(), "42");
  EXPECT_EQ(Value{true}.to_text(), "true");
  EXPECT_EQ(Value{"s"}.to_text(), "s");
  EXPECT_EQ(Value{}.to_text(), "");
  ValueArray arr{Value{1}, Value{2}};
  EXPECT_EQ(Value{arr}.to_text(), "[1,2]");
  ValueMap map;
  map.emplace("a", Value{1});
  EXPECT_EQ(Value{map}.to_text(), "{a=1}");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value{1}, Value{1});
  EXPECT_NE(Value{1}, Value{2});
  EXPECT_NE(Value{1}, Value{"1"});
  EXPECT_LT(Value{1}, Value{2});
  // Cross-type ordering is by type index: int (2) < string (4).
  EXPECT_LT(Value{99}, Value{"a"});
}

TEST(ValueTest, MapFind) {
  ValueMap map;
  map.emplace("key", Value{5});
  Value v{map};
  ASSERT_NE(v.find("key"), nullptr);
  EXPECT_EQ(v.find("key")->as_int(), 5);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(Value{1}.find("x"), nullptr);
}

// ---- strings -------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  a b \n"), "a b");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(StringsTest, StripQuotes) {
  EXPECT_EQ(strings::strip_quotes("\"done\""), "done");
  EXPECT_EQ(strings::strip_quotes("done"), "done");
  EXPECT_EQ(strings::strip_quotes("\""), "\"");  // lone quote untouched
}

TEST(StringsTest, SplitAndJoin) {
  std::vector<std::string> parts = strings::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(strings::join(parts, "-"), "a-b--c");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(strings::starts_with("fault_message_loss_start", "fault_"));
  EXPECT_TRUE(strings::ends_with("fault_message_loss_start", "_start"));
  EXPECT_FALSE(strings::ends_with("x", "_start"));
}

TEST(StringsTest, FormatDoubleRoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 1e-9, 123456.789, 0.0, -2.5}) {
    std::string text = strings::format_double(v);
    EXPECT_DOUBLE_EQ(Value{text}.to_double().value(), v) << text;
  }
}

TEST(StringsTest, HexRoundTrip) {
  Bytes data{0x00, 0xFF, 0x5A};
  EXPECT_EQ(strings::to_hex(data), "00ff5a");
  EXPECT_EQ(strings::from_hex("00ff5a"), data);
}

// ---- RNG -----------------------------------------------------------------------

TEST(RngTest, Pcg32IsDeterministic) {
  Pcg32 a(123, 456);
  Pcg32 b(123, 456);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentStreamsDiffer) {
  Pcg32 a(123, 1);
  Pcg32 b(123, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Pcg32 rng(9, 9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(1), 0u);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(RngTest, Uniform01CoversUnitInterval) {
  Pcg32 rng(5, 5);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Pcg32 rng(7, 7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
  EXPECT_EQ(rng.uniform_int(5, 2), 5);  // degenerate -> lo
}

TEST(RngTest, BernoulliExtremes) {
  Pcg32 rng(1, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Pcg32 rng(2, 3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Pcg32 rng(11, 13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.05);
}

TEST(RngTest, NormalMoments) {
  Pcg32 rng(17, 19);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(10.0, 2.0));
  double sum = 0;
  for (double s : samples) sum += s;
  double mean = sum / static_cast<double>(samples.size());
  EXPECT_NEAR(mean, 10.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Pcg32 rng(3, 3);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngFactoryTest, NamedStreamsAreStable) {
  RngFactory factory(99);
  Pcg32 a = factory.stream("loss", 1);
  Pcg32 b = factory.stream("loss", 1);
  EXPECT_EQ(a(), b());
  Pcg32 c = factory.stream("loss", 2);
  Pcg32 d = factory.stream("delay", 1);
  EXPECT_NE(factory.derive_seed("loss", 1), factory.derive_seed("loss", 2));
  EXPECT_NE(factory.derive_seed("loss", 1), factory.derive_seed("delay", 1));
  (void)c;
  (void)d;
}

TEST(RngFactoryTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// ---- bytes ---------------------------------------------------------------------

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.25);
  w.string("hello");
  w.blob(Bytes{9, 8, 7});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.25);
  EXPECT_EQ(r.string().value(), "hello");
  EXPECT_EQ(r.blob().value(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, WireImageIsLittleEndianAndBackPatchable) {
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const std::size_t prefix_at = w.size();
  w.u64(0);
  w.u8(0x5A);
  const std::uint32_t ids[] = {0x0A0B0C0D, 0x11223344};
  w.u32s(ids);
  w.u64_at(prefix_at, 0x0102030405060708ULL);
  EXPECT_EQ(w.bytes(), (Bytes{0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE, 0x08, 0x07,
                              0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x5A, 0x0D,
                              0x0C, 0x0B, 0x0A, 0x44, 0x33, 0x22, 0x11}));
}

TEST(BytesTest, CountingWriterSizesWithoutStoring) {
  ValueMap inner;
  inner.emplace("key", Value{Bytes{1, 2}});
  auto write = [&](ByteWriter& w) {
    w.u8(1);
    w.u16(2);
    w.u32(3);
    const std::size_t prefix_at = w.size();
    w.u64(0);
    w.f64(0.5);
    const std::uint32_t ids[] = {7, 8, 9};
    w.u32s(ids);
    w.string("text");
    w.blob(Bytes(5, 9));
    for (const Value& value :
         {Value{}, Value{true}, Value{-7}, Value{2.5}, Value{"text"},
          Value{Bytes{}}, Value{ValueArray{Value{1}, Value{inner}}},
          Value{inner}}) {
      w.value(value);
    }
    w.u64_at(prefix_at, w.size());
  };
  ByteWriter counter = ByteWriter::counting();
  write(counter);
  ByteWriter real;
  write(real);
  EXPECT_EQ(counter.size(), real.size());
  EXPECT_TRUE(counter.bytes().empty());
}

TEST(BytesTest, TruncationIsAnError) {
  ByteWriter w;
  w.u32(7);
  Bytes data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_FALSE(r.u32().ok());
}

TEST(BytesTest, ValueRoundTripNested) {
  ValueMap inner;
  inner.emplace("x", Value{1});
  ValueArray arr{Value{}, Value{true}, Value{-7}, Value{2.5}, Value{"s"},
                 Value{Bytes{1, 2, 3}}, Value{inner}};
  Value original{arr};
  ByteWriter w;
  w.value(original);
  ByteReader r(w.bytes());
  Result<Value> back = r.value();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), original);
}

TEST(BytesTest, BadValueTagRejected) {
  Bytes data{0x77};
  ByteReader r(data);
  EXPECT_FALSE(r.value().ok());
}

// ---- thread pool ------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

// ---- logging ---------------------------------------------------------------------

TEST(LogTest, CapturingLogAccumulates) {
  CapturingLog log("test-node");
  log.info("first");
  log.warn("second");
  std::string text = log.text();
  EXPECT_NE(text.find("INFO test-node: first"), std::string::npos);
  EXPECT_NE(text.find("WARN test-node: second"), std::string::npos);
  log.clear();
  EXPECT_TRUE(log.text().empty());
}

TEST(LogTest, SinkReceivesEnabledLevels) {
  Logger& logger = Logger::instance();
  LogLevel old_level = logger.level();
  logger.set_level(LogLevel::kInfo);
  std::vector<std::string> seen;
  Logger::Sink old_sink = logger.set_sink(
      [&seen](LogLevel, std::string_view, std::string_view message) {
        seen.emplace_back(message);
      });
  EXC_LOG_INFO("t", "visible " << 1);
  EXC_LOG_DEBUG("t", "hidden");
  logger.set_sink(std::move(old_sink));
  logger.set_level(old_level);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "visible 1");
}

TEST(LogTest, ParseLogLevelAcceptsAllNames) {
  EXPECT_EQ(parse_log_level("trace").value(), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG").value(), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info").value(), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn").value(), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning").value(), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error").value(), LogLevel::kError);
  Result<LogLevel> bad = parse_log_level("loud");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("unknown log level"),
            std::string::npos);
}

TEST(LogTest, ScopedSinkRestoresPreviousSinkOnScopeExit) {
  Logger& logger = Logger::instance();
  LogLevel old_level = logger.level();
  logger.set_level(LogLevel::kInfo);
  std::vector<std::string> outer;
  {
    ScopedSink outer_sink(
        [&outer](LogLevel, std::string_view, std::string_view message) {
          outer.emplace_back(message);
        });
    {
      std::vector<std::string> inner;
      ScopedSink inner_sink(
          [&inner](LogLevel, std::string_view, std::string_view message) {
            inner.emplace_back(message);
          });
      EXC_LOG_INFO("t", "inner message");
      ASSERT_EQ(inner.size(), 1u);
      EXPECT_TRUE(outer.empty());
    }  // inner sink gone: the outer capture is back in place
    EXC_LOG_INFO("t", "outer message");
  }  // outer sink gone: the default (stderr) sink is back in place
  logger.set_level(old_level);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0], "outer message");
}

TEST(LogTest, TraceMacroRespectsThreshold) {
  Logger& logger = Logger::instance();
  LogLevel old_level = logger.level();
  std::vector<std::string> seen;
  ScopedSink sink(
      [&seen](LogLevel level, std::string_view, std::string_view message) {
        seen.emplace_back(std::string(to_string(level)) + " " +
                          std::string(message));
      });
  logger.set_level(LogLevel::kWarn);
  EXC_LOG_TRACE("t", "suppressed");
  logger.set_level(LogLevel::kTrace);
  EXC_LOG_TRACE("t", "emitted " << 2);
  logger.set_level(old_level);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "TRACE emitted 2");
}

TEST(LogTest, CapturingLogConcurrentAppendAndTake) {
  CapturingLog log("node");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::string drained;
  std::atomic<bool> stop{false};
  // One consumer drains with take() while the producers append.
  std::thread taker([&log, &drained, &stop] {
    while (!stop.load(std::memory_order_acquire)) drained += log.take();
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.info(strings::format("m%d.%d;", t, i));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  taker.join();
  drained += log.take();
  EXPECT_TRUE(log.text().empty());
  // No line was lost or torn between take() and the appends.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string needle = strings::format("m%d.%d;", t, i);
      EXPECT_NE(drained.find(needle), std::string::npos) << needle;
    }
  }
}

}  // namespace
}  // namespace excovery
