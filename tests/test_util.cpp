// Unit tests for util: stats, histograms, RNG, strings, CSV, thread pool,
// clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>

#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace ldmsxx {
namespace {

TEST(RunningStatsTest, MomentsMatchClosedForm) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Sample variance of 1..100 = n(n+1)/12 = 841.666...
  EXPECT_NEAR(s.variance(), 841.6666666, 1e-6);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian();
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(HistogramTest, BinningAndTail) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1.0);   // underflow
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 9
  h.Add(10.0);   // overflow
  h.AddN(5.5, 3);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(5), 3u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.total(), 7u);
  // Tail at threshold 5.0 includes bins covering values > 5.0 plus overflow.
  EXPECT_EQ(h.TailCount(5.0), 5u);
}

TEST(HistogramTest, MergeRequiresIdenticalBinning) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  Histogram c(0.0, 20.0, 10);
  a.Add(1.0);
  b.Add(2.0);
  EXPECT_TRUE(a.Merge(b));
  EXPECT_EQ(a.total(), 2u);
  EXPECT_FALSE(a.Merge(c));
}

TEST(PercentileTest, Median) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(RngTest, DeterministicAndSplittable) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  // Splits yield distinct streams.
  Rng base(42);
  Rng s1 = base.Split(1);
  Rng s2 = base.Split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.Next() == s2.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.NextGaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(StringsTest, SplitVariants) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  auto ws = SplitWhitespace("  cpu   1 2\t3  ");
  ASSERT_EQ(ws.size(), 4u);
  EXPECT_EQ(ws[0], "cpu");
  EXPECT_EQ(ws[3], "3");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, ParseNumbers) {
  EXPECT_EQ(ParseU64("123"), 123u);
  EXPECT_EQ(ParseU64(" 123 "), 123u);
  EXPECT_FALSE(ParseU64("12x").has_value());
  EXPECT_FALSE(ParseU64("").has_value());
  EXPECT_EQ(ParseI64("-5"), -5);
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_FALSE(ParseDouble("nanx").has_value());
}

TEST(StringsTest, TextWriterPrintsNumbersLikeToString) {
  auto f64 = [](double v) {
    std::string out;
    TextWriter(&out).F64(v);
    return out;
  };
  auto from_bits = [](std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  };
  const double max = std::numeric_limits<double>::max();
  const double edges[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7ff0000000000001ull),  // signalling NaN payload
      from_bits(0xfff8000000000123ull),  // negative NaN with payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      max,
      -max,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000fffffffffffffull),  // largest denormal
      0.0000005,
      -0.0000005,
      0.0000015,
      0.4e-6,
      1.0,
      -7.0,
      1e16,
      9007199254740993.0,
      123456.7890125,
  };
  for (const double v : edges) EXPECT_EQ(f64(v), std::to_string(v)) << v;
  // "%f" of -DBL_MAX is the longest text a double prints as, and exactly
  // fills the writer's buffer.
  EXPECT_EQ(std::to_string(-max).size(), TextWriter::kMaxF64Chars);

  Rng rng(21);
  for (int i = 0; i < 1000000; ++i) {
    const double v = from_bits(rng.Next());
    ASSERT_EQ(f64(v), std::to_string(v)) << i;
  }
  for (int i = 0; i < 100000; ++i) {
    const double v = static_cast<double>(static_cast<std::int64_t>(rng.Next()) >>
                                         (rng.Next() % 64));
    ASSERT_EQ(f64(v), std::to_string(v)) << i;
  }

  std::string out;
  TextWriter w(&out);
  const std::uint64_t ints[] = {0, 1, 9, 10, 4294967301ull,
                                std::numeric_limits<std::uint64_t>::max()};
  std::string want;
  for (const std::uint64_t v : ints) {
    w.U64(v).Char(' ');
    want += std::to_string(v) + " ";
  }
  w.Str("end").Field("k", 42);
  EXPECT_EQ(out, want + "end k=42");
}

TEST(StringsTest, KeyValues) {
  auto kvs = ParseKeyValues("config name=meminfo interval=1000 flag");
  ASSERT_EQ(kvs.size(), 4u);
  EXPECT_EQ(kvs[0].first, "config");
  EXPECT_EQ(kvs[0].second, "");
  EXPECT_EQ(kvs[1].first, "name");
  EXPECT_EQ(kvs[1].second, "meminfo");
  EXPECT_EQ(kvs[3].first, "flag");
}

TEST(CsvTest, RoundTripWithQuoting) {
  const std::string path = "/tmp/ldmsxx_csv_test.csv";
  {
    CsvWriter w(path, /*truncate=*/true);
    w.Field(std::string_view("plain"));
    w.Field(std::string_view("with,comma"));
    w.Field(std::string_view("with\"quote"));
    w.Field(std::uint64_t{42});
    w.EndRow();
    w.Flush();
  }
  auto rows = ReadCsvFile(path);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "plain");
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "42");
  std::filesystem::remove(path);
}

TEST(ThreadPoolTest, RunsAllTasksAndDrains) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 1000);
  pool.Shutdown();
  // Post-shutdown submissions are dropped, not crashed.
  pool.Submit([&count] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  });
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150u);
  clock.SetTime(200);
  EXPECT_EQ(clock.Now(), 200u);
}

TEST(ClockTest, RealClockMonotoneAndSpinForAccurate) {
  RealClock& clock = RealClock::Instance();
  const TimeNs a = clock.Now();
  const DurationNs spun = SpinFor(2 * kNsPerMs);
  const TimeNs b = clock.Now();
  EXPECT_GE(b, a);
  EXPECT_GE(spun, 2 * kNsPerMs);
  EXPECT_LT(spun, 50 * kNsPerMs);  // no wild overshoot
}

}  // namespace
}  // namespace ldmsxx
