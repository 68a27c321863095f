// Tests of the benchmark's own arithmetic: the percentile helper and span
// self times.
#include <gtest/gtest.h>

#include "pipeline.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, MedianInterpolatesEvenCounts) {
  const Percentile odd = Median({3, 1, 2});
  EXPECT_TRUE(odd.ok);
  EXPECT_EQ(odd.n, 3u);
  EXPECT_DOUBLE_EQ(odd.value, 2.0);
  const Percentile even = Median({4, 1, 3, 2});
  EXPECT_TRUE(even.ok);
  EXPECT_DOUBLE_EQ(even.value, 2.5);
}

TEST(PercentileTest, EmptyIsRefused) {
  const Percentile p = Median({});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.n, 0u);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyond) {
  // 999 samples: rank ceil(989.01) = 990, 9 beyond -> refused.
  const Percentile short_run = TakePercentile(Ramp(999), 0.99);
  EXPECT_FALSE(short_run.ok);
  EXPECT_EQ(short_run.n, 999u);
  // 1000 samples: rank 990, 10 beyond -> reported, nearest rank.
  const Percentile p = TakePercentile(Ramp(1000), 0.99);
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
}

TEST(PercentileTest, P90NeedsAHundred) {
  EXPECT_FALSE(TakePercentile(Ramp(99), 0.9).ok);
  const Percentile p = TakePercentile(Ramp(100), 0.9);
  EXPECT_TRUE(p.ok);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
}

Span MakeSpan(std::int64_t parent, std::uint64_t start, std::uint64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsChildren) {
  // root [0,100) with children [10,30) and [50,60): self = 100 - 30.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30),
                                   MakeSpan(0, 50, 60)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 10u);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,50) cover [10,50): self = 100 - 40.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 40),
                                   MakeSpan(0, 30, 50)};
  EXPECT_EQ(SelfTimes(spans)[0], 60u);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  // A child that outlives its parent only covers the parent's interval.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100),
                                   MakeSpan(0, 90, 150)};
  EXPECT_EQ(SelfTimes(spans)[0], 90u);
}

TEST(SelfTimeTest, GrandchildrenDoNotCountTwice) {
  // root [0,100) > child [0,60) > grandchild [0,50): root self = 40.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 0, 60),
                                   MakeSpan(1, 0, 50)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 50u);
}

TEST(TracerTest, NestsSpansOnOneThread) {
  Tracer tracer(true);
  {
    Tracer::Scope outer(&tracer, "outer");
    Tracer::Scope inner(&tracer, "inner");
  }
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.Durations("outer", false).size(), 1u);
  // Self time of the outer span excludes the inner one.
  EXPECT_LE(tracer.Durations("outer", true)[0],
            tracer.Durations("outer", false)[0]);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  { Tracer::Scope s(&tracer, "x"); }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(VerbReplyTest, ParsesRowsAndFields) {
  const VerbReply r = ParseVerbReply(
      "columns=a,b rows=2 segments_read=1 row=1000:3:1.000000:2.500000 "
      "row=2000:4:3.000000:4.000000");
  EXPECT_EQ(r.fields.at("rows"), "2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].ts_us, 1000u);
  EXPECT_EQ(r.rows[0].node, 3u);
  EXPECT_EQ(r.rows[0].values,
            (std::vector<std::string>{"1.000000", "2.500000"}));
  EXPECT_EQ(r.rows[1].node, 4u);
}

}  // namespace
}  // namespace perfbench
