// Self-tests of simbench_driver's percentile math, spans and JSON writer.
// Built as simbench_selftest by simbench/CMakeLists.txt when GoogleTest
// is installed; `python3 simbench/run.py --self-test` builds and runs it.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/report.h"

namespace simbench {
namespace {

std::string written(void (*write)(std::FILE*, const Spans&), const Spans& s) {
  std::FILE* f = std::tmpfile();
  write(f, s);
  std::rewind(f);
  std::string out;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    out += static_cast<char>(c);
  }
  std::fclose(f);
  return out;
}

TEST(Percentiles, NearestRank) {
  EXPECT_EQ(nearest_rank_index(1, 50.0), 0u);
  EXPECT_EQ(nearest_rank_index(1, 99.0), 0u);
  EXPECT_EQ(nearest_rank_index(100, 50.0), 49u);
  EXPECT_EQ(nearest_rank_index(100, 99.0), 98u);
  EXPECT_EQ(nearest_rank_index(101, 50.0), 50u);
  EXPECT_EQ(nearest_rank_index(1000, 99.0), 989u);
  EXPECT_EQ(nearest_rank_index(10, 0.0), 0u);
  EXPECT_EQ(nearest_rank_index(10, 100.0), 9u);
}

TEST(Percentiles, SummaryAndSampleCounts) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1000; i >= 1; --i) v.push_back(i);  // unsorted
  const LatencySummary s = summarize_latencies(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50_ns, 500u);
  EXPECT_EQ(s.p99_ns, 990u);
  EXPECT_EQ(s.beyond_p99, 10u);  // exactly resolvable: ten samples beyond
  EXPECT_DOUBLE_EQ(s.iqm_ns, 500.0);  // mean of the values 250..750

  const LatencySummary small = summarize_latencies({7, 3});
  EXPECT_EQ(small.samples, 2u);
  EXPECT_EQ(small.p50_ns, 3u);
  EXPECT_EQ(small.p99_ns, 7u);
  EXPECT_EQ(small.beyond_p99, 0u);
  EXPECT_DOUBLE_EQ(small.iqm_ns, 5.0);

  // A point mass pins the median; the interquartile mean still moves.
  std::vector<std::uint64_t> mass(40, 40);
  for (std::uint64_t i = 0; i < 30; ++i) mass.push_back(i);
  for (std::uint64_t i = 0; i < 30; ++i) mass.push_back(100 + i);
  const LatencySummary m = summarize_latencies(mass);
  EXPECT_EQ(m.p50_ns, 40u);
  EXPECT_GT(m.iqm_ns, 40.0);

  const LatencySummary none = summarize_latencies({});
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.p99_ns, 0u);
}

TEST(Spans, NestAndRecordParents) {
  Spans s(true);
  const int run = s.begin("run");
  const int a = s.begin("slice");
  s.end(a, {{"events", 3.0}});
  const int b = s.begin("slice");
  s.end(b);
  s.end(run);
  const int top = s.begin("verify");
  s.end(top);
  ASSERT_EQ(s.all().size(), 4u);
  EXPECT_EQ(s.all()[0].parent, -1);
  EXPECT_EQ(s.all()[1].parent, run);
  EXPECT_EQ(s.all()[2].parent, run);
  EXPECT_EQ(s.all()[3].parent, -1);
  EXPECT_LE(s.all()[0].start_s, s.all()[1].start_s);
  EXPECT_GE(s.all()[0].end_s, s.all()[2].end_s);
  EXPECT_EQ(s.all()[1].args.at(0).second, 3.0);
}

TEST(Spans, DisabledRecordsNothing) {
  Spans s(false);
  const int id = s.begin("run");
  EXPECT_EQ(id, -1);
  s.end(id);
  EXPECT_TRUE(s.all().empty());
  EXPECT_EQ(written(write_spans, s), "[]");
}

TEST(Json, EscapesAndNonFiniteNumbers) {
  EXPECT_EQ(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
  Spans s(true);
  const int id = s.begin("x\"y");
  s.end(id, {{"ratio", std::numeric_limits<double>::quiet_NaN()},
             {"n", 0.1}});
  const std::string out = written(write_spans, s);
  EXPECT_NE(out.find("\"name\": \"x\\\"y\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ratio\": null"), std::string::npos) << out;
  // Every digit survives: 0.1 is written with 17 significant digits.
  EXPECT_NE(out.find("\"n\": 0.10000000000000001"), std::string::npos) << out;
}

TEST(Digest, OrderAndContentSensitive) {
  Digest a, b, c;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(1);
  c.add(1);
  c.add(2);
  EXPECT_NE(a.hex(), b.hex());
  EXPECT_EQ(a.hex(), c.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

}  // namespace
}  // namespace simbench
