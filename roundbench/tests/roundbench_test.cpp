// Unit tests of the benchmark's own statistics, result record and tracer.
// The smoke pass of every workload is registered in CMakeLists.txt.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace roundbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(4), 75.0), 3.0);
  EXPECT_DOUBLE_EQ(median(ramp(4)), 2.5);
  EXPECT_DOUBLE_EQ(median(ramp(5)), 3.0);
}

TEST(Percentile, TailLeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10);
  EXPECT_EQ(samples_beyond(100, 95.0), 5);
  EXPECT_EQ(samples_beyond(41, 75.0), 10);
  EXPECT_EQ(samples_beyond(40, 75.0), 10);
  EXPECT_EQ(samples_beyond(39, 75.0), 9);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 75.0);
  EXPECT_DOUBLE_EQ(tail_percentile(40), 75.0);
  EXPECT_DOUBLE_EQ(tail_percentile(39), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 0.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);
  // The rule itself, for every count: the chosen percentile leaves at
  // least ten samples beyond it and the next one up would not.
  const std::vector<double> ladder = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
  for (int64_t n = 21; n <= 12000; n += 7) {
    const double p = tail_percentile(n);
    ASSERT_GE(samples_beyond(n, p), 10) << "n=" << n;
    for (const double q : ladder) {
      if (q > p) {
        EXPECT_LT(samples_beyond(n, q), 10) << "n=" << n;
      }
    }
  }
}

TEST(Percentile, RejectsEmptyInputAndBadRank) {
  EXPECT_THROW((void)median({}), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(valid_metric_name("rounds_per_s"));
  EXPECT_TRUE(valid_metric_name("comm.codec.encode_gbps"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a\"b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("bytes per sec"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(RunResult, JsonCarriesEveryMetricWithAllDigits) {
  RunResult r;
  r.count_round(true);
  r.count_round(true);
  r.add("latency_ms", 1.2034567890123, "ms");
  r.add("setup_s", 0.1, "s");
  EXPECT_TRUE(r.correct());
  EXPECT_EQ(r.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": "
            "\"s\"}}}");
  EXPECT_THROW(r.add("setup_s", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("ok", 1.0, "bad unit"), std::invalid_argument);
}

TEST(RunResult, FailuresMakeTheRunIncorrect) {
  RunResult failed_round;
  failed_round.count_round(true);
  failed_round.count_round(false);
  EXPECT_FALSE(failed_round.correct());
  EXPECT_EQ(failed_round.failed(), 1);

  RunResult failed_check;
  failed_check.count_round(true);
  failed_check.fail_check("weights differ");
  EXPECT_FALSE(failed_check.correct());

  RunResult not_finite;
  not_finite.count_round(true);
  not_finite.add("x", std::nan(""), "s");
  EXPECT_FALSE(not_finite.correct());
  EXPECT_NE(not_finite.json().find("\"value\": null"), std::string::npos);

  EXPECT_FALSE(RunResult().correct()) << "nothing attempted";
}

TEST(FormatDouble, RoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 123456.789, 1e-9, 2.5})
    EXPECT_EQ(std::stod(format_double(v)), v);
  EXPECT_EQ(format_double(2.5), "2.5");
}

TEST(Tracer, SelfTimeSubtractsChildrenAndTracksParents) {
  Tracer t(true);
  {
    ScopedSpan round(t, "round", 7);
    {
      ScopedSpan child(t, "step");
      volatile double sink = 0.0;
      for (int i = 0; i < 200000; ++i) sink = sink + i;
    }
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].round, 7) << "children inherit the round id";
  const auto self = t.self_seconds();
  ASSERT_EQ(self.size(), 2u);
  const double round_total =
      static_cast<double>(t.spans()[0].end_ns - t.spans()[0].start_ns) * 1e-9;
  const double step_total =
      static_cast<double>(t.spans()[1].end_ns - t.spans()[1].start_ns) * 1e-9;
  EXPECT_NEAR(self[0].second, round_total - step_total, 1e-12);
  EXPECT_NEAR(self[1].second, step_total, 1e-12);
}

TEST(Tracer, DisabledRecordsNothingAndChromeJsonIsWritten) {
  Tracer off(false);
  { ScopedSpan s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());

  Tracer t(true);
  { ScopedSpan s(t, "probe.tensor.gemm"); }
  const std::string path = "roundbench_test_trace.json";
  ASSERT_TRUE(t.write_chrome_json(path, "{\"seed\": 1}"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"name\": \"probe.tensor.gemm\", \"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(ss.str().find("\"otherData\": {\"seed\": 1}"), std::string::npos);
}

}  // namespace
}  // namespace roundbench
