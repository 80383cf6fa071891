#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

namespace perfbench {
namespace {

/// Nearest-rank oracle on a fully sorted copy.
double OraclePercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

TEST(PercentileTest, MatchesSortedVectorOracle) {
  std::mt19937_64 rng(7);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1237u}) {
    std::vector<double> samples(n);
    for (double& s : samples) s = std::uniform_real_distribution<double>(0, 50)(rng);
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(Percentile(samples, q), OraclePercentile(samples, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({3.0}, 0.99), 3.0);
  // Nearest rank never interpolates: the p50 of {1, 2} is the first sample.
  EXPECT_EQ(Percentile({2.0, 1.0}, 0.5), 1.0);
  // Failures enter as +inf and must surface at the top ranks only.
  std::vector<double> with_failures(100, 1.0);
  with_failures[3] = INFINITY;
  EXPECT_EQ(Percentile(with_failures, 0.99), 1.0);
  EXPECT_TRUE(std::isinf(Percentile(with_failures, 1.0)));
}

TEST(PercentileTest, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1099, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1100, 0.99), 11u);
  EXPECT_EQ(SamplesBeyond(10, 0.5), 5u);
}

TEST(ScheduleTest, FixedRate) {
  const std::vector<double> a = FixedRateSchedule(200.0, 5.0);
  ASSERT_EQ(a.size(), 999u);  // 5 ms apart, strictly inside (0, 5)
  EXPECT_DOUBLE_EQ(a.front(), 0.005);
  EXPECT_DOUBLE_EQ(a.back(), 4.995);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_NEAR(a[i] - a[i - 1], 0.005, 1e-12);
  EXPECT_TRUE(FixedRateSchedule(1.0, 1.0).empty());
}

TEST(OpenLoopTest, StallIsChargedToLaterRequests) {
  // One sender, arrivals every 10 ms, and request 0 stalls for 120 ms: the
  // requests due during the stall are sent late, and their latency counts
  // from when they were due, so the stall shows up in every one of them.
  std::vector<double> schedule;
  for (int i = 0; i < 12; ++i) schedule.push_back(0.01 * i);
  const std::vector<Dispatch> d = RunOpenLoop(schedule, 1, [](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(120));
  });
  ASSERT_EQ(d.size(), schedule.size());
  EXPECT_GE(d[0].Latency(), 0.119);
  EXPECT_LT(d[0].Lateness(), 0.05);
  for (size_t i = 1; i <= 10; ++i) {
    const double due = schedule[i];
    EXPECT_EQ(d[i].scheduled, due);
    EXPECT_GE(d[i].Lateness(), 0.119 - due) << i;
    EXPECT_GE(d[i].Latency(), 0.119 - due) << i;
  }
}

TEST(OpenLoopTest, IdleSendersAreNotLate) {
  std::vector<double> schedule;
  for (int i = 0; i < 20; ++i) schedule.push_back(0.005 * i);
  const std::vector<Dispatch> d = RunOpenLoop(schedule, 4, [](size_t) {});
  for (const Dispatch& x : d) {
    EXPECT_GE(x.sent, x.scheduled);
    EXPECT_LT(x.Lateness(), 0.05);
    EXPECT_GE(x.done, x.sent);
  }
}

TEST(SliceRecorderTest, PerSliceCpuAndSteal) {
  double cpu = 0.0;
  CpuTicks ticks;
  SliceRecorder recorder(1.0, 4, [&] { return cpu; }, [&] { return ticks; });
  // Slice k: 10 completions costing k+1 CPU seconds each, while the host
  // ticks 100 times, 10*k of them stolen.
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 10; ++i) {
      recorder.Complete(k + 0.05 + 0.09 * i);
      cpu += k + 1;
    }
    ticks.total += 100;
    ticks.steal += 10 * k;
  }
  recorder.Close();
  const std::vector<SliceRecorder::Slice> slices = recorder.Slices();
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(slices[0].completions, 10u);
  EXPECT_DOUBLE_EQ(slices[0].cpu_s_per_completion, 1.0);
  EXPECT_DOUBLE_EQ(slices[0].steal_frac, 0.0);
  EXPECT_DOUBLE_EQ(slices[2].cpu_s_per_completion, 3.0);
  EXPECT_DOUBLE_EQ(slices[2].steal_frac, 0.2);
  EXPECT_DOUBLE_EQ(slices[3].steal_frac, 0.3);
  EXPECT_EQ(LeastStolenHalf(slices), (std::vector<size_t>{0, 1}));
}

TEST(SliceRecorderTest, StallSpanningSlicesAndUnclosedSlices) {
  double cpu = 0.0;
  SliceRecorder recorder(1.0, 5, [&] { return cpu; }, [] { return CpuTicks{}; });
  recorder.Complete(0.5);
  cpu = 4.0;
  recorder.Complete(3.5);  // one completion closes slices 0..2 at once
  const std::vector<SliceRecorder::Slice> slices = recorder.Slices();
  EXPECT_EQ(slices[0].completions, 1u);
  EXPECT_DOUBLE_EQ(slices[0].cpu_s_per_completion, 4.0);
  EXPECT_EQ(slices[1].completions, 0u);
  EXPECT_EQ(slices[3].completions, 0u);  // not closed yet
  EXPECT_EQ(slices.size(), 5u);
}

TEST(SliceRecorderTest, LeastStolenHalfAndSlicePercentiles) {
  std::vector<SliceRecorder::Slice> slices(5);
  const double steal[5] = {0.02, 0.0, 0.10, 0.0, 0.01};
  for (size_t k = 0; k < 5; ++k) slices[k].steal_frac = steal[k];
  EXPECT_EQ(LeastStolenHalf(slices), (std::vector<size_t>{1, 3, 4}));
  // Slice k holds 1..100 scaled by (k+1); the chosen slices' p95s are 190,
  // 380 and 475, so their median is 380, whatever the stolen slices hold.
  std::vector<std::vector<double>> by_slice(5);
  for (size_t k = 0; k < 5; ++k) {
    for (int i = 1; i <= 100; ++i) by_slice[k].push_back((k + 1.0) * i);
  }
  by_slice[2].assign(100, 1e6);
  EXPECT_EQ(MedianOfSlicePercentiles(by_slice, {1, 3, 4}, 0.95), 380.0);
  EXPECT_EQ(MedianOfSlicePercentiles(by_slice, {}, 0.95), 0.0);
}

TEST(ResultJsonTest, NamesAndShape) {
  EXPECT_TRUE(ValidMetricName("p99_ms"));
  EXPECT_TRUE(ValidMetricName("store.findpair_us_p50"));
  EXPECT_TRUE(ValidMetricName("a-b.c_9"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("p99 ms"));
  EXPECT_FALSE(ValidMetricName("serve.wait{server=\"0\"}"));
  EXPECT_EQ(RenderResultJson(true, 10, 0, {{"p50_ms", 1.5, "ms"}, {"x.y", 2.0, "count"}}),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"x.y\": {\"value\": 2, "
            "\"unit\": \"count\"}}}");
  // Full precision: values differing in the 15th digit render differently.
  EXPECT_NE(RenderResultJson(true, 1, 0, {{"t", 1.00000000000001, "s"}}),
            RenderResultJson(true, 1, 0, {{"t", 1.00000000000002, "s"}}));
  EXPECT_NE(RenderResultJson(false, 1, 1, {{"t", INFINITY, "s"}}).find("null"),
            std::string::npos);
}

TEST(ProcessProbeTest, CountersMove) {
  const double cpu0 = ProcessCpuSeconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 20000000; ++i) sink = sink + 1e-9 * i;
  EXPECT_GT(ProcessCpuSeconds(), cpu0);
  EXPECT_GT(PeakRssMb(), 0.0);
  const CpuTicks a = ReadCpuTicks();
  EXPECT_GT(a.total, 0u);
  const double steal = StealFraction(a, ReadCpuTicks());
  EXPECT_GE(steal, 0.0);
  EXPECT_LE(steal, 1.0);
}

}  // namespace
}  // namespace perfbench
