#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace cnpb {
namespace {

// ---- util::Histogram (exact, bench-side) ------------------------------------

TEST(HistogramTest, BasicStats) {
  util::Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 3.0);
  EXPECT_NEAR(h.Stddev(), 1.5811, 1e-3);
}

TEST(HistogramTest, PercentileInterpolates) {
  util::Histogram h;
  h.Add(0.0);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
}

TEST(HistogramTest, EmptyIsExplicitlyUndefined) {
  util::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.Mean()));
  EXPECT_TRUE(std::isnan(h.Min()));
  EXPECT_TRUE(std::isnan(h.Max()));
  EXPECT_TRUE(std::isnan(h.Percentile(50)));
  EXPECT_TRUE(std::isnan(h.Percentile(99)));
  EXPECT_TRUE(std::isnan(h.Stddev()));
  EXPECT_EQ(h.Summary(), "count=0 (empty)");
}

TEST(HistogramTest, SingleSampleIsDegenerate) {
  util::Histogram h;
  h.Add(7.5);
  // Every percentile of a single sample is that sample — no interpolation
  // artifact.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 7.5);
  // Stddev is undefined below two samples and omitted from the summary.
  EXPECT_TRUE(std::isnan(h.Stddev()));
  EXPECT_EQ(h.Summary().find("stddev"), std::string::npos);
  h.Add(9.5);
  EXPECT_FALSE(std::isnan(h.Stddev()));
  EXPECT_NE(h.Summary().find("stddev"), std::string::npos);
}

// ---- obs::BucketHistogram (bounded, serving-side) ---------------------------

TEST(BucketHistogramTest, BucketBoundsAreMonotoneAndConsistent) {
  using Snap = obs::HistogramSnapshot;
  for (size_t i = 0; i + 1 < Snap::kNumBuckets; ++i) {
    EXPECT_LT(Snap::BucketLowerBound(i), Snap::BucketUpperBound(i));
    EXPECT_DOUBLE_EQ(Snap::BucketUpperBound(i), Snap::BucketLowerBound(i + 1));
  }
  EXPECT_TRUE(std::isinf(Snap::BucketUpperBound(Snap::kNumBuckets - 1)));
}

TEST(BucketHistogramTest, BucketIndexMatchesBounds) {
  using Snap = obs::HistogramSnapshot;
  for (size_t i = 0; i < Snap::kNumBuckets; ++i) {
    const double lo = Snap::BucketLowerBound(i);
    EXPECT_EQ(obs::BucketHistogram::BucketIndex(lo), i) << "lower bound " << lo;
    // A value just below the upper bound still lands in bucket i.
    const double inside = lo * 1.01;
    if (inside < Snap::BucketUpperBound(i)) {
      EXPECT_EQ(obs::BucketHistogram::BucketIndex(inside), i);
    }
  }
  // Clamping at both ends plus the pathological inputs.
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(1e-300), 0u);
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(1e300),
            obs::BucketHistogram::kNumBuckets - 1);
  EXPECT_EQ(obs::BucketHistogram::BucketIndex(
                std::numeric_limits<double>::infinity()),
            obs::BucketHistogram::kNumBuckets - 1);
}

TEST(BucketHistogramTest, PercentileWithinBucketResolution) {
  obs::BucketHistogram h;
  util::Rng rng(7);
  // Log-uniform latencies between 1us and 100ms.
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double exponent = -6.0 + 5.0 * rng.Uniform(1000) / 1000.0;
    values.push_back(std::pow(10.0, exponent));
  }
  util::Histogram exact;
  for (const double v : values) {
    h.Observe(v);
    exact.Add(v);
  }
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.TotalCount(), values.size());
  EXPECT_NEAR(snap.Mean(), exact.Mean(), exact.Mean() * 1e-9);
  // The log-linear layout has <=25% relative bucket width (4 sub-buckets per
  // octave), so bucket percentiles track exact percentiles within a bucket.
  for (const double p : {50.0, 90.0, 99.0}) {
    const double approx = snap.Percentile(p);
    const double truth = exact.Percentile(p);
    EXPECT_NEAR(approx, truth, truth * 0.30)
        << "p" << p << " approx=" << approx << " exact=" << truth;
  }
}

TEST(BucketHistogramTest, SnapshotsMergeLosslessly) {
  obs::BucketHistogram a, b;
  for (int i = 1; i <= 1000; ++i) a.Observe(i * 1e-5);
  for (int i = 1; i <= 500; ++i) b.Observe(i * 1e-3);
  obs::HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  obs::BucketHistogram whole;
  for (int i = 1; i <= 1000; ++i) whole.Observe(i * 1e-5);
  for (int i = 1; i <= 500; ++i) whole.Observe(i * 1e-3);
  const obs::HistogramSnapshot expected = whole.Snapshot();
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_DOUBLE_EQ(merged.sum, expected.sum);
}

TEST(BucketHistogramTest, EmptySnapshotIsExplicitlyUndefined) {
  const obs::HistogramSnapshot snap = obs::BucketHistogram().Snapshot();
  EXPECT_EQ(snap.TotalCount(), 0u);
  EXPECT_TRUE(std::isnan(snap.Mean()));
  EXPECT_TRUE(std::isnan(snap.Percentile(50)));
}

TEST(BucketHistogramTest, OutOfRangeValuesAddDefinedSums) {
  obs::BucketHistogram h;
  h.Observe(-1.0);
  h.Observe(0.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets[0], 3u);
  EXPECT_EQ(snap.sum, 0.0);

  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(1e300);
  snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.buckets[obs::BucketHistogram::kNumBuckets - 1], 2u);
  EXPECT_EQ(snap.sum, 2 * obs::BucketHistogram::kMaxSummedValue);
}

TEST(BucketHistogramTest, DisabledMetricsSkipObservation) {
  obs::BucketHistogram h;
  obs::SetMetricsEnabled(false);
  h.Observe(1.0);
  obs::SetMetricsEnabled(true);
  h.Observe(1.0);
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(MetricsRegistryTest, InstrumentsAreNamedAndStable) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("test.counter");
  EXPECT_EQ(c, registry.counter("test.counter"));
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  registry.gauge("test.gauge")->Set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("test.gauge")->value(), 2.5);
  registry.histogram("test.hist")->Observe(0.01);
  const auto snaps = registry.HistogramSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].first, "test.hist");
  EXPECT_EQ(snaps[0].second.count, 1u);
}

}  // namespace
}  // namespace cnpb
