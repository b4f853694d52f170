#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <limits>

namespace cnpb::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---- HistogramSnapshot ------------------------------------------------------

double HistogramSnapshot::BucketLowerBound(size_t i) {
  const int octave = kMinExp + static_cast<int>(i) / kSubPerOctave;
  const double mantissa =
      1.0 + static_cast<double>(i % kSubPerOctave) / kSubPerOctave;
  return std::ldexp(mantissa, octave);
}

double HistogramSnapshot::BucketUpperBound(size_t i) {
  if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return BucketLowerBound(i + 1);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

uint64_t HistogramSnapshot::TotalCount() const {
  uint64_t total = 0;
  for (const uint64_t b : buckets) total += b;
  return total;
}

double HistogramSnapshot::Mean() const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(count);
}

double HistogramSnapshot::Percentile(double p) const {
  const uint64_t total = TotalCount();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Rank in (0, total]; the sample at cumulative rank `target` owns p.
  double target = p / 100.0 * static_cast<double>(total);
  if (target < 1.0) target = 1.0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(cumulative + buckets[i]) >= target) {
      const double frac =
          (target - static_cast<double>(cumulative)) / buckets[i];
      const double lo = BucketLowerBound(i);
      double hi = BucketUpperBound(i);
      // The overflow bucket has no finite ceiling; report its floor rather
      // than interpolating toward infinity.
      if (!std::isfinite(hi)) hi = lo;
      return lo + frac * (hi - lo);
    }
    cumulative += buckets[i];
  }
  return BucketLowerBound(kNumBuckets - 1);
}

// ---- BucketHistogram --------------------------------------------------------

size_t BucketHistogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // non-positive and NaN clamp low
  // For positive doubles the IEEE-754 bit pattern is monotone in the value:
  // the biased exponent plus the top kSubBits mantissa bits form the
  // log-linear slot directly — no libm call on the hot path.
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const int64_t slot =
      static_cast<int64_t>(bits >> (52 - HistogramSnapshot::kSubBits)) -
      (static_cast<int64_t>(HistogramSnapshot::kMinExp + 1023)
       << HistogramSnapshot::kSubBits);
  if (slot < 0) return 0;
  if (slot >= static_cast<int64_t>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<size_t>(slot);
}

HistogramSnapshot BucketHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = static_cast<double>(sum_units_.load(std::memory_order_relaxed)) /
             kSumUnitsPerValue;
  return snap;
}

// ---- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instruments may be touched from atexit-ordered code.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

BucketHistogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<BucketHistogram>())
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::HistogramSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram->Snapshot());
  }
  return out;
}

}  // namespace cnpb::obs
