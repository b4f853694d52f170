#ifndef CNPROBASE_OBS_METRICS_H_
#define CNPROBASE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cnpb::obs {

// Process-wide observability instruments. Three kinds:
//
//   Counter          monotone event count (relaxed-atomic increments)
//   Gauge            last-written value (stage wall time, snapshot age, ...)
//   BucketHistogram  bounded log-bucket latency histogram, lock-free on the
//                    write path, with mergeable snapshots
//
// Unlike util::Histogram (which keeps every sample and re-sorts for
// percentiles — fine for benches, unusable on a hot query path), a
// BucketHistogram is O(1) memory with a fixed bucket layout, so it can sit
// on the serving path of ApiService and inside sharded build loops.
//
// All instruments live in a MetricsRegistry, addressed by dotted names
// ("api.latency.men2ent"); the exporters in obs/export.h turn a registry
// into Prometheus text or JSON. Instrument handles returned by the registry
// are stable for the registry's lifetime — callers on hot paths look them
// up once and cache the pointer.

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

// Global kill switch (default on). When off, instruments skip their atomic
// writes and timers skip their clock reads, so a metrics-disabled run is the
// baseline the <2%-overhead contract in bench_scaling compares against.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (MetricsEnabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) {
    if (MetricsEnabled()) value_.store(value, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// One immutable copy of a BucketHistogram's state. Snapshots taken while
// writers are still running are internally consistent per bucket (each
// bucket count is a single atomic load) but not a cross-bucket atomic cut;
// once writers quiesce, totals are exact. Snapshots merge by bucket-wise
// addition, so per-shard or per-service histograms aggregate losslessly.
struct HistogramSnapshot {
  // Fixed log-linear layout: kSubPerOctave buckets per power of two,
  // spanning [2^kMinExp, 2^kMaxExp). Values are typically seconds: the
  // layout covers ~60 ns .. 256 s with <=19% relative bucket width.
  static constexpr int kSubBits = 2;
  static constexpr int kSubPerOctave = 1 << kSubBits;
  static constexpr int kMinExp = -24;
  static constexpr int kMaxExp = 8;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubPerOctave;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  double sum = 0.0;

  // Inclusive lower / exclusive upper value bound of bucket i. The first
  // bucket also absorbs every value below 2^kMinExp (and non-positive
  // values); the last absorbs everything >= its lower bound.
  static double BucketLowerBound(size_t i);
  static double BucketUpperBound(size_t i);

  void Merge(const HistogramSnapshot& other);

  uint64_t TotalCount() const;  // sum over buckets (use instead of `count`
                                // for percentiles mid-flight)
  double Mean() const;
  // p in [0, 100]; linear interpolation inside the owning bucket. NaN when
  // empty.
  double Percentile(double p) const;
};

// Fixed-size log-bucket histogram with lock-free relaxed-atomic increments.
// Observe is wait-free (bucket index is computed from the double's bit
// pattern — no libm call) and touches three cache lines at most: the
// bucket, the count, and the sum.
class BucketHistogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;
  // The sum is kept as an integer count of 1/kSumUnitsPerValue of the
  // observed unit — picoseconds for the *_seconds histograms — so
  // concurrent adds commute and a snapshot's sum does not depend on the
  // order writers ran in. Each value rounds to the nearest unit, which
  // keeps the mean of microsecond latencies exact to ~1e-9 relative.
  // The sum wraps after 2^64 units, ~213 days of summed seconds.
  static constexpr double kSumUnitsPerValue = 1e12;
  // Values above this (2^20, ~12 days in seconds) add as much as it does,
  // so the conversion to an integer is always defined and one stray value
  // cannot wrap the sum.
  static constexpr double kMaxSummedValue = 1048576.0;

  void Observe(double value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_units_.fetch_add(SumUnits(value), std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  // Maps a value to its bucket. Non-positive and NaN clamp to bucket 0,
  // oversized values to the last bucket. Pure function, exposed for tests.
  static size_t BucketIndex(double value);

 private:
  // What `value` adds to the sum: non-positive and NaN values add 0 (they
  // count in bucket 0 like any other observation), the rest add
  // round(min(value, kMaxSummedValue) * kSumUnitsPerValue).
  static uint64_t SumUnits(double value) {
    if (!(value > 0.0)) return 0;
    if (value > kMaxSummedValue) value = kMaxSummedValue;
    return static_cast<uint64_t>(value * kSumUnitsPerValue + 0.5);
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_units_{0};
};

// Observes wall time into a BucketHistogram (in seconds) on destruction.
// Skips the clock reads entirely when metrics are disabled or `hist` is
// null, so the disabled cost is one relaxed load and a branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(BucketHistogram* hist)
      : hist_(MetricsEnabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  BucketHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// Named instrument store. Lookup is mutex-guarded (cache the returned
// pointer on hot paths); the returned instruments live as long as the
// registry and are safe to use from any thread.
class MetricsRegistry {
 public:
  // The process-wide registry every subsystem reports into by default.
  static MetricsRegistry& Global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  BucketHistogram* histogram(std::string_view name);

  // Stable name-sorted copies for the exporters.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramSnapshots()
      const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<BucketHistogram>, std::less<>>
      histograms_;
};

}  // namespace cnpb::obs

#endif  // CNPROBASE_OBS_METRICS_H_
