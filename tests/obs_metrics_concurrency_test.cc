// Concurrency contract of the obs instruments, run under TSan in CI:
// N writer threads hammer a BucketHistogram (and counters) while reader
// threads take snapshots; once writers join, totals are exact.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cnpb::obs {
namespace {

TEST(BucketHistogramConcurrencyTest, WritersAndSnapshotReaders) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 2;
  constexpr int kObservationsPerWriter = 20000;

  BucketHistogram histogram;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_taken{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      uint64_t last_total = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const HistogramSnapshot snap = histogram.Snapshot();
        const uint64_t total = snap.TotalCount();
        // Bucket totals only grow; a snapshot mid-flight is a lower bound of
        // any later snapshot.
        ASSERT_GE(total, last_total);
        last_total = total;
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&histogram, &snapshots_taken, w]() {
      // Start once the readers are snapshotting, so the writes overlap
      // them even when the scheduler runs the writers first.
      while (snapshots_taken.load(std::memory_order_relaxed) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kObservationsPerWriter; ++i) {
        // Deterministic per-writer value pattern spanning many buckets.
        const double value = 1e-6 * (1 + ((w * 31 + i) % 1000));
        histogram.Observe(value);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(snapshots_taken.load(), 0u);

  // After the writers quiesce the snapshot is exact, and equals the same
  // observations replayed serially.
  BucketHistogram serial;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kObservationsPerWriter; ++i) {
      serial.Observe(1e-6 * (1 + ((w * 31 + i) % 1000)));
    }
  }
  const HistogramSnapshot concurrent = histogram.Snapshot();
  const HistogramSnapshot expected = serial.Snapshot();
  EXPECT_EQ(concurrent.count,
            static_cast<uint64_t>(kWriters) * kObservationsPerWriter);
  EXPECT_EQ(concurrent.TotalCount(), concurrent.count);
  EXPECT_EQ(concurrent.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(concurrent.sum, expected.sum);
}

TEST(BucketHistogramConcurrencyTest, PerShardHistogramsMergeExactly) {
  // The per-shard pattern the build pipeline uses: each thread owns a
  // histogram, snapshots merge afterwards.
  constexpr int kShards = 6;
  constexpr int kPerShard = 5000;
  std::vector<BucketHistogram> shards(kShards);
  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&shards, s]() {
      for (int i = 0; i < kPerShard; ++i) {
        shards[s].Observe(1e-5 * (1 + (i % 100)) * (s + 1));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  HistogramSnapshot merged;
  for (const BucketHistogram& shard : shards) merged.Merge(shard.Snapshot());
  EXPECT_EQ(merged.TotalCount(),
            static_cast<uint64_t>(kShards) * kPerShard);
  EXPECT_EQ(merged.count, merged.TotalCount());
}

TEST(MetricsConcurrencyTest, CountersAndRegistryLookupsAreThreadSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry]() {
      // Every thread resolves the instruments by name itself — registration
      // races on first use are part of the contract.
      Counter* counter = registry.counter("test.concurrent.counter");
      Gauge* gauge = registry.gauge("test.concurrent.gauge");
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        if (i % 1024 == 0) gauge->Set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.counter("test.concurrent.counter")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace cnpb::obs
