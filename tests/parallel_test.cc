#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/parallel.h"
#include "util/thread_pool.h"

namespace cnpb::util {
namespace {

// Thread counts are varied through the override hook, never setenv:
// CNPB_THREADS is resolved once and cached, and setenv is not thread-safe
// against a pool that may read the environment concurrently.
class ParallelTest : public ::testing::Test {
 protected:
  void SetThreads(int n) { SetThreadsOverride(n); }
  void TearDown() override { SetThreadsOverride(0); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  SetThreads(4);
  for (const size_t n : {0ul, 1ul, 63ul, 64ul, 100ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    ParallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(ParallelTest, SlotWritesAreDeterministic) {
  SetThreads(8);
  std::vector<size_t> out_parallel(5000);
  ParallelFor(out_parallel.size(),
              [&](size_t i) { out_parallel[i] = i * i % 97; });
  SetThreads(1);
  std::vector<size_t> out_serial(5000);
  ParallelFor(out_serial.size(),
              [&](size_t i) { out_serial[i] = i * i % 97; });
  EXPECT_EQ(out_parallel, out_serial);
}

TEST_F(ParallelTest, MoreThreadsThanWork) {
  SetThreads(16);
  std::atomic<size_t> total{0};
  ParallelFor(70, [&](size_t i) { total += i; });
  EXPECT_EQ(total.load(), 70u * 69u / 2);
}

TEST_F(ParallelTest, DefaultThreadsPositiveAndOverridable) {
  EXPECT_GE(DefaultThreads(), 1);
  SetThreads(3);
  EXPECT_EQ(DefaultThreads(), 3);
  SetThreads(0);
  EXPECT_GE(DefaultThreads(), 1);
}

TEST_F(ParallelTest, ScopedOverrideRestoresPrevious) {
  SetThreads(2);
  {
    ScopedThreadsOverride inner(5);
    EXPECT_EQ(DefaultThreads(), 5);
  }
  EXPECT_EQ(DefaultThreads(), 2);
}

TEST_F(ParallelTest, ParallelMapPreservesIndexOrder) {
  SetThreads(8);
  const std::vector<size_t> out =
      ParallelMap(257, [](size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST_F(ParallelTest, MakeShardsCoversRangeExactly) {
  for (const size_t n : {0ul, 1ul, 5ul, 127ul, 128ul, 129ul, 100000ul}) {
    const auto shards = MakeShards(n);
    size_t covered = 0;
    size_t expected_begin = 0;
    for (const auto& [begin, end] : shards) {
      EXPECT_EQ(begin, expected_begin);
      EXPECT_LT(begin, end);
      covered += end - begin;
      expected_begin = end;
    }
    EXPECT_EQ(covered, n) << "n=" << n;
    if (n > 0) EXPECT_EQ(shards.back().second, n);
    // Pure function of n: thread overrides must not change the plan.
    SetThreads(7);
    EXPECT_EQ(MakeShards(n), shards);
    SetThreads(0);
  }
}

TEST_F(ParallelTest, MakeShardsGrainSetsShardSize) {
  // The default grain is 128 items: a 32-item input is one shard.
  EXPECT_EQ(MakeShards(32), MakeShards(32, kDefaultShardGrain));
  EXPECT_EQ(MakeShards(32).size(), 1u);
  // A grain of 4 splits the same input into 8 balanced shards of 4.
  const auto shards = MakeShards(32, 4);
  ASSERT_EQ(shards.size(), 8u);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s], IndexRange(4 * s, 4 * s + 4));
  }
  // Uneven inputs balance to within one item; the cap still bounds the
  // shard count.
  for (const auto& [begin, end] : MakeShards(10, 4)) {
    EXPECT_GE(end - begin, 3u);
    EXPECT_LE(end - begin, 4u);
  }
  EXPECT_EQ(MakeShards(100000, 1).size(), 256u);
  // Still a pure function of (n, grain), never of the thread count.
  SetThreads(7);
  EXPECT_EQ(MakeShards(32, 4), shards);
  SetThreads(0);
}

TEST_F(ParallelTest, ShardedConcatEqualsSerialConcat) {
  SetThreads(8);
  // Each shard contributes a variable-length list; concatenation must be in
  // index order regardless of scheduling.
  const auto out = ShardedConcat(1000, [](size_t begin, size_t end) {
    std::vector<size_t> part;
    for (size_t i = begin; i < end; ++i) {
      for (size_t k = 0; k <= i % 3; ++k) part.push_back(i);
    }
    return part;
  });
  std::vector<size_t> expected;
  for (size_t i = 0; i < 1000; ++i) {
    for (size_t k = 0; k <= i % 3; ++k) expected.push_back(i);
  }
  EXPECT_EQ(out, expected);
}

// --- ThreadPool itself ----------------------------------------------------

TEST(ThreadPoolTest, RunsNothingForEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, FewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(3, 8, [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ManyMoreItemsThanWorkers) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<uint8_t>> hits(kN);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(kN, 4, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReentrantCallRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(kOuter, 4, [&](size_t outer) {
    // This nested call happens on a pool worker (or the caller); it must
    // complete inline rather than waiting on the already-busy queue.
    pool.ParallelFor(kInner, 4, [&](size_t inner) {
      ++hits[outer * kInner + inner];
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedGlobalParallelForCompletes) {
  ScopedThreadsOverride threads(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  for (auto& h : hits) h = 0;
  ParallelFor(64, [&](size_t outer) {
    ParallelFor(16, [&](size_t inner) { ++hits[outer * 16 + inner]; });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2);
  pool.EnsureWorkers(5);
  EXPECT_EQ(pool.num_workers(), 5);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_workers(), 5);
  // The grown pool still covers every index exactly once.
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(1000, 5, [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool) {
  ThreadPool pool(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  for (auto& h : hits_a) h = 0;
  for (auto& h : hits_b) h = 0;
  std::thread submitter(
      [&]() { pool.ParallelFor(kN, 4, [&](size_t i) { ++hits_a[i]; }); });
  pool.ParallelFor(kN, 4, [&](size_t i) { ++hits_b[i]; });
  submitter.join();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1) << i;
    ASSERT_EQ(hits_b[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace cnpb::util
