#ifndef CNPROBASE_UTIL_PARALLEL_H_
#define CNPROBASE_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace cnpb::util {

// Runs fn(i) for every i in [0, n) on the process-wide thread pool, using up
// to DefaultThreads() lanes (the calling thread participates). Determinism
// contract: fn must write only to per-index state (e.g. slot i of a
// pre-sized output vector); the caller then reads slots in order, so results
// are independent of thread count and scheduling. fn must not throw (the
// project does not use exceptions). Reentrant calls (fn itself calling
// ParallelFor) execute the nested loop inline and serially.
inline void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const int threads = DefaultThreads();
  if (threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(threads);
  pool.ParallelFor(n, threads, fn);
}

// Parallel map into per-index slots: returns {fn(0), fn(1), ..., fn(n-1)}.
// The result type must be default-constructible; output order is index
// order regardless of scheduling.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn) {
  using T = std::decay_t<decltype(fn(size_t{0}))>;
  std::vector<T> out(n);
  ParallelFor(n, [&out, &fn](size_t i) { out[i] = fn(i); });
  return out;
}

// A contiguous half-open index range [begin, end).
using IndexRange = std::pair<size_t, size_t>;

// Items per shard MakeShards targets by default: cheap per-item work (a
// verification scan over one candidate) needs this many items before a
// shard outweighs its dispatch.
inline constexpr size_t kDefaultShardGrain = 128;

// Deterministic contiguous shard plan for n items: a pure function of
// (n, grain) alone (never of the thread count), so any code that processes
// shards independently and concatenates results in shard order produces
// output that is byte-identical for every CNPB_THREADS value. Shards are
// balanced to within one item; the count targets ~`grain` (> 0) items per
// shard, capped so huge inputs do not drown the scheduler in tiny tasks.
// Costly per-item work (a CopyNet decode per page) passes a small grain so
// that even a short input spreads over every lane.
inline std::vector<IndexRange> MakeShards(size_t n,
                                          size_t grain = kDefaultShardGrain) {
  constexpr size_t kMaxShards = 256;
  if (n == 0) return {};
  const size_t wanted = (n + grain - 1) / grain;
  const size_t num_shards = std::min(std::min(wanted, kMaxShards), n);
  std::vector<IndexRange> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = n * s / num_shards;
    const size_t end = n * (s + 1) / num_shards;
    if (begin < end) shards.emplace_back(begin, end);
  }
  return shards;
}

// Moves per-shard containers into one, in shard order — the order-stable
// merge that keeps sharded extraction byte-identical to a serial pass.
template <typename List>
List ConcatInOrder(std::vector<List>& parts) {
  size_t total = 0;
  for (const List& part : parts) total += part.size();
  List out;
  out.reserve(total);
  for (List& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

// Runs fn(begin, end) over every shard of [0, n) in parallel and
// concatenates the returned containers in shard order.
template <typename Fn>
auto ShardedConcat(size_t n, Fn&& fn) {
  const std::vector<IndexRange> shards = MakeShards(n);
  auto parts = ParallelMap(
      shards.size(),
      [&](size_t s) { return fn(shards[s].first, shards[s].second); });
  return ConcatInOrder(parts);
}

}  // namespace cnpb::util

#endif  // CNPROBASE_UTIL_PARALLEL_H_
