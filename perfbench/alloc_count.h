// Per-thread allocation counter fed by the replacement operator new in
// alloc_count.cc. Reading it before and after a single-threaded replay gives
// the exact number of heap allocations the replayed calls made.
#ifndef CNPROBASE_PERFBENCH_ALLOC_COUNT_H_
#define CNPROBASE_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Allocations made by the calling thread since it started.
uint64_t ThreadAllocs();

}  // namespace perfbench

#endif  // CNPROBASE_PERFBENCH_ALLOC_COUNT_H_
