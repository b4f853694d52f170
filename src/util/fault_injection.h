#ifndef CNPROBASE_UTIL_FAULT_INJECTION_H_
#define CNPROBASE_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace cnpb::util {

// Deterministic fault injection for chaos testing. Code under test declares
// named fault points ("kb.dump.read", "snapshot.rename", "api.query");
// a test or operator arms a subset of them with firing probabilities, and an
// armed point either fails (returns an error Status for the caller to
// propagate) or injects latency (sleeps), decided by a PRNG seeded per point
// so a given (spec, seed) pair replays the exact same fault schedule.
//
// Spec grammar (also accepted from the CNPB_FAULTS environment variable,
// seeded by CNPB_FAULT_SEED):
//
//   spec    := entry (';' entry)*
//   entry   := point '=' probability (':' option)*
//   option  := "delay=" millis          fire = sleep, not error
//            | "limit=" count           stop firing after `count` fires
//
//   CNPB_FAULTS="kb.dump.read=0.5;api.query=0.02:delay=2;api.publish=0.3:limit=4"
//
// Cost contract: when no faults are armed (the production state),
// CheckFault() is one relaxed atomic load and a never-taken branch — the
// same pattern as obs::MetricsEnabled, which holds the <2% overhead budget
// on the query path. The injector's mutex is only ever touched while armed.

namespace internal_fault {
extern std::atomic<bool> g_faults_armed;
}  // namespace internal_fault

// True when at least one fault point is armed.
inline bool FaultsArmed() {
  return internal_fault::g_faults_armed.load(std::memory_order_relaxed);
}

// One armed fault point.
struct FaultSpec {
  double probability = 0.0;
  int delay_ms = 0;       // > 0: latency fault (sleep) instead of an error
  int64_t max_fires = -1; // >= 0: disarm after this many fires
};

class FaultInjector {
 public:
  // The process-wide injector. First use arms it from CNPB_FAULTS /
  // CNPB_FAULT_SEED if those are set.
  static FaultInjector& Global();

  // Replaces the armed set with `spec` (see grammar above). An empty spec
  // disarms everything. Point names are free-form but should match the
  // registry in DESIGN.md §8.
  Status Configure(std::string_view spec, uint64_t seed);
  void Clear();

  // Slow path behind CheckFault(); call only while armed. Returns an
  // injected IoError when the point fires as an error, Ok otherwise
  // (including after an injected delay).
  Status CheckSlow(std::string_view point);

  // Times a point has fired (errors and delays both count).
  uint64_t fires(std::string_view point) const;
  std::vector<std::pair<std::string, uint64_t>> FireCounts() const;

  // Current spec string and seed (for logging / test diagnostics).
  std::string spec() const;
  uint64_t seed() const;

 private:
  struct PointState {
    FaultSpec spec;
    Rng rng{0};
    uint64_t fire_count = 0;
    uint64_t call_count = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
  std::string spec_string_;
  uint64_t seed_ = 0;
};

// The hot-path check every fault point compiles down to.
inline Status CheckFault(std::string_view point) {
  if (!FaultsArmed()) return Status::Ok();
  return FaultInjector::Global().CheckSlow(point);
}

// Arms a spec for the lifetime of a scope and restores the previous
// configuration (usually "disarmed") on destruction — the test helper.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::string_view spec, uint64_t seed);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  std::string previous_spec_;
  uint64_t previous_seed_;
};

}  // namespace cnpb::util

#endif  // CNPROBASE_UTIL_FAULT_INJECTION_H_
