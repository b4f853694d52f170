#ifndef CNPROBASE_TAXONOMY_API_SERVICE_H_
#define CNPROBASE_TAXONOMY_API_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/snapshot.h"

namespace cnpb::taxonomy {

// In-process equivalent of the three web APIs the paper deploys on Aliyun
// (Table II):
//   men2ent    — mention  -> disambiguated entities
//   getConcept — entity   -> hypernym (concept) list
//   getEntity  — concept  -> hyponym (entity) list
// Every call is counted so the Table II workload bench can report the mix.
//
// Versioned serving: CN-Probase sits on a never-ending extraction system
// (CN-DBpedia), so updates and queries are concurrent by design. The service
// holds an RCU-style snapshot — one swappable shared_ptr to an immutable
// {taxonomy, mention index, version} triple. Each query pins the current
// snapshot (a release/acquire-ordered refcount bump) and answers entirely
// against it, so queries never block on, and never observe a half-applied,
// update. Publish installs a fully-built replacement with one release-ordered
// pointer swap; retired versions are freed when the last in-flight query
// releases them.
//
// Thread safety: the query APIs may be called concurrently from any number
// of threads, including while Publish runs. Call counters are relaxed
// atomics, so usage().total() is exact once all callers have joined.
//
// One query path per API: men2ent, getConcept and getEntity each have a
// single-item Try*Resolved call and a Try*BatchResolved form. Both run
// through one serving skeleton (call count, latency sample, admission, the
// api.query / api.resolve fault points, the version pin, the deadline), so
// a single-item call and a batch of one answer, stamp and count alike.
//
// Graceful degradation (DESIGN.md §8): SetServingLimits arms an in-flight
// concurrency cap and a per-query deadline. Queries report
// ResourceExhausted when admission sheds the call and DeadlineExceeded when
// the budget elapses mid-query — fail fast rather than queue unboundedly.
// With no limits configured both checks cost one relaxed load each.
//
// Serving representation: each published version wraps one immutable
// ServingView (see view.h) over CNPBSNP bytes — encoded at publish time
// from a (Taxonomy, MentionIndex) pair, or mmap'd from a snapshot file by
// ServingView::Load. Both are the same bytes, so a version answers the same
// whichever way it arrived.
class ApiService {
 public:
  // mention -> candidate entity nodes, as built for one taxonomy version.
  // (Alias of taxonomy::MentionIndex, kept for existing callers.)
  using MentionIndex = ::cnpb::taxonomy::MentionIndex;

  // A plain snapshot of the call counters (see usage()).
  struct UsageStats {
    uint64_t men2ent_calls = 0;
    uint64_t get_concept_calls = 0;
    uint64_t get_entity_calls = 0;
    uint64_t total() const {
      return men2ent_calls + get_concept_calls + get_entity_calls;
    }
  };

  // Per-version history is bounded: the service keeps the current version
  // and the kVersionHistory - 1 versions before it, and folds every older
  // one into a single aggregate.
  static constexpr size_t kVersionHistory = 16;

  // Per-published-version serving statistics; `queries` counts the calls
  // answered while that version was the pinned snapshot, so benches can
  // attribute QPS to taxonomy versions. `version == 0` marks the aggregate
  // of every version evicted from the history (num_edges and num_mentions
  // are then 0).
  struct VersionStats {
    uint64_t version = 0;
    size_t num_edges = 0;
    size_t num_mentions = 0;
    uint64_t queries = 0;
    // Wall time the version spent (or has spent so far) as the live
    // snapshot; queries / seconds_serving is the per-version QPS.
    double seconds_serving = 0.0;
  };

  // Overload policy. Zero means "no limit"; both knobs default off.
  struct ServingLimits {
    // Maximum queries allowed in flight at once; excess calls are shed
    // immediately with ResourceExhausted (counted in api.shed).
    size_t max_in_flight = 0;
    // Per-query time budget; exceeded queries return DeadlineExceeded
    // (counted in api.deadline_exceeded).
    std::chrono::microseconds deadline{0};
  };

  // Serves `taxonomy` as version 1, encoded with `mentions` (the index
  // core::CnProbaseBuilder::BuildMentionIndex built for it; candidate ids
  // outside the taxonomy are dropped). The taxonomy is only read during
  // the call, so util::UnownedSnapshot(&t) serves a caller-owned one.
  explicit ApiService(std::shared_ptr<const Taxonomy> taxonomy,
                      MentionIndex mentions = MentionIndex());

  // Serves `view` as version 1 — typically one freshly mmap-loaded from
  // disk by ServingView::Load (zero-copy cold start).
  explicit ApiService(std::shared_ptr<const ServingView> view);

  // Atomically publishes a new serving version: builds the version entry
  // off to the side, then installs it with one release-ordered swap.
  // In-flight queries keep whichever they pinned; later queries observe the
  // new one. Returns the new version number (monotonically increasing from
  // 1). Safe to call concurrently with queries; concurrent publishers are
  // serialised.
  uint64_t Publish(std::shared_ptr<const ServingView> view);

  // Encodes (taxonomy, mentions) with ServingView::Encode, then publishes
  // the result. Encoding happens before admission, off to the side.
  uint64_t Publish(std::shared_ptr<const Taxonomy> taxonomy,
                   MentionIndex mentions);

  // Fallible publish: fails with ResourceExhausted under (injected)
  // contention on the `api.publish` fault point. Publish() wraps this in a
  // util::Retry exponential backoff, which is what callers normally want.
  // The (taxonomy, mentions) form encodes first, as Publish does.
  util::Result<uint64_t> TryPublish(std::shared_ptr<const ServingView> view);
  util::Result<uint64_t> TryPublish(std::shared_ptr<const Taxonomy> taxonomy,
                                    MentionIndex mentions);

  // Installs the overload policy; takes effect for subsequent queries.
  // Safe to call while queries are in flight.
  void SetServingLimits(const ServingLimits& limits);
  ServingLimits serving_limits() const;

  // men2ent answer: candidate entities with names resolved against the same
  // pinned snapshot that produced the ids. A remote client cannot pin our
  // snapshot between two calls, so ids, names, and the version stamp must
  // come from one coherent version (the serve-while-update chaos test
  // relies on this).
  struct ResolvedEntity {
    NodeId id = kInvalidNode;
    std::string name;
    // Ranking key: hypernym count as a popularity proxy.
    size_t num_hypernyms = 0;
  };
  struct Men2EntResolved {
    uint64_t version = 0;  // the version every entry was resolved against
    std::vector<ResolvedEntity> entities;
  };

  // getConcept / getEntity answers carrying the version of the snapshot the
  // names were resolved against. The HTTP layer must stamp the version the
  // data actually came from; reading version() after the query returns
  // races a concurrent publish and can stamp a version the data was never
  // resolved against.
  struct NamesResolved {
    uint64_t version = 0;  // the version every name was resolved against
    std::vector<std::string> names;
  };

  // Batch answers: N inputs resolved against ONE pinned snapshot, so every
  // item shares a single coherent version stamp.
  struct Men2EntBatchResolved {
    uint64_t version = 0;
    std::vector<std::vector<ResolvedEntity>> results;  // one per input
  };
  struct NamesBatchResolved {
    uint64_t version = 0;
    std::vector<std::vector<std::string>> results;  // one per input
  };

  // The three Table II queries. Errors:
  //   ResourceExhausted  shed by the in-flight cap
  //   DeadlineExceeded   per-query budget elapsed
  //   IoError            injected fault at api.query (chaos testing)
  //
  // men2ent: candidate entities for a mention, most-popular first
  // (popularity = number of hypernyms, a proxy for page richness).
  util::Result<Men2EntResolved> TryMen2EntResolved(
      std::string_view mention) const;
  // getConcept: hypernym names of an entity (or concept) name, ranked by
  // edge confidence. With `transitive`, inherited hypernyms (ancestors of
  // the direct ones) are appended after the direct list.
  util::Result<NamesResolved> TryGetConceptResolved(
      std::string_view entity_name, bool transitive = false) const;
  // getEntity: direct hyponym names of a concept in node-id order, capped at
  // `limit`. The incremental updater never renumbers a node outside a
  // revoking rebuild, so this order is stable across its batches.
  util::Result<NamesResolved> TryGetEntityResolved(
      std::string_view concept_name, size_t limit = 100) const;

  // Extension point for derived query engines (src/reason/): runs `fn`
  // against one pinned snapshot under the same serving contract as the
  // built-in queries — admission by the in-flight cap (ResourceExhausted),
  // the api.query / api.resolve fault points, one query charged to the
  // pinned version's totals, and the per-query deadline checked after `fn`
  // returns (reasoning traversals are bounded, so a post-check suffices
  // exactly as it does for the built-in resolvers). `fn` must answer
  // entirely from the view it is handed; the paired version number is the
  // only stamp its results may carry. `api` names the call in error
  // messages. `fn` is not called when the query is shed.
  util::Status TryQuery(
      const char* api,
      const std::function<util::Status(const ServingView& view,
                                       uint64_t version)>& fn) const;

  // Batch variants: one admission slot, one snapshot pin, one version stamp
  // for the whole request; each item still counts as one logical call in
  // usage() and the per-version query totals. The per-query deadline is
  // checked between items; exceeding it mid-batch fails the whole batch.
  util::Result<Men2EntBatchResolved> TryMen2EntBatchResolved(
      const std::vector<std::string>& mentions) const;
  util::Result<NamesBatchResolved> TryGetConceptBatchResolved(
      const std::vector<std::string>& entities, bool transitive = false) const;
  util::Result<NamesBatchResolved> TryGetEntityBatchResolved(
      const std::vector<std::string>& concepts, size_t limit = 100) const;

  // Pins and returns the currently served view (clients that need several
  // coherent lookups should query this snapshot directly).
  std::shared_ptr<const ServingView> CurrentView() const;

  // Version number of the currently served snapshot.
  uint64_t version() const;

  // Stats for the retained versions in publish order (at most
  // kVersionHistory, the last one current), preceded by the evicted-version
  // aggregate once any version has been evicted. The queries partition
  // usage().total() once callers have joined. A query that pinned a version
  // and was descheduled for kVersionHistory publishes before charging it is
  // charged to the newest version instead: still counted exactly once.
  std::vector<VersionStats> AllVersionStats() const;

  // Snapshot of the call counters. Each counter is read atomically; the
  // snapshot as a whole is not a cross-counter atomic cut, but once all
  // callers have joined it is exact.
  UsageStats usage() const;
  void ResetUsage();  // also zeroes the per-version query counters

  // Mentions resolvable in the currently served version.
  size_t num_mentions() const;

  // Writes the serving-side gauges that only make sense at export time into
  // `registry`: for each retained version, by fixed slot (slot 0 the
  // current version, slot k the k-th before it), its number, query total,
  // serving seconds and QPS (api.version.slot<k>.{version,queries,
  // serving_seconds,qps}); the evicted versions' query total
  // (api.version.evicted.queries); and the age of the currently
  // pinned snapshot (api.snapshot_age_seconds). The name set is bounded
  // however many versions are published. Call right before exporting the
  // registry.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  friend class QueryGuard;

  // One published, immutable serving version. `queries` is its slot in
  // query_slots_, which outlives the version's retirement.
  struct Version {
    std::shared_ptr<const ServingView> view;
    uint64_t version = 0;
    std::atomic<uint64_t>* queries = nullptr;
    std::chrono::steady_clock::time_point published_at;
  };

  // History entry of a retained version; its query count lives in
  // QuerySlot(version).
  struct VersionRecord {
    uint64_t version = 0;
    size_t num_edges = 0;
    size_t num_mentions = 0;
    std::chrono::steady_clock::time_point published_at;
    // Set by the publish that superseded this version (publishers are
    // serialised, so the last history_ entry is the only live one).
    std::chrono::steady_clock::time_point retired_at;
    bool retired = false;
  };

  // Per-API accounting. `calls` is a relaxed atomic bumped per logical call
  // and folded into the registry `counter` as a delta by ExportMetrics
  // (`exported` is the part already folded), so the query path pays one
  // fetch_add. `latency` is fed by a 1-in-256 per-thread sample of queries
  // (see DESIGN.md §7) so the two steady_clock reads stay off the common
  // query path.
  struct Meter {
    Meter(const char* calls_name, const char* latency_name);
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> exported{0};
    obs::Counter* const counter;
    obs::BucketHistogram* const latency;
  };

  // The serving skeleton every query runs through: counts `items` calls on
  // `meter` and samples latency (both skipped when `meter` is null), admits
  // through QueryGuard, fires api.query, pins one version and charges it
  // `items` queries, fires api.resolve, runs `body(pinned_version, guard)`,
  // then checks the deadline. Batch bodies also check the deadline between
  // items through the guard. `api` names the call in error messages.
  template <typename Body>
  util::Status Serve(const char* api, Meter* meter, size_t items,
                     Body&& body) const;

  // Query bodies against an already-pinned view; shared by the single-shot
  // and batch variants.
  static std::vector<ResolvedEntity> ResolveMention(const ServingView& view,
                                                    std::string_view mention);
  static std::vector<std::string> ConceptNames(const ServingView& view,
                                               std::string_view entity_name,
                                               bool transitive);
  static std::vector<std::string> EntityNames(const ServingView& view,
                                              std::string_view concept_name,
                                              size_t limit);

  // The actual swap (old Publish body); assumes admission already passed.
  uint64_t PublishInternal(std::shared_ptr<const ServingView> view);

  std::atomic<uint64_t>& QuerySlot(uint64_t version) const {
    return query_slots_[version % kVersionHistory];
  }

  util::SnapshotHolder<Version> snapshot_;

  // serialises Publish; guards history_ and the evicted_* aggregate.
  mutable std::mutex publish_mu_;
  std::deque<VersionRecord> history_;  // at most kVersionHistory, oldest first
  // Per-version query counters. A retained version's slot is never shared:
  // the version that evicts another takes over the evicted one's slot.
  mutable std::array<std::atomic<uint64_t>, kVersionHistory> query_slots_{};
  bool evicted_ = false;
  uint64_t evicted_queries_ = 0;
  double evicted_seconds_ = 0.0;
  uint64_t next_version_ = 1;

  // Overload policy + in-flight gauge. Relaxed atomics: admission is a
  // heuristic cap, not a strict semaphore, so a momentary overshoot under
  // contention is acceptable and keeps the admission check lock-free.
  std::atomic<size_t> max_in_flight_{0};
  std::atomic<int64_t> deadline_ns_{0};
  mutable std::atomic<size_t> in_flight_{0};

  mutable Meter men2ent_{"api.calls.men2ent", "api.latency.men2ent_seconds"};
  mutable Meter get_concept_{"api.calls.get_concept",
                             "api.latency.get_concept_seconds"};
  mutable Meter get_entity_{"api.calls.get_entity",
                            "api.latency.get_entity_seconds"};

  obs::BucketHistogram* const publish_latency_ =
      obs::MetricsRegistry::Global().histogram("api.publish.latency_seconds");
  obs::Counter* const publishes_ =
      obs::MetricsRegistry::Global().counter("api.publishes");
  // Degradation accounting (DESIGN.md §8).
  obs::Counter* const shed_ =
      obs::MetricsRegistry::Global().counter("api.shed");
  obs::Counter* const deadline_exceeded_ =
      obs::MetricsRegistry::Global().counter("api.deadline_exceeded");
  obs::Counter* const publish_retries_ =
      obs::MetricsRegistry::Global().counter("api.publish.retries");
};

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_API_SERVICE_H_
