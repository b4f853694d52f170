#include "taxonomy/api_service.h"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/strings.h"

namespace cnpb::taxonomy {

namespace {

// Query latency is sampled 1-in-256 per thread: the histogram write is
// cheap but the two steady_clock reads around a ~100ns lookup are not, and
// sampling keeps the instrumented service within the <2% overhead budget
// (enforced by bench_scaling) without losing percentile fidelity at
// realistic call volumes.
constexpr uint32_t kLatencySampleMask = 255;

bool SampleQueryLatency() {
  thread_local uint32_t tick = 0;
  return (++tick & kLatencySampleMask) == 0;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

// Admission + deadline bookkeeping for one query. Construction charges the
// in-flight gauge when a cap is armed; destruction releases it. When both
// knobs are off (the default) the whole guard is two relaxed loads.
class QueryGuard {
 public:
  explicit QueryGuard(const ApiService& service) : service_(service) {
    const size_t cap = service.max_in_flight_.load(std::memory_order_relaxed);
    if (cap > 0) {
      counted_ = true;
      if (service.in_flight_.fetch_add(1, std::memory_order_relaxed) + 1 >
          cap) {
        shed_ = true;
        service.shed_->Increment();
        return;
      }
    }
    const int64_t deadline_ns =
        service.deadline_ns_.load(std::memory_order_relaxed);
    if (deadline_ns > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(deadline_ns);
      armed_deadline_ = true;
    }
  }
  ~QueryGuard() {
    if (counted_) {
      service_.in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  // Non-OK when the call must be shed before doing any work.
  util::Status Admission(const char* api) const {
    if (!shed_) return util::Status::Ok();
    return util::ResourceExhaustedError(
        util::StrFormat("%s shed: in-flight cap reached", api));
  }

  // Non-OK once the per-query budget has elapsed.
  util::Status Deadline(const char* api) const {
    if (!armed_deadline_ || std::chrono::steady_clock::now() <= deadline_) {
      return util::Status::Ok();
    }
    service_.deadline_exceeded_->Increment();
    return util::DeadlineExceededError(
        util::StrFormat("%s: query deadline exceeded", api));
  }

 private:
  const ApiService& service_;
  std::chrono::steady_clock::time_point deadline_;
  bool counted_ = false;
  bool shed_ = false;
  bool armed_deadline_ = false;
};

ApiService::Meter::Meter(const char* calls_name, const char* latency_name)
    : counter(obs::MetricsRegistry::Global().counter(calls_name)),
      latency(obs::MetricsRegistry::Global().histogram(latency_name)) {}

ApiService::ApiService(std::shared_ptr<const Taxonomy> taxonomy,
                       MentionIndex mentions) {
  Publish(std::move(taxonomy), std::move(mentions));
}

ApiService::ApiService(std::shared_ptr<const ServingView> view) {
  Publish(std::move(view));
}

uint64_t ApiService::Publish(std::shared_ptr<const ServingView> view) {
  CNPB_CHECK(view != nullptr);
  // Publish contention (real or injected at the api.publish fault point) is
  // transient by definition: back off and retry rather than drop an update.
  // The argument is only consumed on the successful attempt.
  util::RetryOptions options;
  options.max_attempts = 16;
  uint64_t version = 0;
  const util::RetryResult result =
      util::RetryWithBackoff(options, [&]() -> util::Status {
        const util::Status fault = util::CheckFault("api.publish");
        if (!fault.ok()) {
          return util::ResourceExhaustedError("publish contention: " +
                                              fault.message());
        }
        version = PublishInternal(std::move(view));
        return util::Status::Ok();
      });
  if (result.attempts > 1) {
    publish_retries_->Increment(static_cast<uint64_t>(result.attempts - 1));
  }
  CNPB_CHECK(result.status.ok())
      << "publish failed after " << result.attempts
      << " attempts: " << result.status.ToString();
  return version;
}

uint64_t ApiService::Publish(std::shared_ptr<const Taxonomy> taxonomy,
                             MentionIndex mentions) {
  CNPB_CHECK(taxonomy != nullptr);
  return Publish(ServingView::Encode(*taxonomy, mentions));
}

util::Result<uint64_t> ApiService::TryPublish(
    std::shared_ptr<const ServingView> view) {
  CNPB_CHECK(view != nullptr);
  const util::Status fault = util::CheckFault("api.publish");
  if (!fault.ok()) {
    return util::ResourceExhaustedError("publish contention: " +
                                        fault.message());
  }
  return PublishInternal(std::move(view));
}

util::Result<uint64_t> ApiService::TryPublish(
    std::shared_ptr<const Taxonomy> taxonomy, MentionIndex mentions) {
  CNPB_CHECK(taxonomy != nullptr);
  return TryPublish(ServingView::Encode(*taxonomy, mentions));
}

void ApiService::SetServingLimits(const ServingLimits& limits) {
  max_in_flight_.store(limits.max_in_flight, std::memory_order_relaxed);
  deadline_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(limits.deadline)
          .count(),
      std::memory_order_relaxed);
}

ApiService::ServingLimits ApiService::serving_limits() const {
  ServingLimits limits;
  limits.max_in_flight = max_in_flight_.load(std::memory_order_relaxed);
  limits.deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::nanoseconds(deadline_ns_.load(std::memory_order_relaxed)));
  return limits;
}

uint64_t ApiService::PublishInternal(std::shared_ptr<const ServingView> view) {
  // The publish-swap latency covers the whole critical path a reader could
  // be affected by: version assembly and the pointer swap.
  obs::ScopedTimer publish_timer(publish_latency_);
  publishes_->Increment();
  // Build the whole version entry off to the side; readers keep serving the
  // previous version until the single release-ordered swap below.
  auto next = std::make_shared<Version>();
  next->view = std::move(view);

  std::lock_guard<std::mutex> lock(publish_mu_);
  const auto now = std::chrono::steady_clock::now();
  next->version = next_version_++;
  next->published_at = now;
  if (!history_.empty() && !history_.back().retired) {
    history_.back().retired_at = now;
    history_.back().retired = true;
  }
  if (history_.size() == kVersionHistory) {
    // The oldest record shares the new version's slot: fold its count into
    // the aggregate and hand the zeroed slot over.
    const VersionRecord& oldest = history_.front();
    evicted_ = true;
    evicted_queries_ +=
        QuerySlot(oldest.version).exchange(0, std::memory_order_relaxed);
    evicted_seconds_ += SecondsBetween(oldest.published_at, oldest.retired_at);
    history_.pop_front();
  }
  next->queries = &QuerySlot(next->version);
  VersionRecord record;
  record.version = next->version;
  record.num_edges = next->view->num_edges();
  record.num_mentions = next->view->num_mentions();
  record.published_at = now;
  history_.push_back(record);
  const uint64_t version = next->version;
  snapshot_.Publish(std::move(next));
  return version;
}

template <typename Body>
util::Status ApiService::Serve(const char* api, Meter* meter, size_t items,
                               Body&& body) const {
  if (meter != nullptr) {
    meter->calls.fetch_add(items, std::memory_order_relaxed);
  }
  obs::ScopedTimer latency(meter != nullptr && SampleQueryLatency()
                               ? meter->latency
                               : nullptr);
  QueryGuard guard(*this);
  CNPB_RETURN_IF_ERROR(guard.Admission(api));
  CNPB_RETURN_IF_ERROR(util::CheckFault("api.query"));
  const std::shared_ptr<const Version> snap = snapshot_.Acquire();
  // Charged at pin time so per-version QPS counts every logical lookup,
  // including queries that later fail their deadline.
  snap->queries->fetch_add(items, std::memory_order_relaxed);
  // Fires between pinning the snapshot and resolving against it — a delay
  // fault here holds the pin across concurrent publishes, which is how the
  // version-stamp coherence regression test widens the race window.
  CNPB_RETURN_IF_ERROR(util::CheckFault("api.resolve"));
  CNPB_RETURN_IF_ERROR(body(*snap, guard));
  return guard.Deadline(api);
}

util::Status ApiService::TryQuery(
    const char* api,
    const std::function<util::Status(const ServingView&, uint64_t)>& fn)
    const {
  return Serve(api, nullptr, 1, [&](const Version& snap, const QueryGuard&) {
    return fn(*snap.view, snap.version);
  });
}

std::vector<ApiService::ResolvedEntity> ApiService::ResolveMention(
    const ServingView& view, std::string_view mention) {
  const std::span<const NodeId> candidates = view.MentionCandidates(mention);
  std::vector<ResolvedEntity> out;
  out.reserve(candidates.size());
  for (const NodeId id : candidates) {
    ResolvedEntity entity;
    entity.id = id;
    entity.name = std::string(view.Name(id));
    entity.num_hypernyms = view.NumHypernyms(id);
    out.push_back(std::move(entity));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ResolvedEntity& a, const ResolvedEntity& b) {
                     return a.num_hypernyms > b.num_hypernyms;
                   });
  return out;
}

std::vector<std::string> ApiService::ConceptNames(const ServingView& view,
                                                  std::string_view entity_name,
                                                  bool transitive) {
  const NodeId id = view.Find(entity_name);
  if (id == kInvalidNode) return {};
  // Rank by edge confidence (source prior), most trustworthy first.
  std::vector<HalfEdge> edges;
  edges.reserve(view.NumHypernyms(id));
  view.VisitHypernyms(id, [&](const HalfEdge& edge) {
    edges.push_back(edge);
    return true;
  });
  std::stable_sort(edges.begin(), edges.end(),
                   [](const HalfEdge& a, const HalfEdge& b) {
                     return a.score > b.score;
                   });
  std::vector<std::string> out;
  out.reserve(edges.size());
  std::unordered_set<NodeId> direct;
  for (const HalfEdge& edge : edges) {
    out.push_back(std::string(view.Name(edge.node)));
    direct.insert(edge.node);
  }
  if (transitive) {
    for (const NodeId ancestor : view.TransitiveHypernyms(id)) {
      if (direct.count(ancestor) == 0) {
        out.push_back(std::string(view.Name(ancestor)));
      }
    }
  }
  return out;
}

std::vector<std::string> ApiService::EntityNames(const ServingView& view,
                                                 std::string_view concept_name,
                                                 size_t limit) {
  const NodeId id = view.Find(concept_name);
  std::vector<std::string> out;
  if (id != kInvalidNode) {
    view.VisitHyponyms(id, [&](const HalfEdge& edge) {
      if (out.size() >= limit) return false;
      out.push_back(std::string(view.Name(edge.node)));
      return out.size() < limit;
    });
  }
  return out;
}

util::Result<ApiService::Men2EntResolved> ApiService::TryMen2EntResolved(
    std::string_view mention) const {
  Men2EntResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "men2ent", &men2ent_, 1, [&](const Version& snap, const QueryGuard&) {
        out.version = snap.version;
        out.entities = ResolveMention(*snap.view, mention);
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ApiService::NamesResolved> ApiService::TryGetConceptResolved(
    std::string_view entity_name, bool transitive) const {
  NamesResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "get_concept", &get_concept_, 1,
      [&](const Version& snap, const QueryGuard&) {
        out.version = snap.version;
        out.names = ConceptNames(*snap.view, entity_name, transitive);
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ApiService::NamesResolved> ApiService::TryGetEntityResolved(
    std::string_view concept_name, size_t limit) const {
  NamesResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "get_entity", &get_entity_, 1,
      [&](const Version& snap, const QueryGuard&) {
        out.version = snap.version;
        out.names = EntityNames(*snap.view, concept_name, limit);
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ApiService::Men2EntBatchResolved>
ApiService::TryMen2EntBatchResolved(
    const std::vector<std::string>& mentions) const {
  Men2EntBatchResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "men2ent_batch", &men2ent_, mentions.size(),
      [&](const Version& snap, const QueryGuard& guard) {
        out.version = snap.version;
        out.results.reserve(mentions.size());
        for (const std::string& mention : mentions) {
          out.results.push_back(ResolveMention(*snap.view, mention));
          CNPB_RETURN_IF_ERROR(guard.Deadline("men2ent_batch"));
        }
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ApiService::NamesBatchResolved>
ApiService::TryGetConceptBatchResolved(const std::vector<std::string>& entities,
                                       bool transitive) const {
  NamesBatchResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "get_concept_batch", &get_concept_, entities.size(),
      [&](const Version& snap, const QueryGuard& guard) {
        out.version = snap.version;
        out.results.reserve(entities.size());
        for (const std::string& entity : entities) {
          out.results.push_back(ConceptNames(*snap.view, entity, transitive));
          CNPB_RETURN_IF_ERROR(guard.Deadline("get_concept_batch"));
        }
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ApiService::NamesBatchResolved>
ApiService::TryGetEntityBatchResolved(const std::vector<std::string>& concepts,
                                      size_t limit) const {
  NamesBatchResolved out;
  CNPB_RETURN_IF_ERROR(Serve(
      "get_entity_batch", &get_entity_, concepts.size(),
      [&](const Version& snap, const QueryGuard& guard) {
        out.version = snap.version;
        out.results.reserve(concepts.size());
        for (const std::string& concept_name : concepts) {
          out.results.push_back(EntityNames(*snap.view, concept_name, limit));
          CNPB_RETURN_IF_ERROR(guard.Deadline("get_entity_batch"));
        }
        return util::Status::Ok();
      }));
  return out;
}

std::shared_ptr<const ServingView> ApiService::CurrentView() const {
  return snapshot_.Acquire()->view;
}

uint64_t ApiService::version() const { return snapshot_.Acquire()->version; }

std::vector<ApiService::VersionStats> ApiService::AllVersionStats() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::vector<VersionStats> out;
  out.reserve(history_.size() + 1);
  if (evicted_) {
    VersionStats evicted;
    evicted.queries = evicted_queries_;
    evicted.seconds_serving = evicted_seconds_;
    out.push_back(evicted);
  }
  for (const VersionRecord& record : history_) {
    VersionStats stats;
    stats.version = record.version;
    stats.num_edges = record.num_edges;
    stats.num_mentions = record.num_mentions;
    stats.queries = QuerySlot(record.version).load(std::memory_order_relaxed);
    stats.seconds_serving = SecondsBetween(
        record.published_at, record.retired ? record.retired_at : now);
    out.push_back(stats);
  }
  return out;
}

void ApiService::ExportMetrics(obs::MetricsRegistry* registry) const {
  const auto now = std::chrono::steady_clock::now();
  // Fold this service's call totals into the registry counters as deltas
  // since the last export. Doing it here rather than per call keeps the
  // query paths at one relaxed fetch_add; several services sharing a
  // process simply sum into the same counters.
  for (Meter* meter : {&men2ent_, &get_concept_, &get_entity_}) {
    const uint64_t total = meter->calls.load(std::memory_order_relaxed);
    const uint64_t previous =
        meter->exported.exchange(total, std::memory_order_relaxed);
    if (total > previous) meter->counter->Increment(total - previous);
  }
  // Pin the snapshot before taking publish_mu_; SnapshotHolder never takes
  // the publish lock, but keeping the two acquisitions unnested is simpler
  // to reason about.
  const std::shared_ptr<const Version> snap = snapshot_.Acquire();
  registry->gauge("api.snapshot_age_seconds")
      ->Set(SecondsBetween(snap->published_at, now));
  const std::vector<VersionStats> all = AllVersionStats();
  size_t slot = 0;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    const VersionStats& stats = *it;
    if (stats.version == 0) {
      registry->gauge("api.version.evicted.queries")
          ->Set(static_cast<double>(stats.queries));
      continue;
    }
    const std::string prefix = util::StrFormat("api.version.slot%zu.", slot++);
    registry->gauge(prefix + "version")
        ->Set(static_cast<double>(stats.version));
    registry->gauge(prefix + "queries")
        ->Set(static_cast<double>(stats.queries));
    registry->gauge(prefix + "serving_seconds")->Set(stats.seconds_serving);
    registry->gauge(prefix + "qps")
        ->Set(stats.seconds_serving > 0.0
                  ? static_cast<double>(stats.queries) / stats.seconds_serving
                  : 0.0);
  }
}

ApiService::UsageStats ApiService::usage() const {
  UsageStats stats;
  stats.men2ent_calls = men2ent_.calls.load(std::memory_order_relaxed);
  stats.get_concept_calls = get_concept_.calls.load(std::memory_order_relaxed);
  stats.get_entity_calls = get_entity_.calls.load(std::memory_order_relaxed);
  return stats;
}

void ApiService::ResetUsage() {
  for (Meter* meter : {&men2ent_, &get_concept_, &get_entity_}) {
    meter->calls.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  for (std::atomic<uint64_t>& slot : query_slots_) {
    slot.store(0, std::memory_order_relaxed);
  }
  evicted_queries_ = 0;
}

size_t ApiService::num_mentions() const {
  return snapshot_.Acquire()->view->num_mentions();
}

}  // namespace cnpb::taxonomy
