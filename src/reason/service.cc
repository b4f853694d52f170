#include "reason/service.h"

#include <algorithm>
#include <utility>

#include "taxonomy/view.h"

namespace cnpb::reason {

namespace {

using taxonomy::NodeId;
using taxonomy::ServingView;
using taxonomy::kInvalidNode;

// Per-thread 1-in-64 latency sample (ApiService samples 1-in-256), for the
// same reason: two steady_clock reads per call would be measurable.
bool SampleLatency() {
  thread_local uint32_t tick = 0;
  return (++tick & 63u) == 0;
}

}  // namespace

ReasonService::ReasonService(taxonomy::ApiService* api)
    : ReasonService(api, Limits()) {}

ReasonService::ReasonService(taxonomy::ApiService* api, Limits limits)
    : api_(api), limits_(limits) {}

util::Result<ReasonService::IsaResolved> ReasonService::TryIsa(
    std::string_view entity, std::string_view concept_name,
    size_t max_depth) const {
  isa_calls_.fetch_add(1, std::memory_order_relaxed);
  calls_isa_->Increment();
  obs::ScopedTimer timer(SampleLatency() ? latency_isa_ : nullptr);
  const size_t depth = std::min(max_depth, limits_.max_depth_cap);
  IsaResolved out;
  CNPB_RETURN_IF_ERROR(api_->TryQuery(
      "isa", [&](const ServingView& view, uint64_t version) {
        out.version = version;
        const NodeId e = view.Find(entity);
        const NodeId c = view.Find(concept_name);
        out.entity_known = e != kInvalidNode;
        out.concept_known = c != kInvalidNode;
        if (!out.entity_known || !out.concept_known) {
          return util::Status::Ok();
        }
        const IsaResult result = IsaClosure(view, e, c, depth);
        out.isa = result.reached;
        out.depth = result.depth;
        out.path.reserve(result.path.size());
        for (const NodeId id : result.path) {
          out.path.emplace_back(view.Name(id));
        }
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ReasonService::LcaResolved> ReasonService::TryLca(
    std::string_view a, std::string_view b, size_t max_depth) const {
  lca_calls_.fetch_add(1, std::memory_order_relaxed);
  calls_lca_->Increment();
  obs::ScopedTimer timer(SampleLatency() ? latency_lca_ : nullptr);
  const size_t depth = std::min(max_depth, limits_.max_depth_cap);
  LcaResolved out;
  CNPB_RETURN_IF_ERROR(api_->TryQuery(
      "lca", [&](const ServingView& view, uint64_t version) {
        out.version = version;
        const NodeId na = view.Find(a);
        const NodeId nb = view.Find(b);
        out.a_known = na != kInvalidNode;
        out.b_known = nb != kInvalidNode;
        if (!out.a_known || !out.b_known) return util::Status::Ok();
        const LcaResult result = LowestCommonAncestor(view, na, nb, depth);
        if (result.node != kInvalidNode) {
          out.found = true;
          out.lca = std::string(view.Name(result.node));
          out.depth_a = result.depth_a;
          out.depth_b = result.depth_b;
        }
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ReasonService::RankedResolved> ReasonService::TrySimilar(
    std::string_view entity, size_t k) const {
  similar_calls_.fetch_add(1, std::memory_order_relaxed);
  calls_similar_->Increment();
  obs::ScopedTimer timer(SampleLatency() ? latency_similar_ : nullptr);
  const size_t capped_k = std::min(k, limits_.max_k);
  RankedResolved out;
  CNPB_RETURN_IF_ERROR(api_->TryQuery(
      "similar", [&](const ServingView& view, uint64_t version) {
        out.version = version;
        const NodeId id = view.Find(entity);
        out.known = id != kInvalidNode;
        if (!out.known) return util::Status::Ok();
        for (const Scored& s :
             SimilarEntities(view, id, capped_k, limits_.max_candidates)) {
          out.results.push_back(
              {std::string(view.Name(s.node)), s.score, s.tie});
        }
        return util::Status::Ok();
      }));
  return out;
}

util::Result<ReasonService::RankedResolved> ReasonService::TryExpand(
    std::string_view concept_name, size_t k) const {
  expand_calls_.fetch_add(1, std::memory_order_relaxed);
  calls_expand_->Increment();
  obs::ScopedTimer timer(SampleLatency() ? latency_expand_ : nullptr);
  const size_t capped_k = std::min(k, limits_.max_k);
  RankedResolved out;
  CNPB_RETURN_IF_ERROR(api_->TryQuery(
      "expand", [&](const ServingView& view, uint64_t version) {
        out.version = version;
        const NodeId id = view.Find(concept_name);
        out.known = id != kInvalidNode;
        if (!out.known) return util::Status::Ok();
        for (const Scored& s :
             ExpandConcept(view, id, capped_k, limits_.max_candidates)) {
          out.results.push_back(
              {std::string(view.Name(s.node)), s.score, s.tie});
        }
        return util::Status::Ok();
      }));
  return out;
}

ReasonService::UsageStats ReasonService::usage() const {
  UsageStats stats;
  stats.isa_calls = isa_calls_.load(std::memory_order_relaxed);
  stats.lca_calls = lca_calls_.load(std::memory_order_relaxed);
  stats.similar_calls = similar_calls_.load(std::memory_order_relaxed);
  stats.expand_calls = expand_calls_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cnpb::reason
