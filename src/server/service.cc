#include "server/service.h"

#include <numeric>
#include <string>
#include <utility>

#include "obs/export.h"
#include "util/json.h"
#include "util/strings.h"

namespace cnpb::server {

namespace {

using util::JsonString;
using util::JsonUInt;

// Query latency at the HTTP layer is sampled like the ApiService's own
// (1-in-64 here: wire requests are ~1000x rarer than in-process calls in
// the benches, so a denser sample still costs nothing measurable).
constexpr uint32_t kLatencySampleMask = 63;

bool SampleLatency() {
  thread_local uint32_t tick = 0;
  return (++tick & kLatencySampleMask) == 0;
}

HttpResponse MissingParameter(std::string_view name) {
  return ApiEndpoints::ErrorResponse(
      400, util::StatusCode::kInvalidArgument,
      "missing required parameter: " + std::string(name));
}

// Strict parse of an optional numeric knob (limit, max_depth, k): absent
// keeps *value; present must be an integer in [1, max], digits only — "+5"
// and "%205" (leading space) are 400s, per the documented contract.
util::Status ParseBounded(const HttpRequest& request, std::string_view name,
                          uint64_t max, size_t* value) {
  if (!request.HasParam(name)) return util::Status::Ok();
  uint64_t parsed = 0;
  if (!util::ParseUint64(request.Param(name), &parsed) || parsed == 0 ||
      parsed > max) {
    return util::InvalidArgumentError(std::string(name) +
                                      " must be an integer in [1, " +
                                      std::to_string(max) + "]");
  }
  *value = static_cast<size_t>(parsed);
  return util::Status::Ok();
}

bool ParseTransitive(const HttpRequest& request) {
  const std::string_view raw = request.Param("transitive", "0");
  return raw == "1" || raw == "true";
}

// Length-prefixes a second query argument for use inside a cache-key
// options string, so no two (arg2, trailing-options) pairs collide.
std::string PackArg(std::string_view arg) {
  return std::to_string(arg.size()) + ":" + std::string(arg);
}

// The JSON arrays the envelopes splice in, byte-identical between the
// single-shot and batch forms.
std::string Men2EntFragment(
    const std::vector<taxonomy::ApiService::ResolvedEntity>& entities) {
  std::string out = "[";
  bool first = true;
  for (const auto& entity : entities) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + JsonUInt(entity.id) +
           ",\"name\":" + JsonString(entity.name) +
           ",\"num_hypernyms\":" + JsonUInt(entity.num_hypernyms) + "}";
  }
  out += "]";
  return out;
}

std::string NamesFragment(const std::vector<std::string>& names) {
  std::string out = "[";
  bool first = true;
  for (const std::string& name : names) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name);
  }
  out += "]";
  return out;
}

std::string ScoredNamesFragment(
    const std::vector<cnpb::reason::ReasonService::ScoredName>& results) {
  std::string out = "[";
  bool first = true;
  for (const auto& result : results) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":" + JsonString(result.name) +
           ",\"score\":" + util::JsonNumber(result.score) +
           ",\"tie\":" + util::JsonNumber(result.tie) + "}";
  }
  out += "]";
  return out;
}

// The cacheable unit of one answer: `status` is the single-shot HTTP status
// and `fragment` the JSON its envelope wraps — the per-item array of a
// paper endpoint, shared with its batch form (which ignores the status:
// men2ent's 404 for an unknown mention becomes an empty list in position),
// or the whole body of a reasoning endpoint.
struct ItemFragment {
  int status = 200;
  std::string fragment;
};

// Units together with the snapshot version they were resolved against.
using Resolved = util::Result<std::pair<uint64_t, ItemFragment>>;
using BatchResolved =
    util::Result<std::pair<uint64_t, std::vector<ItemFragment>>>;

ItemFragment Men2EntItem(
    const std::vector<taxonomy::ApiService::ResolvedEntity>& entities) {
  // A mention resolving to nothing means the mention itself is unknown —
  // unlike getConcept/getEntity, where a known term can legitimately have
  // an empty answer. Still snapshot-derived, still cacheable.
  return {entities.empty() ? 404 : 200, Men2EntFragment(entities)};
}

Resolved NamesItem(const util::Result<taxonomy::ApiService::NamesResolved>&
                       result) {
  if (!result.ok()) return result.status();
  return std::make_pair(result->version,
                        ItemFragment{200, NamesFragment(result->names)});
}

BatchResolved NamesItems(
    const util::Result<taxonomy::ApiService::NamesBatchResolved>& result) {
  if (!result.ok()) return result.status();
  std::vector<ItemFragment> items;
  items.reserve(result->results.size());
  for (const auto& names : result->results) {
    items.push_back({200, NamesFragment(names)});
  }
  return std::make_pair(result->version, std::move(items));
}

// A reasoning answer: the unit is the whole body.
Resolved WholeBody(uint64_t version, std::string body) {
  return std::make_pair(version, ItemFragment{200, std::move(body)});
}

Resolved UnknownName(uint64_t version, const std::string& message) {
  return std::make_pair(
      version, ItemFragment{404, ApiEndpoints::ErrorResponse(
                                     404, util::StatusCode::kNotFound, message)
                                     .body});
}

HttpResponse WholeBodyEnvelope(uint64_t /*version*/, ItemFragment&& unit) {
  HttpResponse response;
  response.status = unit.status;
  response.body = std::move(unit.fragment);
  return response;
}

bool HasVersionHeader(const HttpResponse& response) {
  for (const auto& [name, value] : response.headers) {
    if (name == ApiEndpoints::kVersionHeader) return true;
  }
  return false;
}

void StampVersion(HttpResponse* response, uint64_t version) {
  response->headers.emplace_back(ApiEndpoints::kVersionHeader,
                                 std::to_string(version));
}

}  // namespace

ApiEndpoints::ApiEndpoints(taxonomy::ApiService* api)
    : api_(api), reason_(api), started_(std::chrono::steady_clock::now()) {}

ApiEndpoints::ApiEndpoints(taxonomy::ApiService* api,
                           const ResultCache::Config& cache_config)
    : api_(api),
      reason_(api),
      cache_(std::make_unique<ResultCache>(cache_config)),
      started_(std::chrono::steady_clock::now()) {}

HttpServer::Handler ApiEndpoints::AsHandler() {
  return [this](const HttpRequest& request) { return Handle(request); };
}

int ApiEndpoints::HttpStatusForCode(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk:                return 200;
    case util::StatusCode::kInvalidArgument:   return 400;
    case util::StatusCode::kNotFound:          return 404;
    case util::StatusCode::kResourceExhausted: return 429;
    case util::StatusCode::kDeadlineExceeded:  return 504;
    case util::StatusCode::kIoError:           return 503;
    case util::StatusCode::kDataLoss:          return 503;
    default:                                   return 500;
  }
}

HttpResponse ApiEndpoints::ErrorResponse(int status, util::StatusCode code,
                                         const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = std::string("{\"error\":{\"code\":") +
                  JsonString(util::StatusCodeName(code)) +
                  ",\"message\":" + JsonString(message) + "}}\n";
  if (status == 429) {
    // Shed load is transient by construction (in-flight cap); tell clients
    // when to come back instead of letting them hammer the retry loop.
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

HttpResponse ApiEndpoints::StatusResponse(const util::Status& status) {
  return ErrorResponse(HttpStatusForCode(status.code()), status.code(),
                       status.message());
}

const std::vector<ApiEndpoints::Route>& ApiEndpoints::Routes() {
  static const std::vector<Route> routes = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const auto requests = [&](std::string_view endpoint) {
      return registry.counter("http.requests." + std::string(endpoint));
    };
    obs::BucketHistogram* const men2ent =
        registry.histogram("http.latency.men2ent_seconds");
    obs::BucketHistogram* const get_concept =
        registry.histogram("http.latency.get_concept_seconds");
    obs::BucketHistogram* const get_entity =
        registry.histogram("http.latency.get_entity_seconds");
    obs::BucketHistogram* const reason =
        registry.histogram("http.latency.reason_seconds");
    return std::vector<Route>{
        {"/v1/men2ent", &ApiEndpoints::Men2Ent, requests("men2ent"), men2ent,
         false},
        {"/v1/getConcept", &ApiEndpoints::GetConcept,
         requests("get_concept"), get_concept, false},
        {"/v1/getEntity", &ApiEndpoints::GetEntity, requests("get_entity"),
         get_entity, false},
        {"/v1/men2ent_batch", &ApiEndpoints::Men2EntBatch,
         requests("men2ent_batch"), men2ent, true},
        {"/v1/getConcept_batch", &ApiEndpoints::GetConceptBatch,
         requests("get_concept_batch"), get_concept, true},
        {"/v1/getEntity_batch", &ApiEndpoints::GetEntityBatch,
         requests("get_entity_batch"), get_entity, true},
        {"/v1/isa", &ApiEndpoints::Isa, requests("isa"), reason, false},
        {"/v1/lca", &ApiEndpoints::Lca, requests("lca"), reason, false},
        {"/v1/similar", &ApiEndpoints::Similar, requests("similar"), reason,
         false},
        {"/v1/expand", &ApiEndpoints::Expand, requests("expand"), reason,
         false},
        {"/healthz", &ApiEndpoints::Healthz, requests("healthz"), nullptr,
         false},
        {"/metrics", &ApiEndpoints::Metrics, requests("metrics"), nullptr,
         false},
    };
  }();
  return routes;
}

template <typename Resolve, typename Envelope>
HttpResponse ApiEndpoints::Cached(std::string_view endpoint,
                                  std::string_view arg,
                                  std::string_view options, Resolve&& resolve,
                                  Envelope&& envelope) {
  std::string key;
  if (cache_ != nullptr) {
    key = ResultCache::Key(endpoint, arg, options);
    ResultCache::CachedResponse hit;
    if (cache_->Lookup(key, api_->version(), &hit)) {
      // Serving a version-V answer while V is (or moments ago was) current
      // is indistinguishable from the request having arrived earlier: the
      // stamp inside the body still names the snapshot the data came from.
      HttpResponse response =
          envelope(hit.version, ItemFragment{hit.status, std::move(hit.body)});
      response.headers.emplace_back("X-Cache", "hit");
      StampVersion(&response, hit.version);
      return response;
    }
  }
  // Only snapshot-derived answers are cacheable: transient errors
  // (429/503/504) must be re-evaluated per request.
  Resolved resolved = resolve();
  if (!resolved.ok()) return StatusResponse(resolved.status());
  auto& [version, unit] = *resolved;
  if (cache_ != nullptr) {
    cache_->Insert(key, version, unit.status, unit.fragment);
  }
  HttpResponse response = envelope(version, std::move(unit));
  if (cache_ != nullptr) response.headers.emplace_back("X-Cache", "miss");
  StampVersion(&response, version);
  return response;
}

template <typename Resolve>
HttpResponse ApiEndpoints::ResolveBatchCached(
    const std::vector<std::string>& items, std::string_view endpoint,
    std::string_view options, std::string_view head,
    std::string_view item_key, std::string_view list_key, Resolve&& resolve) {
  std::vector<std::string> fragments(items.size());
  std::vector<std::string> misses;
  std::vector<size_t> miss_index;
  size_t hits = 0;
  uint64_t version = 0;  // the hits' version, then the response's
  // One version read for the whole sweep: every hit carries exactly this
  // version (Lookup only hits on equality), so the hits are mutually
  // coherent by construction.
  const uint64_t lookup_version = api_->version();
  for (size_t i = 0; i < items.size(); ++i) {
    ResultCache::CachedResponse hit;
    if (cache_ != nullptr &&
        cache_->Lookup(ResultCache::Key(endpoint, items[i], options),
                       lookup_version, &hit)) {
      fragments[i] = std::move(hit.body);
      ++hits;
      version = hit.version;
    } else {
      misses.push_back(items[i]);
      miss_index.push_back(i);
    }
  }
  if (!misses.empty()) {
    BatchResolved result = resolve(misses);
    if (result.ok() && hits > 0 && result->first != version) {
      // A publish landed between the cache sweep and the resolve: the hits
      // are stamped with the retired version, the misses with the new one.
      // Re-resolve the whole batch against the current snapshot so the
      // response keeps its single-version contract (rare — publish-frequency
      // rare — so the double resolve does not matter).
      result = resolve(items);
      hits = 0;
      misses = items;
      miss_index.resize(items.size());
      std::iota(miss_index.begin(), miss_index.end(), size_t{0});
    }
    if (!result.ok()) return StatusResponse(result.status());
    version = result->first;
    for (size_t j = 0; j < misses.size(); ++j) {
      ItemFragment& item = result->second[j];
      if (cache_ != nullptr) {
        cache_->Insert(ResultCache::Key(endpoint, misses[j], options),
                       version, item.status, item.fragment);
      }
      fragments[miss_index[j]] = std::move(item.fragment);
    }
  }
  const std::string item_open = "{\"" + std::string(item_key) + "\":";
  const std::string list_open = ",\"" + std::string(list_key) + "\":";
  std::string body = "{\"version\":" + JsonUInt(version) + std::string(head) +
                     ",\"count\":" + JsonUInt(items.size()) +
                     ",\"results\":[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) body += ',';
    body += item_open + JsonString(items[i]) + list_open + fragments[i] + "}";
  }
  body += "]}\n";
  HttpResponse response;
  response.body = std::move(body);
  if (cache_ != nullptr) {
    response.headers.emplace_back("X-Cache-Hits", std::to_string(hits));
  }
  StampVersion(&response, version);
  return response;
}

HttpResponse ApiEndpoints::Handle(const HttpRequest& request) {
  const Route* route = nullptr;
  for (const Route& candidate : routes_) {
    if (candidate.path == request.path) {
      route = &candidate;
      break;
    }
  }
  const bool post_ok = route != nullptr && route->post;
  if (request.method != "GET" && request.method != "HEAD" &&
      !(post_ok && request.method == "POST")) {
    req_other_->Increment();
    resp_4xx_->Increment();
    HttpResponse response = ErrorResponse(
        405, util::StatusCode::kInvalidArgument,
        "method not allowed: " + request.method);
    response.headers.emplace_back("Allow",
                                  post_ok ? "GET, HEAD, POST" : "GET, HEAD");
    return response;
  }
  HttpResponse response = [&] {
    if (route == nullptr) {
      req_other_->Increment();
      return ErrorResponse(404, util::StatusCode::kNotFound,
                           "no such endpoint: " + request.path);
    }
    route->requests->Increment();
    obs::ScopedTimer timer(route->latency != nullptr && SampleLatency()
                               ? route->latency
                               : nullptr);
    return (this->*route->handler)(request);
  }();
  if (response.status >= 500) {
    resp_5xx_->Increment();
  } else if (response.status >= 400) {
    resp_4xx_->Increment();
    if (response.status == 429) resp_429_->Increment();
  } else {
    resp_2xx_->Increment();
  }
  // Snapshot-derived answers stamped their pinned version above; everything
  // else (errors, health, metrics, 400s) reports the currently-served one,
  // so the router always has a generation to reason about.
  if (!HasVersionHeader(response)) StampVersion(&response, api_->version());
  return response;
}

HttpResponse ApiEndpoints::Men2Ent(const HttpRequest& request) {
  if (!request.HasParam("mention")) return MissingParameter("mention");
  const std::string_view mention = request.Param("mention");
  return Cached(
      "men2ent", mention, {},
      [&]() -> Resolved {
        const auto result = api_->TryMen2EntResolved(mention);
        if (!result.ok()) return result.status();
        return std::make_pair(result->version, Men2EntItem(result->entities));
      },
      [&](uint64_t version, ItemFragment&& item) {
        if (item.status == 404) {
          return ErrorResponse(404, util::StatusCode::kNotFound,
                               "unknown mention: " + std::string(mention));
        }
        HttpResponse response;
        response.body = "{\"mention\":" + JsonString(mention) +
                        ",\"version\":" + JsonUInt(version) +
                        ",\"entities\":" + item.fragment + "}\n";
        return response;
      });
}

HttpResponse ApiEndpoints::GetConcept(const HttpRequest& request) {
  if (!request.HasParam("entity")) return MissingParameter("entity");
  const std::string_view entity = request.Param("entity");
  const bool transitive = ParseTransitive(request);
  return Cached(
      "getConcept", entity, transitive ? "|t1" : "|t0",
      [&] {
        return NamesItem(api_->TryGetConceptResolved(entity, transitive));
      },
      [&](uint64_t version, ItemFragment&& item) {
        HttpResponse response;
        response.body = "{\"entity\":" + JsonString(entity) +
                        ",\"version\":" + JsonUInt(version) +
                        ",\"transitive\":" +
                        std::string(transitive ? "true" : "false") +
                        ",\"concepts\":" + item.fragment + "}\n";
        return response;
      });
}

HttpResponse ApiEndpoints::GetEntity(const HttpRequest& request) {
  if (!request.HasParam("concept")) return MissingParameter("concept");
  const std::string_view concept_name = request.Param("concept");
  size_t limit = 100;
  const util::Status parsed = ParseBounded(request, "limit", 100000, &limit);
  if (!parsed.ok()) return StatusResponse(parsed);
  return Cached(
      "getEntity", concept_name, "|l" + std::to_string(limit),
      [&] {
        return NamesItem(api_->TryGetEntityResolved(concept_name, limit));
      },
      [&](uint64_t version, ItemFragment&& item) {
        HttpResponse response;
        response.body = "{\"concept\":" + JsonString(concept_name) +
                        ",\"version\":" + JsonUInt(version) +
                        ",\"entities\":" + item.fragment + "}\n";
        return response;
      });
}

util::Status ApiEndpoints::BatchItems(const HttpRequest& request,
                                      std::string_view param,
                                      std::vector<std::string>* items) {
  if (request.method == "POST") {
    // One term per line, raw UTF-8, no escaping; blank lines are skipped.
    for (const std::string& line : util::Split(request.body, '\n')) {
      std::string_view term = line;
      if (!term.empty() && term.back() == '\r') term.remove_suffix(1);
      if (!term.empty()) items->emplace_back(term);
    }
  } else {
    for (const auto& [key, value] : request.params) {
      if (key == param) items->push_back(value);
    }
  }
  if (items->empty()) {
    return util::InvalidArgumentError(
        "no " + std::string(param) + " given (repeat ?" + std::string(param) +
        "= or POST one per line)");
  }
  if (items->size() > kMaxBatchItems) {
    return util::InvalidArgumentError(
        "batch too large: " + std::to_string(items->size()) + " items (max " +
        std::to_string(kMaxBatchItems) + ")");
  }
  return util::Status::Ok();
}

HttpResponse ApiEndpoints::Men2EntBatch(const HttpRequest& request) {
  std::vector<std::string> mentions;
  const util::Status collected = BatchItems(request, "mention", &mentions);
  if (!collected.ok()) return StatusResponse(collected);
  batch_items_->Increment(mentions.size());
  return ResolveBatchCached(
      mentions, "men2ent", {}, {}, "mention", "entities",
      [&](const std::vector<std::string>& subset) -> BatchResolved {
        const auto result = api_->TryMen2EntBatchResolved(subset);
        if (!result.ok()) return result.status();
        std::vector<ItemFragment> items;
        items.reserve(subset.size());
        for (const auto& entities : result->results) {
          items.push_back(Men2EntItem(entities));
        }
        return std::make_pair(result->version, std::move(items));
      });
}

HttpResponse ApiEndpoints::GetConceptBatch(const HttpRequest& request) {
  std::vector<std::string> entities;
  const util::Status collected = BatchItems(request, "entity", &entities);
  if (!collected.ok()) return StatusResponse(collected);
  batch_items_->Increment(entities.size());
  const bool transitive = ParseTransitive(request);
  return ResolveBatchCached(
      entities, "getConcept", transitive ? "|t1" : "|t0",
      transitive ? ",\"transitive\":true" : ",\"transitive\":false",
      "entity", "concepts", [&](const std::vector<std::string>& subset) {
        return NamesItems(api_->TryGetConceptBatchResolved(subset, transitive));
      });
}

HttpResponse ApiEndpoints::GetEntityBatch(const HttpRequest& request) {
  std::vector<std::string> concepts;
  const util::Status collected = BatchItems(request, "concept", &concepts);
  if (!collected.ok()) return StatusResponse(collected);
  batch_items_->Increment(concepts.size());
  size_t limit = 100;
  const util::Status parsed = ParseBounded(request, "limit", 100000, &limit);
  if (!parsed.ok()) return StatusResponse(parsed);
  return ResolveBatchCached(
      concepts, "getEntity", "|l" + std::to_string(limit),
      ",\"limit\":" + JsonUInt(limit), "concept", "entities",
      [&](const std::vector<std::string>& subset) {
        return NamesItems(api_->TryGetEntityBatchResolved(subset, limit));
      });
}

HttpResponse ApiEndpoints::Isa(const HttpRequest& request) {
  if (!request.HasParam("entity")) return MissingParameter("entity");
  if (!request.HasParam("concept")) return MissingParameter("concept");
  const std::string_view entity = request.Param("entity");
  const std::string_view concept_name = request.Param("concept");
  size_t max_depth = 4;
  const util::Status parsed =
      ParseBounded(request, "max_depth", 16, &max_depth);
  if (!parsed.ok()) return StatusResponse(parsed);
  return Cached(
      "isa", entity, PackArg(concept_name) + "|d" + std::to_string(max_depth),
      [&]() -> Resolved {
        const auto result = reason_.TryIsa(entity, concept_name, max_depth);
        if (!result.ok()) return result.status();
        if (!result->entity_known) {
          return UnknownName(result->version,
                             "unknown entity: " + std::string(entity));
        }
        if (!result->concept_known) {
          return UnknownName(result->version,
                             "unknown concept: " + std::string(concept_name));
        }
        return WholeBody(
            result->version,
            "{\"entity\":" + JsonString(entity) +
                ",\"concept\":" + JsonString(concept_name) +
                ",\"version\":" + JsonUInt(result->version) +
                ",\"max_depth\":" + JsonUInt(max_depth) + ",\"isa\":" +
                std::string(result->isa ? "true" : "false") +
                ",\"depth\":" + std::to_string(result->depth) +
                ",\"path\":" + NamesFragment(result->path) + "}\n");
      },
      WholeBodyEnvelope);
}

HttpResponse ApiEndpoints::Lca(const HttpRequest& request) {
  if (!request.HasParam("a")) return MissingParameter("a");
  if (!request.HasParam("b")) return MissingParameter("b");
  const std::string_view a = request.Param("a");
  const std::string_view b = request.Param("b");
  size_t max_depth = 8;
  const util::Status parsed =
      ParseBounded(request, "max_depth", 16, &max_depth);
  if (!parsed.ok()) return StatusResponse(parsed);
  return Cached(
      "lca", a, PackArg(b) + "|d" + std::to_string(max_depth),
      [&]() -> Resolved {
        const auto result = reason_.TryLca(a, b, max_depth);
        if (!result.ok()) return result.status();
        if (!result->a_known || !result->b_known) {
          return UnknownName(result->version,
                             "unknown name: " +
                                 std::string(result->a_known ? b : a));
        }
        std::string body = "{\"a\":" + JsonString(a) +
                           ",\"b\":" + JsonString(b) +
                           ",\"version\":" + JsonUInt(result->version) +
                           ",\"max_depth\":" + JsonUInt(max_depth) +
                           ",\"found\":" +
                           std::string(result->found ? "true" : "false");
        if (result->found) {
          body += ",\"lca\":" + JsonString(result->lca) +
                  ",\"depth_a\":" + JsonUInt(result->depth_a) +
                  ",\"depth_b\":" + JsonUInt(result->depth_b);
        }
        body += "}\n";
        return WholeBody(result->version, std::move(body));
      },
      WholeBodyEnvelope);
}

HttpResponse ApiEndpoints::Similar(const HttpRequest& request) {
  if (!request.HasParam("entity")) return MissingParameter("entity");
  const std::string_view entity = request.Param("entity");
  size_t k = 10;
  const util::Status parsed = ParseBounded(request, "k", 100, &k);
  if (!parsed.ok()) return StatusResponse(parsed);
  return Cached(
      "similar", entity, "|k" + std::to_string(k),
      [&]() -> Resolved {
        const auto result = reason_.TrySimilar(entity, k);
        if (!result.ok()) return result.status();
        if (!result->known) {
          return UnknownName(result->version,
                             "unknown entity: " + std::string(entity));
        }
        return WholeBody(result->version,
                         "{\"entity\":" + JsonString(entity) +
                             ",\"version\":" + JsonUInt(result->version) +
                             ",\"k\":" + JsonUInt(k) + ",\"results\":" +
                             ScoredNamesFragment(result->results) + "}\n");
      },
      WholeBodyEnvelope);
}

HttpResponse ApiEndpoints::Expand(const HttpRequest& request) {
  if (!request.HasParam("concept")) return MissingParameter("concept");
  const std::string_view concept_name = request.Param("concept");
  size_t k = 10;
  const util::Status parsed = ParseBounded(request, "k", 100, &k);
  if (!parsed.ok()) return StatusResponse(parsed);
  return Cached(
      "expand", concept_name, "|k" + std::to_string(k),
      [&]() -> Resolved {
        const auto result = reason_.TryExpand(concept_name, k);
        if (!result.ok()) return result.status();
        if (!result->known) {
          return UnknownName(result->version,
                             "unknown concept: " + std::string(concept_name));
        }
        return WholeBody(result->version,
                         "{\"concept\":" + JsonString(concept_name) +
                             ",\"version\":" + JsonUInt(result->version) +
                             ",\"k\":" + JsonUInt(k) + ",\"children\":" +
                             ScoredNamesFragment(result->results) + "}\n");
      },
      WholeBodyEnvelope);
}

HttpResponse ApiEndpoints::Healthz(const HttpRequest& /*request*/) {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  HttpResponse response;
  response.body = "{\"status\":\"ok\",\"version\":" +
                  JsonUInt(api_->version()) +
                  ",\"uptime_seconds\":" + util::JsonNumber(uptime) + "}\n";
  return response;
}

HttpResponse ApiEndpoints::Metrics(const HttpRequest& /*request*/) {
  // Serving-side gauges (per-version QPS, snapshot age) only exist at
  // export time; sync them before rendering.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  api_->ExportMetrics(&registry);
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::ToPrometheusText(registry);
  return response;
}

}  // namespace cnpb::server
