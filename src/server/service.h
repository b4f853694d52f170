#ifndef CNPROBASE_SERVER_SERVICE_H_
#define CNPROBASE_SERVER_SERVICE_H_

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "reason/service.h"
#include "server/http.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "taxonomy/api_service.h"
#include "util/status.h"

namespace cnpb::server {

// Maps HTTP requests onto the ApiService Try* APIs — the wire form of the
// paper's three public endpoints (Table II), plus batch forms, health and
// metrics:
//
//   GET /v1/men2ent?mention=M                mention -> entities (id+name)
//   GET /v1/getConcept?entity=E[&transitive=1]   entity -> hypernym names
//   GET /v1/getEntity?concept=C[&limit=N]        concept -> hyponym names
//   GET/POST /v1/men2ent_batch               N mentions, one snapshot
//   GET/POST /v1/getConcept_batch            N entities, one snapshot
//   GET/POST /v1/getEntity_batch             N concepts, one snapshot
//   GET /healthz                             liveness + served version
//   GET /metrics                             Prometheus text exposition
//
// plus the reasoning endpoints (DESIGN.md §14), served by the ReasonService
// over the same pinned-snapshot contract:
//
//   GET /v1/isa?entity=E&concept=C[&max_depth=D]   bounded transitive isA
//   GET /v1/lca?a=X&b=Y[&max_depth=D]              lowest common ancestor
//   GET /v1/similar?entity=E[&k=K]                 shared-hypernym siblings
//   GET /v1/expand?concept=C[&k=K]                 ranked candidate children
//
// Batch endpoints take their inputs either as repeated query parameters
// (GET ?mention=a&mention=b) or as a POST body with one term per line, and
// resolve every item against ONE pinned snapshot, so the response carries a
// single version stamp. Unknown items come back with an empty result list
// (partial answers are the point of batching) — unlike single-shot
// /v1/men2ent, which 404s an unknown mention.
//
// Every version stamp is taken from the pinned snapshot that resolved the
// data (the *Resolved ApiService variants), never from api->version() after
// the fact — a concurrent publish between query and stamp must not make a
// response claim a version its data did not come from.
//
// One route table (service.cc) maps each path to its handler, request
// counter, latency histogram and allowed methods. Every query handler only
// parses its arguments, says how to resolve them and how to wrap the
// answer in its JSON envelope; the result cache is consulted in exactly two
// places, Cached() for single-shot requests and ResolveBatchCached() for
// batches (DESIGN.md §11).
//
// Responses are JSON (UTF-8). Failure is part of the contract
// (DESIGN.md §9 has the full table):
//
//   ResourceExhausted -> 429 + Retry-After      (load shed)
//   DeadlineExceeded  -> 504                    (query budget elapsed)
//   IoError           -> 503                    (injected fault / backend)
//   missing parameter -> 400, unknown path -> 404, bad method -> 405
class ApiEndpoints {
 public:
  // Every response carries this header with the snapshot version that
  // produced it (snapshot-derived answers stamp their pinned version;
  // errors and health/metrics stamp the currently-served version). The
  // router tier reads it to enforce cross-shard generation coherence.
  static constexpr const char kVersionHeader[] = "X-Taxonomy-Version";

  // Upper bound on items per batch request: bounds per-request work and
  // response size the same way parser limits bound the request itself.
  static constexpr size_t kMaxBatchItems = 256;

  // `api` must outlive the endpoints (and the server using them). This
  // constructor serves uncached.
  explicit ApiEndpoints(taxonomy::ApiService* api);

  // With a result cache (DESIGN.md §11): answers derived purely from a
  // snapshot (200s, and the unknown-name 404s) are cached keyed by
  // (endpoint, argument, options) and stamped with the snapshot version; a
  // publish invalidates everything wholesale by bumping the version.
  // Single-shot responses carry "X-Cache: hit" or "X-Cache: miss"; batch
  // responses report how many items the cache served in "X-Cache-Hits: N".
  //
  // What is cached is the unit both envelopes can be rebuilt from: for the
  // three paper endpoints the per-item JSON *fragment* (the inner
  // entities/concepts array, plus the single-shot status), which their
  // batch forms consult and populate under the batch's one pinned version —
  // a hot mention warmed by single-shot traffic is a batch-item hit and
  // vice versa. The reasoning endpoints have no batch form, so their unit
  // is the whole body.
  ApiEndpoints(taxonomy::ApiService* api,
               const ResultCache::Config& cache_config);

  // Null when constructed without a cache.
  const ResultCache* cache() const { return cache_.get(); }

  // The HttpServer handler; safe to call concurrently from every event
  // loop (ApiService queries, the cache, and the instruments are all
  // thread-safe).
  HttpResponse Handle(const HttpRequest& request);

  // Convenience: a Handler bound to this instance.
  HttpServer::Handler AsHandler();

  // Translates a non-OK Status into the wire contract above.
  static int HttpStatusForCode(util::StatusCode code);

  // The JSON error body every serving tier emits ({"error":{"code":...,
  // "message":...}}); a 429 also carries Retry-After.
  static HttpResponse ErrorResponse(int status, util::StatusCode code,
                                    const std::string& message);
  // ErrorResponse for a non-OK `status`: its code mapped through
  // HttpStatusForCode, its code name and its message.
  static HttpResponse StatusResponse(const util::Status& status);

  // Collects a batch request's items: every `param` query value (GET) or
  // one term per POST body line (blank lines skipped). InvalidArgument when
  // there are none or more than kMaxBatchItems. The router calls it too, to
  // refuse a bad batch before fanning it out.
  static util::Status BatchItems(const HttpRequest& request,
                                 std::string_view param,
                                 std::vector<std::string>* items);

  // The reasoning-side usage counters (for benches / examples).
  const reason::ReasonService& reason_service() const { return reason_; }

 private:
  HttpResponse Men2Ent(const HttpRequest& request);
  HttpResponse GetConcept(const HttpRequest& request);
  HttpResponse GetEntity(const HttpRequest& request);
  HttpResponse Men2EntBatch(const HttpRequest& request);
  HttpResponse GetConceptBatch(const HttpRequest& request);
  HttpResponse GetEntityBatch(const HttpRequest& request);
  HttpResponse Isa(const HttpRequest& request);
  HttpResponse Lca(const HttpRequest& request);
  HttpResponse Similar(const HttpRequest& request);
  HttpResponse Expand(const HttpRequest& request);
  HttpResponse Healthz(const HttpRequest& request);
  HttpResponse Metrics(const HttpRequest& request);

  // One row of the route table Handle() dispatches on.
  struct Route {
    std::string_view path;
    HttpResponse (ApiEndpoints::*handler)(const HttpRequest&);
    obs::Counter* requests;         // http.requests.<endpoint>
    obs::BucketHistogram* latency;  // sampled; null for health/metrics
    bool post;                      // batch forms also take a POST body
  };
  // The table, built once per process (its instruments are registered when
  // the first ApiEndpoints is constructed).
  static const std::vector<Route>& Routes();

  // The single-shot cache path. The cached unit is an ItemFragment
  // (service.cc): the single-shot status plus the JSON the envelope wraps.
  // Lookup at the current version, else `resolve()` and Insert the unit at
  // the version it was resolved against. Hit or miss,
  // `envelope(version, ItemFragment&&)` builds the response, which is
  // stamped with that version. A failed resolve (shed, deadline, fault) is
  // answered uncached.
  template <typename Resolve, typename Envelope>
  HttpResponse Cached(std::string_view endpoint, std::string_view arg,
                      std::string_view options, Resolve&& resolve,
                      Envelope&& envelope);

  // The batch cache path: per-item Lookup under one version, one batch
  // `resolve(subset)` (one ItemFragment per item) for the misses, per-item
  // Insert at the resolved version. If a publish lands between the cache
  // sweep and the resolve (hit and miss versions disagree), the whole
  // batch is re-resolved at the new snapshot so the response keeps its
  // single-version contract. The response is the one batch envelope,
  // {"version":V<head>,"count":N,"results":[...]} with one
  // {"<item_key>":item,"<list_key>":fragment} per input item.
  template <typename Resolve>
  HttpResponse ResolveBatchCached(const std::vector<std::string>& items,
                                  std::string_view endpoint,
                                  std::string_view options,
                                  std::string_view head,
                                  std::string_view item_key,
                                  std::string_view list_key,
                                  Resolve&& resolve);

  taxonomy::ApiService* api_;
  reason::ReasonService reason_;
  std::unique_ptr<ResultCache> cache_;
  const std::chrono::steady_clock::time_point started_;
  const std::vector<Route>& routes_ = Routes();

  // Wire-level instruments beyond the per-route ones (the ApiService keeps
  // its own in-process query metrics; these measure the HTTP layer).
  obs::Counter* const batch_items_ =
      obs::MetricsRegistry::Global().counter("http.batch.items");
  obs::Counter* const req_other_ =
      obs::MetricsRegistry::Global().counter("http.requests.other");
  obs::Counter* const resp_2xx_ =
      obs::MetricsRegistry::Global().counter("http.responses.2xx");
  obs::Counter* const resp_4xx_ =
      obs::MetricsRegistry::Global().counter("http.responses.4xx");
  obs::Counter* const resp_5xx_ =
      obs::MetricsRegistry::Global().counter("http.responses.5xx");
  obs::Counter* const resp_429_ =
      obs::MetricsRegistry::Global().counter("http.responses.429");
};

}  // namespace cnpb::server

#endif  // CNPROBASE_SERVER_SERVICE_H_
