#include "router/router.h"

#include <poll.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <optional>
#include <utility>

#include "router/json_merge.h"
#include "server/service.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/net.h"
#include "util/strings.h"

namespace cnpb::router {

namespace {

using server::ApiEndpoints;
using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using util::JsonString;
using util::JsonUInt;

// Bounds of the adaptive hedge delay (see Options::hedge_initial).
constexpr int64_t kHedgeMinMs = 1;
constexpr int64_t kHedgeMaxMs = 100;

// Idle keep-alive connections pooled per backend.
constexpr size_t kMaxIdlePerBackend = 8;

// Batch coherence: rounds of laggard-shard re-fetches allowed before a
// mixed-generation merge is refused with 503.
constexpr int kCoherenceRetries = 2;

// Every router counter: its name in /healthz's "stats" object (and, as
// router_<name>_total, in /metrics) and its Stats field.
constexpr struct {
  const char* name;
  uint64_t Router::Stats::*field;
} kCounters[] = {
    {"forwarded", &Router::Stats::forwarded},
    {"batches", &Router::Stats::batches},
    {"failovers", &Router::Stats::failovers},
    {"hedges", &Router::Stats::hedges},
    {"hedge_wins", &Router::Stats::hedge_wins},
    {"coherence_retries", &Router::Stats::coherence_retries},
    {"mixed_generation_refusals", &Router::Stats::mixed_generation_refusals},
    {"no_backend", &Router::Stats::no_backend},
};

uint64_t VersionOf(const HttpClient::Response& response) {
  uint64_t version = 0;
  util::ParseUint64(response.Header(server::ApiEndpoints::kVersionHeader),
                    &version);
  return version;
}

// Backend response -> frontend response: status + body verbatim, plus the
// headers that are part of the wire contract.
HttpResponse FromBackend(const HttpClient::Response& in) {
  HttpResponse out;
  out.status = in.status;
  out.body = in.body;
  const std::string_view content_type = in.Header("Content-Type");
  if (!content_type.empty()) out.content_type = std::string(content_type);
  for (const char* name : {server::ApiEndpoints::kVersionHeader, "X-Cache",
                           "Retry-After", "Allow"}) {
    const std::string_view value = in.Header(name);
    if (!value.empty()) out.headers.emplace_back(name, std::string(value));
  }
  return out;
}

// Waits for the first of two sockets to turn readable: 0 or 1, or -1 when
// neither does by `deadline`.
int FirstReadable(int fd0, int fd1,
                  std::chrono::steady_clock::time_point deadline) {
  pollfd pfds[2] = {};
  pfds[0].fd = fd0;
  pfds[0].events = POLLIN;
  pfds[1].fd = fd1;
  pfds[1].events = POLLIN;
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return -1;
    const int rc = ::poll(pfds, 2, static_cast<int>(remaining.count()));
    if (rc < 0 && errno != EINTR) return -1;
    if (pfds[0].revents != 0) return 0;
    if (pfds[1].revents != 0) return 1;
  }
}

const char* StateName(ShardMap::State state) {
  switch (state) {
    case ShardMap::State::kHealthy:     return "healthy";
    case ShardMap::State::kQuarantined: return "quarantined";
    case ShardMap::State::kHalfOpen:    return "half_open";
  }
  return "unknown";
}

}  // namespace

Router::Router(ShardMap* shard_map, const Options& options)
    : shard_map_(shard_map),
      options_(options),
      hedge_delay_ms_(options.hedge_initial.count()) {
  size_t total = 0;
  pool_offsets_.reserve(shard_map_->num_shards());
  for (size_t s = 0; s < shard_map_->num_shards(); ++s) {
    pool_offsets_.push_back(total);
    total += shard_map_->num_replicas(s);
  }
  pools_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    pools_.push_back(std::make_unique<Pool>());
  }
}

Router::~Router() {
  Stop();
  Wait();
}

util::Status Router::Start() {
  server_ = std::make_unique<server::HttpServer>(
      options_.server,
      [this](const HttpRequest& request) { return Handle(request); });
  return server_->Start();
}

void Router::Stop() {
  if (server_ != nullptr) server_->Stop();
}

void Router::Wait() {
  if (server_ != nullptr) server_->Wait();
}

uint16_t Router::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

Router::Stats Router::stats() const {
  Stats stats;
  for (const auto& [name, field] : kCounters) {
    stats.*field = std::atomic_ref<uint64_t>(counts_.*field).load(
        std::memory_order_relaxed);
  }
  return stats;
}

void Router::Count(uint64_t Stats::*counter) {
  std::atomic_ref<uint64_t>(counts_.*counter)
      .fetch_add(1, std::memory_order_relaxed);
}

std::chrono::milliseconds Router::hedge_delay() const {
  return std::chrono::milliseconds(
      hedge_delay_ms_.load(std::memory_order_relaxed));
}

util::Result<Router::Lease> Router::Acquire(size_t shard, size_t replica,
                                            bool allow_reuse) {
  Lease lease;
  lease.shard = shard;
  lease.replica = replica;
  Pool& pool = *pools_[PoolIndex(shard, replica)];
  if (allow_reuse) {
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.idle.empty()) {
      lease.client = std::move(pool.idle.back());
      pool.idle.pop_back();
      lease.reused = true;
      return lease;
    }
  }
  CNPB_RETURN_IF_ERROR(util::CheckFault("router.connect"));
  HttpClient::Options client_options;
  client_options.connect_deadline = options_.connect_deadline;
  client_options.recv_deadline = options_.recv_deadline;
  lease.client = std::make_unique<HttpClient>(client_options);
  const ShardMap::Endpoint& endpoint = shard_map_->endpoint(shard, replica);
  CNPB_RETURN_IF_ERROR(lease.client->Connect(endpoint.host, endpoint.port));
  return lease;
}

void Router::Release(Lease lease) {
  if (lease.client == nullptr || !lease.client->connected()) return;
  Pool& pool = *pools_[PoolIndex(lease.shard, lease.replica)];
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.idle.size() < kMaxIdlePerBackend) {
    pool.idle.push_back(std::move(lease.client));
  }
}

std::string Router::BuildRaw(const HttpClient& client, const Outbound& out) {
  if (out.method == "GET") return client.FormatGet(out.target);
  if (out.method == "POST") {
    return client.FormatPost(out.target, out.body, out.content_type);
  }
  // Anything else is forwarded verbatim so the backend's 405 contract shows
  // through the router unchanged.
  std::string raw;
  raw.append(out.method);
  raw.push_back(' ');
  raw.append(out.target);
  raw.append(" HTTP/1.1\r\nHost: router\r\n");
  if (!out.body.empty()) {
    raw.append(util::StrFormat("Content-Length: %zu\r\n", out.body.size()));
  }
  raw.append("\r\n");
  raw.append(out.body);
  return raw;
}

util::Result<Router::InFlight> Router::Send(size_t shard, size_t replica,
                                            const Outbound& out,
                                            bool allow_reuse) {
  util::Result<Lease> lease = Acquire(shard, replica, allow_reuse);
  if (!lease.ok()) {
    shard_map_->ReportFailure(shard, replica);
    return lease.status();
  }
  InFlight flight{std::move(*lease), std::chrono::steady_clock::now()};
  util::Status sent = util::CheckFault("router.backend");
  if (sent.ok()) {
    sent = flight.lease.client->SendRaw(BuildRaw(*flight.lease.client, out));
  }
  if (sent.ok()) return flight;
  // A pooled keep-alive connection may have been idle-closed by the
  // backend; retry once on a fresh socket before blaming it.
  if (flight.lease.reused) return Send(shard, replica, out, false);
  shard_map_->ReportFailure(shard, replica);
  return sent;
}

util::Result<HttpClient::Response> Router::Receive(InFlight* flight,
                                                   const Outbound& out) {
  const size_t shard = flight->lease.shard;
  const size_t replica = flight->lease.replica;
  util::Result<HttpClient::Response> response =
      flight->lease.client->ReadResponse();
  if (!response.ok() && flight->lease.reused &&
      response.status().code() == util::StatusCode::kIoError) {
    // Stale keep-alive race: the send won, the read lost.
    util::Result<InFlight> fresh = Send(shard, replica, out, false);
    if (!fresh.ok()) return fresh.status();
    *flight = std::move(*fresh);
    response = flight->lease.client->ReadResponse();
  }
  if (!response.ok()) {
    shard_map_->ReportFailure(shard, replica);
    return response.status();
  }
  shard_map_->ReportSuccess(shard, replica, VersionOf(*response));
  Release(std::move(flight->lease));
  return response;
}

util::Result<HttpClient::Response> Router::Exchange(size_t shard,
                                                    size_t replica,
                                                    const Outbound& out) {
  util::Result<InFlight> primary = Send(shard, replica, out);
  if (!primary.ok()) return primary.status();

  // Hedging window: give the primary hedge_delay to produce the first
  // byte; past that, race a duplicate on another replica.
  std::optional<InFlight> hedge;
  if (out.method == "GET" && shard_map_->num_replicas(shard) > 1) {
    bool ready = false;
    const util::Status waited =
        util::WaitReadable(primary->lease.client->fd(), hedge_delay(), &ready);
    const int second =
        waited.ok() && !ready
            ? shard_map_->PickReplica(shard, static_cast<int>(replica))
            : -1;
    if (second >= 0) {
      util::Result<InFlight> duplicate =
          Send(shard, static_cast<size_t>(second), out);
      if (duplicate.ok()) {
        Count(&Stats::hedges);
        hedge = std::move(*duplicate);
      }
    }
  }

  if (!hedge.has_value()) {
    util::Result<HttpClient::Response> response = Receive(&*primary, out);
    if (response.ok()) {
      ObserveForwardLatency(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - primary->start));
    }
    return response;
  }

  // First readable connection wins; the loser carries an outstanding
  // response and cannot be pooled, so it is closed with its lease.
  const int winner =
      FirstReadable(primary->lease.client->fd(), hedge->lease.client->fd(),
                    primary->start + options_.recv_deadline);
  if (winner < 0) {
    // Neither produced a byte within recv_deadline: both dark.
    shard_map_->ReportFailure(shard, replica);
    shard_map_->ReportFailure(shard, hedge->lease.replica);
    return util::DeadlineExceededError(util::StrFormat(
        "shard %zu: no replica answered within %lld ms", shard,
        static_cast<long long>(options_.recv_deadline.count())));
  }
  if (winner == 1) {
    util::Result<HttpClient::Response> response = Receive(&*hedge, out);
    if (response.ok()) {
      Count(&Stats::hedge_wins);
      // The primary blew its latency budget — count it as a soft failure
      // so a dead-but-accepting backend trends into quarantine instead of
      // eating a hedge on every request.
      shard_map_->ReportFailure(shard, replica);
      return response;
    }
    // The duplicate answered first but unparseably; fall back to the
    // primary, which may still be working on it.
  }
  hedge.reset();
  return Receive(&*primary, out);
}

util::Result<HttpClient::Response> Router::Forward(size_t shard,
                                                   const Outbound& out) {
  util::Status last = util::IoError("shard has no live replica");
  int exclude = -1;
  const size_t replicas = std::max<size_t>(shard_map_->num_replicas(shard), 1);
  for (size_t tries = 0; tries < replicas; ++tries) {
    const int replica = shard_map_->PickReplica(shard, exclude);
    if (replica < 0) break;
    if (tries > 0) Count(&Stats::failovers);
    util::Result<HttpClient::Response> response =
        Exchange(shard, static_cast<size_t>(replica), out);
    if (response.ok()) return response;
    last = response.status();
    exclude = replica;
  }
  return util::IoError(util::StrFormat("shard %zu unavailable: %s", shard,
                                       std::string(last.message()).c_str()));
}

HttpResponse Router::Refuse(const util::Status& status) {
  HttpResponse response = ApiEndpoints::StatusResponse(status);
  response.headers.emplace_back(ApiEndpoints::kVersionHeader,
                                std::to_string(shard_map_->MaxVersion()));
  return response;
}

HttpResponse Router::ForwardSingle(size_t shard,
                                   const HttpRequest& request) {
  // HEAD is forwarded as GET: the frontend serializer strips the body, and
  // a backend HEAD response (Content-Length with no body) would stall the
  // pooled keep-alive connection. A GET forwards no body.
  const bool get = request.method == "GET" || request.method == "HEAD";
  const Outbound out{get ? std::string_view("GET") : request.method,
                     request.target, get ? std::string_view() : request.body,
                     get ? std::string_view()
                         : request.Header("Content-Type")};
  util::Result<HttpClient::Response> response = Forward(shard, out);
  if (!response.ok()) {
    Count(&Stats::no_backend);
    return Refuse(response.status());
  }
  Count(&Stats::forwarded);
  return FromBackend(*response);
}

HttpResponse Router::ForwardBatch(const HttpRequest& request,
                                  std::string_view key) {
  // The backend's own item reader and cap, enforced up front so a bad
  // batch costs one 400, not a fan-out.
  std::vector<std::string> items;
  const util::Status collected = ApiEndpoints::BatchItems(request, key, &items);
  if (!collected.ok()) return Refuse(collected);

  // Pass-through query params (transitive, limit, ...) ride on every
  // sub-batch; the items themselves travel as a POST body.
  std::string target(request.path);
  for (const auto& [name, value] : request.params) {
    if (name == key) continue;
    target += target.size() == request.path.size() ? '?' : '&';
    target += server::PercentEncode(name);
    target += '=';
    target += server::PercentEncode(value);
  }

  // Group items by owning shard, preserving input order within each group.
  const size_t num_shards = shard_map_->num_shards();
  std::vector<std::vector<size_t>> groups(num_shards);
  std::vector<std::string> bodies(num_shards);
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t s = shard_map_->ShardForKey(items[i]);
    groups[s].push_back(i);
    bodies[s] += items[i] + '\n';
  }
  const auto sub_batch = [&](size_t s) {
    return Outbound{"POST", target, bodies[s], "text/plain; charset=utf-8"};
  };

  // Fan-out: pipeline the sends (all sub-POSTs go out before any response
  // is read) so the shards compute concurrently, then read in send order.
  // A group that fails either half falls back to the failover loop.
  std::vector<std::optional<InFlight>> in_flight(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const int replica = groups[s].empty() ? -1 : shard_map_->PickReplica(s, -1);
    if (replica < 0) continue;
    util::Result<InFlight> sent =
        Send(s, static_cast<size_t>(replica), sub_batch(s));
    if (sent.ok()) in_flight[s] = std::move(*sent);
  }
  std::vector<std::optional<HttpClient::Response>> responses(num_shards);
  uint64_t max_version = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (groups[s].empty()) continue;
    util::Result<HttpClient::Response> response = util::IoError("not sent");
    if (in_flight[s].has_value()) {
      response = Receive(&*in_flight[s], sub_batch(s));
    }
    if (!response.ok()) response = Forward(s, sub_batch(s));
    if (!response.ok()) {
      Count(&Stats::no_backend);
      return Refuse(response.status());
    }
    max_version = std::max(max_version, VersionOf(*response));
    responses[s] = std::move(*response);
  }

  // Propagate a backend error (429/400/5xx) for any group verbatim — a
  // partial batch would silently drop items.
  for (size_t s = 0; s < num_shards; ++s) {
    if (responses[s].has_value() && responses[s]->status != 200) {
      return FromBackend(*responses[s]);
    }
  }

  // Publish barrier: every sub-response must come from the same snapshot
  // generation. Laggard shards (publish raced the fan-out) are re-fetched
  // a bounded number of times; a still-mixed merge is refused, never
  // served (a client must not observe shard A at version N merged with
  // shard B at N+1).
  for (int round = 0; round < kCoherenceRetries; ++round) {
    bool mixed = false;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!responses[s].has_value()) continue;
      if (VersionOf(*responses[s]) == max_version) continue;
      mixed = true;
      Count(&Stats::coherence_retries);
      util::Result<HttpClient::Response> refetched = Forward(s, sub_batch(s));
      if (refetched.ok()) {
        responses[s] = std::move(*refetched);
        max_version = std::max(max_version, VersionOf(*responses[s]));
      }
    }
    if (!mixed) break;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (responses[s].has_value() && VersionOf(*responses[s]) != max_version) {
      Count(&Stats::mixed_generation_refusals);
      return Refuse(util::IoError(util::StrFormat(
          "mixed snapshot generations across shards (want %llu, shard "
          "%zu still at %llu) — retry",
          static_cast<unsigned long long>(max_version), s,
          static_cast<unsigned long long>(VersionOf(*responses[s])))));
    }
  }

  // Merge sub-results back into input order, under the backends' own
  // envelope: like the version, its head (the batch's options) must agree
  // across shards. The string_views point into `responses`, which outlives
  // the assembly below.
  std::vector<std::string_view> merged(items.size());
  std::optional<std::string_view> head;
  uint64_t cache_hits = 0;
  bool cached = false;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!responses[s].has_value()) continue;
    std::string_view sub_head;
    std::string_view array;
    if (!ApiEndpoints::BatchHead(responses[s]->body, &sub_head) ||
        !FindJsonArray(responses[s]->body, "results", &array)) {
      return Refuse(util::DataLossError(
          util::StrFormat("shard %zu returned no batch envelope", s)));
    }
    if (head.has_value() && *head != sub_head) {
      return Refuse(util::DataLossError(util::StrFormat(
          "shards disagree on the batch options (\"%s\" vs shard %zu's "
          "\"%s\")",
          std::string(*head).c_str(), s, std::string(sub_head).c_str())));
    }
    head = sub_head;
    const std::vector<std::string_view> elements = SplitTopLevelJson(array);
    if (elements.size() != groups[s].size()) {
      return Refuse(util::DataLossError(
          util::StrFormat("shard %zu returned %zu results for %zu items", s,
                          elements.size(), groups[s].size())));
    }
    for (size_t j = 0; j < elements.size(); ++j) {
      merged[groups[s][j]] = elements[j];
    }
    uint64_t hits = 0;
    if (util::ParseUint64(responses[s]->Header("X-Cache-Hits"), &hits)) {
      cached = true;
      cache_hits += hits;
    }
  }
  std::string results;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) results += ',';
    results.append(merged[i]);
  }
  Count(&Stats::batches);
  HttpResponse out;
  out.body = ApiEndpoints::BatchEnvelope(max_version, head.value_or(""),
                                         items.size(), results);
  if (cached) {
    out.headers.emplace_back("X-Cache-Hits", std::to_string(cache_hits));
  }
  out.headers.emplace_back(ApiEndpoints::kVersionHeader,
                           std::to_string(max_version));
  return out;
}

HttpResponse Router::Healthz() {
  bool degraded = false;
  std::string backends = "[";
  bool first = true;
  for (size_t s = 0; s < shard_map_->num_shards(); ++s) {
    for (size_t r = 0; r < shard_map_->num_replicas(s); ++r) {
      const ShardMap::State state = shard_map_->state(s, r);
      if (state != ShardMap::State::kHealthy) degraded = true;
      const ShardMap::Endpoint& endpoint = shard_map_->endpoint(s, r);
      if (!first) backends += ',';
      first = false;
      backends += "{\"shard\":" + JsonUInt(s) + ",\"replica\":" + JsonUInt(r) +
                  ",\"address\":" +
                  JsonString(util::StrFormat("%s:%u", endpoint.host.c_str(),
                                             unsigned{endpoint.port})) +
                  ",\"state\":" + JsonString(StateName(state)) +
                  ",\"failures\":" +
                  JsonUInt(static_cast<uint64_t>(
                      std::max(0, shard_map_->consecutive_failures(s, r)))) +
                  ",\"version\":" + JsonUInt(shard_map_->last_version(s, r)) +
                  "}";
    }
  }
  backends += "]";
  const Stats stats = this->stats();
  std::string counters;
  for (const auto& [name, field] : kCounters) {
    counters += counters.empty() ? '{' : ',';
    counters += JsonString(name) + ":" + JsonUInt(stats.*field);
  }
  counters += '}';
  const uint64_t version = shard_map_->MaxVersion();
  HttpResponse response;
  response.body =
      std::string("{\"status\":") +
      JsonString(degraded ? "degraded" : "ok") +
      ",\"role\":\"router\",\"shards\":" + JsonUInt(shard_map_->num_shards()) +
      ",\"version\":" + JsonUInt(version) + ",\"stats\":" + counters +
      ",\"backends\":" + backends + "}\n";
  response.headers.emplace_back(server::ApiEndpoints::kVersionHeader,
                                std::to_string(version));
  return response;
}

HttpResponse Router::Metrics() {
  const Stats stats = this->stats();
  std::string body;
  for (const auto& [name, field] : kCounters) {
    const std::string metric = std::string("router_") + name + "_total";
    body += util::StrFormat("# TYPE %s counter\n%s %llu\n", metric.c_str(),
                            metric.c_str(),
                            static_cast<unsigned long long>(stats.*field));
  }
  body += util::StrFormat(
      "# TYPE router_hedge_delay_ms gauge\nrouter_hedge_delay_ms %lld\n",
      static_cast<long long>(hedge_delay().count()));
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse Router::Handle(const HttpRequest& request) {
  if (request.path == "/healthz") return Healthz();
  if (request.path == "/metrics") return Metrics();

  // A collection-prefixed path routes like the bare path it stands for;
  // the prefixed target is forwarded verbatim, and the backend's
  // CollectionManager resolves the collection.
  std::string_view collection;
  std::string bare;
  const bool prefixed =
      ApiEndpoints::SplitCollectionPath(request.path, &collection, &bare);
  const ApiEndpoints::Route* route =
      ApiEndpoints::FindRoute(prefixed ? bare : request.path);
  if (route != nullptr && !route->key.empty()) {
    if (route->batch) return ForwardBatch(request, route->key);
    // A missing argument routes to shard 0, whose backend produces the
    // canonical 400 — the router never duplicates the parameter contract.
    const std::string_view key = request.Param(route->key);
    return ForwardSingle(key.empty() ? 0 : shard_map_->ShardForKey(key),
                         request);
  }
  // Every other path (the collection list, a collection's own pages,
  // non-query endpoints and paths no backend serves) goes to shard 0: the
  // backend owns the endpoint contract, 404s and 405s included; the router
  // only picks a shard.
  return ForwardSingle(0, request);
}

void Router::ObserveForwardLatency(std::chrono::microseconds elapsed) {
  const uint64_t us =
      static_cast<uint64_t>(std::max<int64_t>(elapsed.count(), 1));
  const size_t bucket = std::min<size_t>(
      kLatBuckets - 1, static_cast<size_t>(std::bit_width(us)) - 1);
  lat_buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = lat_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((n & 127) != 0) return;
  uint64_t counts[kLatBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kLatBuckets; ++i) {
    counts[i] = lat_buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return;
  const uint64_t rank = total - total / 100;  // p99 (ceil)
  uint64_t cumulative = 0;
  size_t idx = kLatBuckets - 1;
  for (size_t i = 0; i < kLatBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      idx = i;
      break;
    }
  }
  // Bucket idx spans [2^idx, 2^(idx+1)) µs; hedge at its upper bound.
  int64_t delay_ms = ((int64_t{1} << std::min<size_t>(idx + 1, 40)) + 999) /
                     1000;
  delay_ms = std::clamp(delay_ms, kHedgeMinMs, kHedgeMaxMs);
  hedge_delay_ms_.store(delay_ms, std::memory_order_relaxed);
}

}  // namespace cnpb::router
