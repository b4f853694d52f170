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

using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using util::JsonString;
using util::JsonUInt;

// Mirrors the backend cap (service.cc): the router enforces it up front so
// an oversized batch costs one 400, not a fan-out.
constexpr size_t kMaxBatchItems = 256;

// Bounds of the adaptive hedge delay (see Options::hedge_initial).
constexpr int64_t kHedgeMinMs = 1;
constexpr int64_t kHedgeMaxMs = 100;

// Idle keep-alive connections pooled per backend.
constexpr size_t kMaxIdlePerBackend = 8;

// Same JSON error shape the backends emit, so router-originated errors are
// indistinguishable on the wire from backend-originated ones.
HttpResponse ErrorResponse(int status, util::StatusCode code,
                           const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = std::string("{\"error\":{\"code\":") +
                  JsonString(util::StatusCodeName(code)) +
                  ",\"message\":" + JsonString(message) + "}}\n";
  return response;
}

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
  stats.forwarded = forwarded_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.coherence_retries = coherence_retries_.load(std::memory_order_relaxed);
  stats.mixed_generation_refusals =
      mixed_refusals_.load(std::memory_order_relaxed);
  stats.no_backend = no_backend_.load(std::memory_order_relaxed);
  return stats;
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

std::string Router::BuildRaw(const HttpClient& client, std::string_view method,
                             std::string_view target, std::string_view body,
                             std::string_view content_type) {
  if (method == "GET" && body.empty()) return client.FormatGet(target);
  if (method == "POST") return client.FormatPost(target, body, content_type);
  // Anything else is forwarded verbatim so the backend's 405 contract shows
  // through the router unchanged.
  std::string raw;
  raw.append(method);
  raw.push_back(' ');
  raw.append(target);
  raw.append(" HTTP/1.1\r\nHost: router\r\n");
  if (!body.empty()) {
    raw.append(util::StrFormat("Content-Length: %zu\r\n", body.size()));
  }
  raw.append("\r\n");
  raw.append(body);
  return raw;
}

util::Result<HttpClient::Response> Router::SendTo(
    size_t shard, size_t replica, std::string_view method,
    std::string_view target, std::string_view body,
    std::string_view content_type) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    util::Result<Lease> lease = Acquire(shard, replica, attempt == 0);
    if (!lease.ok()) {
      shard_map_->ReportFailure(shard, replica);
      return lease.status();
    }
    const auto start = std::chrono::steady_clock::now();
    util::Status sent = util::CheckFault("router.backend");
    if (sent.ok()) {
      sent = lease->client->SendRaw(
          BuildRaw(*lease->client, method, target, body, content_type));
    }
    if (!sent.ok()) {
      // A pooled keep-alive connection may have been idle-closed by the
      // backend; retry once on a fresh socket before blaming it.
      if (lease->reused && attempt == 0) continue;
      shard_map_->ReportFailure(shard, replica);
      return sent;
    }
    util::Result<HttpClient::Response> response =
        lease->client->ReadResponse();
    if (!response.ok()) {
      if (lease->reused && attempt == 0 &&
          response.status().code() == util::StatusCode::kIoError) {
        continue;  // stale keep-alive race: the send won, the read lost
      }
      shard_map_->ReportFailure(shard, replica);
      return response.status();
    }
    shard_map_->ReportSuccess(shard, replica, VersionOf(*response));
    ObserveForwardLatency(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start));
    Release(std::move(*lease));
    return response;
  }
  return util::IoError("unreachable");  // loop always returns
}

util::Result<HttpClient::Response> Router::SendHedged(
    size_t shard, size_t replica, std::string_view method,
    std::string_view target, int* used_replica) {
  *used_replica = static_cast<int>(replica);
  for (int attempt = 0; attempt < 2; ++attempt) {
    util::Result<Lease> lease = Acquire(shard, replica, attempt == 0);
    if (!lease.ok()) {
      shard_map_->ReportFailure(shard, replica);
      return lease.status();
    }
    const auto start = std::chrono::steady_clock::now();
    util::Status sent = util::CheckFault("router.backend");
    if (sent.ok()) {
      sent = lease->client->SendRaw(
          BuildRaw(*lease->client, method, target, {}, {}));
    }
    if (!sent.ok()) {
      if (lease->reused && attempt == 0) continue;
      shard_map_->ReportFailure(shard, replica);
      return sent;
    }

    // Hedging window: give the primary hedge_delay to produce the first
    // byte; past that, race a duplicate on another replica.
    std::optional<Lease> hedge;
    if (shard_map_->num_replicas(shard) > 1) {
      bool ready = false;
      const util::Status waited =
          util::WaitReadable(lease->client->fd(), hedge_delay(), &ready);
      if (waited.ok() && !ready) {
        const int second =
            shard_map_->PickReplica(shard, static_cast<int>(replica));
        if (second >= 0) {
          util::Result<Lease> h =
              Acquire(shard, static_cast<size_t>(second), true);
          if (h.ok() &&
              h->client->SendRaw(BuildRaw(*h->client, method, target, {}, {}))
                  .ok()) {
            hedges_.fetch_add(1, std::memory_order_relaxed);
            hedge = std::move(*h);
          } else {
            shard_map_->ReportFailure(shard, static_cast<size_t>(second));
          }
        }
      }
    }

    if (hedge.has_value()) {
      // First readable connection wins; the loser carries an outstanding
      // response and cannot be pooled, so it is closed.
      pollfd pfds[2] = {};
      pfds[0].fd = lease->client->fd();
      pfds[0].events = POLLIN;
      pfds[1].fd = hedge->client->fd();
      pfds[1].events = POLLIN;
      const auto deadline = start + options_.recv_deadline;
      int winner = -1;
      for (;;) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) break;
        int rc;
        do {
          rc = ::poll(pfds, 2, static_cast<int>(remaining.count()));
        } while (rc < 0 && errno == EINTR);
        if (rc < 0) break;
        if (rc == 0) continue;  // re-check the deadline
        if (pfds[0].revents != 0) {
          winner = 0;
          break;
        }
        if (pfds[1].revents != 0) {
          winner = 1;
          break;
        }
      }
      if (winner == 1) {
        util::Result<HttpClient::Response> response =
            hedge->client->ReadResponse();
        if (response.ok()) {
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
          // The primary blew its latency budget — count it as a soft
          // failure so a dead-but-accepting backend trends into
          // quarantine instead of eating a hedge on every request.
          shard_map_->ReportFailure(shard, replica);
          shard_map_->ReportSuccess(shard, hedge->replica,
                                    VersionOf(*response));
          *used_replica = static_cast<int>(hedge->replica);
          lease->client->Close();
          Release(std::move(*hedge));
          return response;
        }
        // The duplicate answered first but unparseably; fall back to the
        // primary, which may still be working on it.
        shard_map_->ReportFailure(shard, hedge->replica);
        hedge.reset();
      } else if (winner == -1) {
        // Neither produced a byte within recv_deadline: both dark.
        shard_map_->ReportFailure(shard, replica);
        shard_map_->ReportFailure(shard, hedge->replica);
        lease->client->Close();
        hedge->client->Close();
        return util::DeadlineExceededError(util::StrFormat(
            "shard %zu: no replica answered within %lld ms", shard,
            static_cast<long long>(options_.recv_deadline.count())));
      }
      // winner == 0 falls through to the primary read below.
    }

    util::Result<HttpClient::Response> response =
        lease->client->ReadResponse();
    if (hedge.has_value()) hedge->client->Close();
    if (!response.ok()) {
      if (!hedge.has_value() && lease->reused && attempt == 0 &&
          response.status().code() == util::StatusCode::kIoError) {
        continue;
      }
      shard_map_->ReportFailure(shard, replica);
      return response.status();
    }
    shard_map_->ReportSuccess(shard, replica, VersionOf(*response));
    if (!hedge.has_value()) {
      ObserveForwardLatency(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start));
    }
    Release(std::move(*lease));
    return response;
  }
  return util::IoError("unreachable");  // loop always returns
}

size_t Router::ShardForParam(const server::HttpRequest& request,
                             std::string_view param) const {
  const std::string_view key = request.Param(param);
  // A missing argument routes to shard 0, whose backend produces the
  // canonical 400 — the router never duplicates the parameter contract.
  return key.empty() ? 0 : shard_map_->ShardForKey(key);
}

HttpResponse Router::ForwardSingle(size_t shard,
                                   const HttpRequest& request) {
  // HEAD is forwarded as GET: the frontend serializer strips the body, and
  // a backend HEAD response (Content-Length with no body) would stall the
  // pooled keep-alive connection.
  const std::string_view method =
      request.method == "HEAD" ? std::string_view("GET") : request.method;
  util::Status last = util::IoError("shard has no live replica");
  int exclude = -1;
  const size_t replicas = std::max<size_t>(shard_map_->num_replicas(shard), 1);
  for (size_t tries = 0; tries < replicas; ++tries) {
    const int replica = shard_map_->PickReplica(shard, exclude);
    if (replica < 0) break;
    if (tries > 0) failovers_.fetch_add(1, std::memory_order_relaxed);
    int used = replica;
    util::Result<HttpClient::Response> response =
        method == "GET"
            ? SendHedged(shard, static_cast<size_t>(replica), method,
                         request.target, &used)
            : SendTo(shard, static_cast<size_t>(replica), method,
                     request.target, request.body,
                     request.Header("Content-Type"));
    if (response.ok()) {
      forwarded_.fetch_add(1, std::memory_order_relaxed);
      return FromBackend(*response);
    }
    last = response.status();
    exclude = replica;
  }
  no_backend_.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(
      503, util::StatusCode::kIoError,
      util::StrFormat("shard %zu unavailable: %s", shard,
                      std::string(last.message()).c_str()));
}

HttpResponse Router::ForwardBatch(const HttpRequest& request,
                                  std::string_view param) {
  // Collect items exactly like the backend does (service.cc BatchItems).
  std::vector<std::string> items;
  if (request.method == "POST") {
    for (const std::string& line : util::Split(request.body, '\n')) {
      std::string_view term = line;
      if (!term.empty() && term.back() == '\r') term.remove_suffix(1);
      if (!term.empty()) items.emplace_back(term);
    }
  } else {
    for (const auto& [key, value] : request.params) {
      if (key == param) items.push_back(value);
    }
  }
  if (items.empty()) {
    return ErrorResponse(
        400, util::StatusCode::kInvalidArgument,
        "no " + std::string(param) + " given (repeat ?" + std::string(param) +
            "= or POST one per line)");
  }
  if (items.size() > kMaxBatchItems) {
    return ErrorResponse(
        400, util::StatusCode::kInvalidArgument,
        "batch too large: " + std::to_string(items.size()) + " items (max " +
            std::to_string(kMaxBatchItems) + ")");
  }

  // Pass-through query params (transitive, limit, ...) ride on every
  // sub-batch; the items themselves travel as a POST body.
  std::string target(request.path);
  {
    bool first = true;
    for (const auto& [key, value] : request.params) {
      if (key == param) continue;
      target += first ? '?' : '&';
      first = false;
      target += server::PercentEncode(key);
      target += '=';
      target += server::PercentEncode(value);
    }
  }

  // Group items by owning shard, preserving input order within each group.
  const size_t num_shards = shard_map_->num_shards();
  std::vector<std::vector<size_t>> groups(num_shards);
  for (size_t i = 0; i < items.size(); ++i) {
    groups[shard_map_->ShardForKey(items[i])].push_back(i);
  }
  std::vector<std::string> bodies(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (const size_t i : groups[s]) {
      bodies[s] += items[i];
      bodies[s] += '\n';
    }
  }

  const auto fetch_group =
      [&](size_t s) -> util::Result<HttpClient::Response> {
    util::Status last = util::IoError("shard has no live replica");
    int exclude = -1;
    const size_t replicas = std::max<size_t>(shard_map_->num_replicas(s), 1);
    for (size_t tries = 0; tries < replicas; ++tries) {
      const int replica = shard_map_->PickReplica(s, exclude);
      if (replica < 0) break;
      if (tries > 0) failovers_.fetch_add(1, std::memory_order_relaxed);
      util::Result<HttpClient::Response> response =
          SendTo(s, static_cast<size_t>(replica), "POST", target, bodies[s],
                 "text/plain; charset=utf-8");
      if (response.ok()) return response;
      last = response.status();
      exclude = replica;
    }
    return last;
  };

  // Fan-out: pipeline the sends (all sub-POSTs go out before any response
  // is read) so the shards compute concurrently, then read in send order.
  // Any group that fails either phase falls back to sequential failover.
  std::vector<std::optional<HttpClient::Response>> responses(num_shards);
  {
    std::vector<std::pair<size_t, Lease>> in_flight;
    for (size_t s = 0; s < num_shards; ++s) {
      if (groups[s].empty()) continue;
      const int replica = shard_map_->PickReplica(s, -1);
      if (replica < 0) continue;  // sequential fallback handles it
      util::Result<Lease> lease =
          Acquire(s, static_cast<size_t>(replica), true);
      if (!lease.ok()) {
        shard_map_->ReportFailure(s, static_cast<size_t>(replica));
        continue;
      }
      util::Status sent = util::CheckFault("router.backend");
      if (sent.ok()) {
        sent = lease->client->SendRaw(BuildRaw(
            *lease->client, "POST", target, bodies[s],
            "text/plain; charset=utf-8"));
      }
      if (!sent.ok()) {
        shard_map_->ReportFailure(s, static_cast<size_t>(replica));
        continue;
      }
      in_flight.emplace_back(s, std::move(*lease));
    }
    for (auto& [s, lease] : in_flight) {
      util::Result<HttpClient::Response> response =
          lease.client->ReadResponse();
      if (response.ok()) {
        shard_map_->ReportSuccess(s, lease.replica, VersionOf(*response));
        responses[s] = std::move(*response);
        Release(std::move(lease));
      } else {
        shard_map_->ReportFailure(s, lease.replica);
      }
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (groups[s].empty() || responses[s].has_value()) continue;
    util::Result<HttpClient::Response> response = fetch_group(s);
    if (!response.ok()) {
      no_backend_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(
          503, util::StatusCode::kIoError,
          util::StrFormat("shard %zu unavailable: %s", s,
                          std::string(response.status().message()).c_str()));
    }
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
  uint64_t max_version = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (responses[s].has_value()) {
      max_version = std::max(max_version, VersionOf(*responses[s]));
    }
  }
  for (int round = 0; round < options_.coherence_retries; ++round) {
    bool mixed = false;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!responses[s].has_value()) continue;
      if (VersionOf(*responses[s]) == max_version) continue;
      mixed = true;
      coherence_retries_.fetch_add(1, std::memory_order_relaxed);
      util::Result<HttpClient::Response> refetched = fetch_group(s);
      if (refetched.ok()) {
        responses[s] = std::move(*refetched);
        max_version = std::max(max_version, VersionOf(*responses[s]));
      }
    }
    if (!mixed) break;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (responses[s].has_value() && VersionOf(*responses[s]) != max_version) {
      mixed_refusals_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(
          503, util::StatusCode::kIoError,
          util::StrFormat(
              "mixed snapshot generations across shards (want %llu, shard "
              "%zu still at %llu) — retry",
              static_cast<unsigned long long>(max_version), s,
              static_cast<unsigned long long>(VersionOf(*responses[s]))));
    }
  }

  // Merge sub-results back into input order. The string_views point into
  // the responses vector, which outlives the assembly below.
  std::vector<std::string_view> merged(items.size());
  for (size_t s = 0; s < num_shards; ++s) {
    if (!responses[s].has_value()) continue;
    std::string_view array;
    if (!FindJsonArray(responses[s]->body, "results", &array)) {
      return ErrorResponse(503, util::StatusCode::kDataLoss,
                           util::StrFormat(
                               "shard %zu returned no results array", s));
    }
    const std::vector<std::string_view> elements = SplitTopLevelJson(array);
    if (elements.size() != groups[s].size()) {
      return ErrorResponse(
          503, util::StatusCode::kDataLoss,
          util::StrFormat("shard %zu returned %zu results for %zu items", s,
                          elements.size(), groups[s].size()));
    }
    for (size_t j = 0; j < elements.size(); ++j) {
      merged[groups[s][j]] = elements[j];
    }
  }
  std::string body = "{\"version\":" + JsonUInt(max_version) +
                     ",\"count\":" + JsonUInt(items.size()) + ",\"results\":[";
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) body += ',';
    body.append(merged[i]);
  }
  body += "]}\n";
  batches_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse out;
  out.body = std::move(body);
  out.headers.emplace_back(server::ApiEndpoints::kVersionHeader,
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
  const uint64_t version = shard_map_->MaxVersion();
  HttpResponse response;
  response.body =
      std::string("{\"status\":") +
      JsonString(degraded ? "degraded" : "ok") +
      ",\"role\":\"router\",\"shards\":" + JsonUInt(shard_map_->num_shards()) +
      ",\"version\":" + JsonUInt(version) +
      ",\"stats\":{\"forwarded\":" + JsonUInt(stats.forwarded) +
      ",\"batches\":" + JsonUInt(stats.batches) +
      ",\"failovers\":" + JsonUInt(stats.failovers) +
      ",\"hedges\":" + JsonUInt(stats.hedges) +
      ",\"hedge_wins\":" + JsonUInt(stats.hedge_wins) +
      ",\"coherence_retries\":" + JsonUInt(stats.coherence_retries) +
      ",\"mixed_generation_refusals\":" +
      JsonUInt(stats.mixed_generation_refusals) +
      ",\"no_backend\":" + JsonUInt(stats.no_backend) +
      "},\"backends\":" + backends + "}\n";
  response.headers.emplace_back(server::ApiEndpoints::kVersionHeader,
                                std::to_string(version));
  return response;
}

HttpResponse Router::Metrics() {
  const Stats stats = this->stats();
  std::string body;
  const auto counter = [&body](const char* name, uint64_t value) {
    body += util::StrFormat("# TYPE %s counter\n%s %llu\n", name, name,
                            static_cast<unsigned long long>(value));
  };
  counter("router_forwarded_total", stats.forwarded);
  counter("router_batches_total", stats.batches);
  counter("router_failovers_total", stats.failovers);
  counter("router_hedges_total", stats.hedges);
  counter("router_hedge_wins_total", stats.hedge_wins);
  counter("router_coherence_retries_total", stats.coherence_retries);
  counter("router_mixed_generation_refusals_total",
          stats.mixed_generation_refusals);
  counter("router_no_backend_total", stats.no_backend);
  body += util::StrFormat(
      "# TYPE router_hedge_delay_ms gauge\nrouter_hedge_delay_ms %lld\n",
      static_cast<long long>(hedge_delay().count()));
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse Router::Handle(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/healthz") return Healthz();
  if (path == "/metrics") return Metrics();
  if (path == "/v1/collections") return ForwardSingle(0, request);

  // Multi-collection prefix (/v1/c/<name>/<endpoint>): the router sees the
  // same endpoint table behind a collection prefix and routes by the same
  // key parameter, forwarding the prefixed target verbatim so the backend's
  // CollectionManager resolves the collection. Suffix-less forms (the
  // collection info page) and endpoints with no routing key go to shard 0 —
  // the backend owns the endpoint contract, the router only picks a shard.
  std::string_view route = path;
  bool prefixed = false;
  if (util::StartsWith(path, "/v1/c/")) {
    prefixed = true;
    const std::string_view rest = std::string_view(path).substr(6);
    const size_t slash = rest.find('/');
    if (slash == std::string_view::npos) return ForwardSingle(0, request);
    route = rest.substr(slash);
    if (route == "/" || route == "/healthz" || route == "/metrics") {
      return ForwardSingle(0, request);
    }
  } else if (util::StartsWith(path, "/v1/")) {
    route = std::string_view(path).substr(3);
  } else {
    return ErrorResponse(404, util::StatusCode::kNotFound,
                         "no such endpoint: " + path);
  }
  if (route == "/men2ent") {
    return ForwardSingle(ShardForParam(request, "mention"), request);
  }
  if (route == "/getConcept" || route == "/isa" || route == "/similar") {
    return ForwardSingle(ShardForParam(request, "entity"), request);
  }
  if (route == "/getEntity" || route == "/expand") {
    return ForwardSingle(ShardForParam(request, "concept"), request);
  }
  if (route == "/lca") {
    return ForwardSingle(ShardForParam(request, "a"), request);
  }
  if (route == "/men2ent_batch") return ForwardBatch(request, "mention");
  if (route == "/getConcept_batch") return ForwardBatch(request, "entity");
  if (route == "/getEntity_batch") return ForwardBatch(request, "concept");
  if (prefixed) return ForwardSingle(0, request);
  return ErrorResponse(404, util::StatusCode::kNotFound,
                       "no such endpoint: " + path);
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
