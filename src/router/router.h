#ifndef CNPROBASE_ROUTER_ROUTER_H_
#define CNPROBASE_ROUTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "router/shard_map.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "util/status.h"

namespace cnpb::router {

// The shard-router tier (DESIGN.md §12, ROADMAP item 2): one HTTP/1.1
// frontend that partitions the three taxonomy APIs across the backends in a
// ShardMap and merges the answers, so clients see a single endpoint with
// the exact wire contract of a lone HttpServer.
//
//   - Single-shot endpoints, bare or under /v1/c/<name>/, hash the argument
//     ApiEndpoints' route table names for them to a shard and forward to
//     one replica, with failover across replicas and hedging: a duplicate
//     request goes to a second replica once the first exceeds a
//     p99-derived delay, and the first answer wins.
//   - Batch endpoints fan out per-shard sub-batches over parallel
//     keep-alive connections (all sends first, then all reads) and merge
//     the sub-results back into input order, in the backends' own batch
//     envelope (ApiEndpoints::BatchEnvelope).
//   - Generation coherence: every backend response carries
//     X-Taxonomy-Version (service.cc); a batch merge whose sub-responses
//     straddle a publish re-fetches the laggard shards a bounded number of
//     times, and refuses (503) rather than mix generations in one response.
//   - Health: request outcomes drive the ShardMap quarantine state
//     machine; a dark shard answers 503, not a hang.
//
// The router's request handler does blocking backend I/O, unlike the
// sub-microsecond in-memory handlers HttpServer was designed around — so a
// router frontend should run with more event-loop threads than a backend
// (Options::server.num_threads defaults higher), and every blocking step is
// bounded by connect/recv deadlines on the hardened HttpClient.
//
// Fault points: `router.connect` (backend connection establishment) and
// `router.backend` (every request sent to a backend, hedged duplicates
// included) — see the registry in DESIGN.md §8.
class Router {
 public:
  struct Options {
    // Frontend server config. More threads than a backend: each in-flight
    // request holds its loop for the duration of the backend exchange.
    server::HttpServer::Config server;
    // Per-backend-connection deadlines (the hardened HttpClient enforces
    // them); a stalled backend costs at most connect+recv per attempt.
    std::chrono::milliseconds connect_deadline{1000};
    std::chrono::milliseconds recv_deadline{2000};
    // Hedging: after the in-flight request to the primary replica has been
    // outstanding for the hedge delay, send a duplicate to another replica
    // and take whichever answers first. The delay tracks the observed p99
    // forward latency, clamped to [1 ms, 100 ms]; hedge_initial seeds it
    // before enough samples exist.
    std::chrono::milliseconds hedge_initial{20};
  };

  struct Stats {
    uint64_t forwarded = 0;         // single-shot requests answered
    uint64_t batches = 0;           // batch requests answered
    uint64_t failovers = 0;         // replica retries after a failure
    uint64_t hedges = 0;            // duplicate requests sent
    uint64_t hedge_wins = 0;        // ... where the duplicate answered first
    uint64_t coherence_retries = 0; // laggard sub-batches re-fetched
    uint64_t mixed_generation_refusals = 0;  // batches 503'd as incoherent
    uint64_t no_backend = 0;        // requests 503'd with the shard dark
  };

  // `shard_map` must outlive the router.
  Router(ShardMap* shard_map, const Options& options);
  ~Router();  // implies Stop() + Wait()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  util::Status Start();
  void Stop();
  void Wait();
  uint16_t port() const;
  const server::HttpServer* server() const { return server_.get(); }

  // The frontend handler; public so unit tests can drive the routing logic
  // without a frontend socket (backends are still reached over HTTP).
  server::HttpResponse Handle(const server::HttpRequest& request);

  Stats stats() const;
  // The current hedge delay (test/diagnostic hook).
  std::chrono::milliseconds hedge_delay() const;

 private:
  // A checked-out backend connection. `reused` distinguishes a pooled
  // keep-alive connection (whose peer may have idle-closed it) from a
  // fresh one, so a failure on a reused connection retries on a fresh
  // socket before counting as a backend failure.
  struct Lease {
    std::unique_ptr<server::HttpClient> client;
    size_t shard = 0;
    size_t replica = 0;
    bool reused = false;
  };

  struct Pool {
    std::mutex mu;
    std::vector<std::unique_ptr<server::HttpClient>> idle;
  };

  // What one forward sends to whichever replica serves it.
  struct Outbound {
    std::string_view method;
    std::string_view target;
    std::string_view body;
    std::string_view content_type;
  };

  // A request sent on one replica, its response not yet read.
  struct InFlight {
    Lease lease;
    std::chrono::steady_clock::time_point start;
  };

  size_t PoolIndex(size_t shard, size_t replica) const {
    return pool_offsets_[shard] + replica;
  }
  // `allow_reuse` false forces a fresh connection (the stale-pool retry).
  util::Result<Lease> Acquire(size_t shard, size_t replica, bool allow_reuse);
  void Release(Lease lease);
  // Request bytes for `out` on `client`'s connection: GETs and POSTs go
  // through the client's own formatter, anything else is built here.
  static std::string BuildRaw(const server::HttpClient& client,
                              const Outbound& out);

  // The exchange's send half: acquire a connection, pass the
  // `router.backend` fault point, send — once more on a fresh socket when
  // a pooled one fails. Failures are reported to the shard map.
  util::Result<InFlight> Send(size_t shard, size_t replica,
                              const Outbound& out, bool allow_reuse = true);
  // The exchange's receive half: read the response, resending once on a
  // fresh socket when a pooled connection's read fails with an I/O error.
  // Reports the outcome to the shard map; pools the connection on success.
  util::Result<server::HttpClient::Response> Receive(InFlight* flight,
                                                     const Outbound& out);
  // The one backend exchange: Send, then Receive. A GET on a multi-replica
  // shard is hedged in between (a duplicate to a second replica past the
  // hedge delay; the first answer wins). Unhedged successes feed the
  // hedge-delay histogram.
  util::Result<server::HttpClient::Response> Exchange(size_t shard,
                                                      size_t replica,
                                                      const Outbound& out);
  // The failover loop: Exchange with each of the shard's replicas at most
  // once, in ShardMap order, until one answers; IoError naming the shard
  // when none does.
  util::Result<server::HttpClient::Response> Forward(size_t shard,
                                                     const Outbound& out);

  server::HttpResponse ForwardSingle(size_t shard,
                                     const server::HttpRequest& request);
  server::HttpResponse ForwardBatch(const server::HttpRequest& request,
                                    std::string_view key);
  // An error the router answers itself, stamped (like a backend's) with
  // the newest version any backend has reported.
  server::HttpResponse Refuse(const util::Status& status);
  server::HttpResponse Healthz();
  server::HttpResponse Metrics();

  void Count(uint64_t Stats::*counter);
  void ObserveForwardLatency(std::chrono::microseconds elapsed);

  ShardMap* const shard_map_;
  const Options options_;
  std::unique_ptr<server::HttpServer> server_;

  std::vector<size_t> pool_offsets_;        // shard -> index into pools_
  std::vector<std::unique_ptr<Pool>> pools_;  // one per backend

  // The counters, read and bumped through std::atomic_ref (Count, stats()).
  mutable Stats counts_;

  // Power-of-two microsecond buckets of successful forward latencies;
  // every 128 samples the p99 is re-derived into hedge_delay_ms_. Self-
  // contained (not obs::) because hedging must work with metrics disabled.
  static constexpr size_t kLatBuckets = 32;
  std::atomic<uint64_t> lat_buckets_[kLatBuckets] = {};
  std::atomic<uint64_t> lat_count_{0};
  std::atomic<int64_t> hedge_delay_ms_;
};

}  // namespace cnpb::router

#endif  // CNPROBASE_ROUTER_ROUTER_H_
