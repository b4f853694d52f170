// Loopback load generator for the HTTP serving layer (DESIGN.md §9/§11): an
// in-process HttpServer over a real built taxonomy, hammered by keep-alive
// client connections on 127.0.0.1 with the Table II request mix.
//
// Phase 1 (poller baseline): 8 connections drive the server flat out twice,
// once over the portable poll(2) loop and once over the platform poller
// (epoll on Linux), with an IncrementalUpdater publishing a fresh batch
// mid-run during the second window. Reports QPS, p50/p99, the status
// breakdown, and the epoll-vs-poll delta. Acceptance: >= 20k req/s
// sustained, and the platform poller does not regress the poll baseline.
//
// Phase 2 (connection sweep): holds N concurrent keep-alive connections
// (default sweep up to 1024) using a few driver threads that multiplex
// blocking clients — send one request on every connection, then collect
// every response. A version is published mid-window at each point; each
// connection asserts its observed version stamps never go backwards.
// Acceptance: the largest point connects fully, the server rejects nothing,
// and stamps are monotonic.
//
// Phase 3 (result cache): the same Zipf-skewed mix against a cache-enabled
// ApiEndpoints; reports the cache hit ratio and the req/s delta against the
// uncached phase-1 number.
//
// Phase 4 (batch amortization): one connection compares single-shot
// /v1/men2ent against POST /v1/men2ent_batch at 64 mentions per request,
// in items resolved per second.
//
// Phase 5 (overload): the in-flight cap is armed and every admitted query
// is slowed by an injected 2ms stall, so the connections saturate admission
// and the shed path shows itself as polite 429 + Retry-After responses —
// never connection resets.
//
// Phase 6 (shard router): 4 shards x 2 replicas of in-process backends
// behind the Router frontend, all serving one generation. A healthy window
// sets the baseline, then a second window runs with concurrent batch
// traffic while one replica is stopped mid-run. Acceptance: zero
// mixed-generation responses (no refusals, every merged batch carries the
// cluster's single stamp) and the kill-window hedged p99 stays within 3x
// the healthy-cluster p99.
//
// Phase 7 (multi-collection tenancy): two collections in one
// CollectionManager behind one server. A bare-path window (routed to the
// default collection, byte-compatible with single-tenant serving) measures
// the routing-layer overhead against a single-tenant window run just
// before it over the same view (both uncached, no background publisher);
// a prefixed window splits /v1/c/<name>/ traffic across both collections
// with 1-in-4 requests hitting the /isa reasoning endpoint. Acceptance:
// both windows serve 200s with zero 5xx.
//
//   bench_server [--seconds S] [--connections N] [--threads T]
//                [--sweep N1,N2,...] [--cache-mb MB] [--json PATH]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "collections/manager.h"
#include "core/builder.h"
#include "core/incremental.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "server/client.h"
#include "server/http.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "util/fault_injection.h"
#include "util/histogram.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace cnpb {
namespace {

// The paper's observed API mix (Table II, 83.5M calls over six months).
constexpr double kPMen2Ent = 43'896'044.0 / 83'504'492.0;
constexpr double kPGetConcept = 13'815'076.0 / 83'504'492.0;

struct Options {
  double seconds = 2.0;
  int connections = 8;
  int threads = 4;
  std::vector<int> sweep = {8, 64, 256, 1024};
  size_t cache_mb = 16;
  std::string json_path;
};

struct WorkerResult {
  util::Histogram latency_ms;
  uint64_t ok = 0;
  uint64_t shed = 0;          // 429
  uint64_t not_found = 0;     // 404
  uint64_t server_error = 0;  // 5xx
  uint64_t io_failures = 0;   // connection died; reconnected
  uint64_t shed_without_retry_after = 0;
};

// The client side of a 1024-connection sweep needs ~2x that in fds (client
// and server ends both live in this process); the default soft limit is
// often 1024. Raising it is bench setup, not product behaviour — the
// server itself never needs more fds than connections it accepted.
void RaiseFdLimit() {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t want = std::min<rlim_t>(lim.rlim_max, 1 << 16);
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = want;
  (void)setrlimit(RLIMIT_NOFILE, &lim);
}

uint64_t ParseVersionStamp(const std::string& body) {
  const size_t at = body.find("\"version\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 10, nullptr, 10);
}

// Pre-rendered request targets in the Table II mix, Zipf-skewed like the
// in-process bench, so the hot loop does no string building.
std::vector<std::string> MakeTargets(
    const std::vector<std::string>& mentions,
    const std::vector<std::string>& entities,
    const std::vector<std::string>& concepts, uint64_t seed, size_t count) {
  util::Rng rng(seed);
  util::ZipfSampler mention_zipf(mentions.size(), 1.0);
  util::ZipfSampler entity_zipf(entities.size(), 1.0);
  util::ZipfSampler concept_zipf(concepts.size(), 1.0);
  std::vector<std::string> targets;
  targets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double u = rng.UniformDouble();
    if (u < kPMen2Ent) {
      targets.push_back(
          "/v1/men2ent?mention=" +
          server::PercentEncode(mentions[mention_zipf.Sample(rng)]));
    } else if (u < kPMen2Ent + kPGetConcept) {
      targets.push_back(
          "/v1/getConcept?entity=" +
          server::PercentEncode(entities[entity_zipf.Sample(rng)]));
    } else {
      targets.push_back(
          "/v1/getEntity?concept=" +
          server::PercentEncode(concepts[concept_zipf.Sample(rng)]) +
          "&limit=20");
    }
  }
  return targets;
}

void DriveConnection(uint16_t port, const std::vector<std::string>& targets,
                     std::chrono::steady_clock::time_point deadline,
                     WorkerResult* result) {
  server::HttpClient client;
  size_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client.connected() &&
        !client.Connect("127.0.0.1", port).ok()) {
      ++result->io_failures;
      continue;
    }
    const std::string& target = targets[i++ % targets.size()];
    const auto start = std::chrono::steady_clock::now();
    auto response = client.Get(target);
    if (!response.ok()) {
      ++result->io_failures;
      continue;
    }
    result->latency_ms.Add(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (response->status == 200) {
      ++result->ok;
    } else if (response->status == 429) {
      ++result->shed;
      if (response->Header("Retry-After").empty()) {
        ++result->shed_without_retry_after;
      }
    } else if (response->status == 404) {
      ++result->not_found;
    } else if (response->status >= 500) {
      ++result->server_error;
    }
  }
}

uint64_t TotalRequests(const WorkerResult& r) {
  return r.ok + r.shed + r.not_found + r.server_error;
}

struct Window {
  double qps = 0;
  double elapsed = 0;
  double p50 = 0;
  double p99 = 0;
  WorkerResult total;
};

// One thread per connection, request/response lockstep — the right shape
// for small connection counts where per-request latency matters. A nonzero
// `stagger_ms` spaces out the connects: a burst of simultaneous connects is
// drained into one event loop's accept pass, while connects arriving under
// load spread across the loops — which is what an overload test needs to
// get queries genuinely concurrent.
Window RunWindow(uint16_t port,
                 const std::vector<std::vector<std::string>>& target_sets,
                 int connections, double seconds, int stagger_ms = 0) {
  std::vector<WorkerResult> results(static_cast<size_t>(connections));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  util::WallTimer timer;
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    if (stagger_ms > 0 && c > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stagger_ms));
    }
    workers.emplace_back(
        DriveConnection, port,
        std::cref(target_sets[static_cast<size_t>(c) % target_sets.size()]),
        deadline, &results[static_cast<size_t>(c)]);
  }
  for (auto& worker : workers) worker.join();
  Window window;
  window.elapsed = timer.ElapsedSeconds();
  util::Histogram latency;
  for (const WorkerResult& r : results) {
    window.total.ok += r.ok;
    window.total.shed += r.shed;
    window.total.not_found += r.not_found;
    window.total.server_error += r.server_error;
    window.total.io_failures += r.io_failures;
    window.total.shed_without_retry_after += r.shed_without_retry_after;
    for (double sample : r.latency_ms.samples()) latency.Add(sample);
  }
  window.qps =
      static_cast<double>(TotalRequests(window.total)) / window.elapsed;
  window.p50 = latency.Percentile(50);
  window.p99 = latency.Percentile(99);
  return window;
}

void PrintWindow(const char* label, const Window& w) {
  std::printf("  %-10s %s requests (%.0f req/s)   p50 %.3f ms   p99 %.3f ms\n",
              label, util::CommaSeparated(TotalRequests(w.total)).c_str(),
              w.qps, w.p50, w.p99);
  std::printf("             200: %llu   404: %llu   429: %llu   5xx: %llu"
              "   io: %llu\n",
              static_cast<unsigned long long>(w.total.ok),
              static_cast<unsigned long long>(w.total.not_found),
              static_cast<unsigned long long>(w.total.shed),
              static_cast<unsigned long long>(w.total.server_error),
              static_cast<unsigned long long>(w.total.io_failures));
}

// One driver multiplexing `num_clients` blocking connections: send one
// request on every connection, then collect every response. All
// connections are concurrently in flight from the server's point of view,
// with only a handful of driver threads behind them.
struct SweepShard {
  uint64_t requests = 0;
  uint64_t io_failures = 0;
  uint64_t connect_failures = 0;
  bool versions_monotonic = true;
};

void DriveMultiplexed(uint16_t port, const std::vector<std::string>& targets,
                      int num_clients, std::atomic<int>* connected,
                      std::chrono::steady_clock::time_point deadline,
                      SweepShard* out) {
  std::vector<server::HttpClient> clients(static_cast<size_t>(num_clients));
  std::vector<uint64_t> last_version(static_cast<size_t>(num_clients), 0);
  for (auto& client : clients) {
    if (client.Connect("127.0.0.1", port).ok()) {
      connected->fetch_add(1, std::memory_order_relaxed);
    } else {
      ++out->connect_failures;
    }
  }
  size_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& client : clients) {
      if (!client.connected()) continue;
      const std::string& target = targets[i++ % targets.size()];
      const std::string request =
          "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
      if (!client.SendRaw(request).ok()) ++out->io_failures;
    }
    for (size_t k = 0; k < clients.size(); ++k) {
      if (!clients[k].connected()) {
        // Reconnect out of band so the next round regains the connection.
        if (clients[k].Connect("127.0.0.1", port).ok()) last_version[k] = 0;
        continue;
      }
      auto response = clients[k].ReadResponse();
      if (!response.ok()) {
        ++out->io_failures;
        continue;
      }
      ++out->requests;
      // Versions are published in increasing order and every response is
      // stamped from its pinned snapshot, so what one connection observes
      // can never go backwards — a mid-sweep publish must only ever move
      // the stamps forward.
      const uint64_t version = ParseVersionStamp(response->body);
      if (version > 0) {
        if (version < last_version[k]) out->versions_monotonic = false;
        last_version[k] = version;
      }
    }
  }
}

std::string JsonBool(bool value) { return value ? "true" : "false"; }

void Run(const Options& options) {
  util::IgnoreSigpipe();
  RaiseFdLimit();
  bench::PrintHeader("bench_server",
                     "loopback HTTP serving under the Table II mix");
  auto world = bench::MakeBenchWorld(bench::BenchScale(4000));
  const auto config = bench::DefaultBuilderConfig();

  // The updater owns the authoritative snapshot: it builds the base
  // taxonomy once and republishes after each batch — exactly the deployed
  // never-ending-extraction loop this server fronts.
  core::IncrementalUpdater updater(world->output->dump,
                                   &world->world->lexicon(),
                                   world->corpus_words, config);
  taxonomy::ApiService api(taxonomy::Taxonomy::Freeze(taxonomy::Taxonomy()));
  updater.Publish(&api);
  const uint64_t version_before = api.version();

  // Query universe, drawn from what the base taxonomy can answer.
  const auto snapshot = updater.snapshot();  // the taxonomy just published
  std::vector<std::string> mentions;
  std::vector<std::string> entities;
  for (const auto& page : world->output->dump.pages()) {
    if (snapshot->Find(page.name) == taxonomy::kInvalidNode) continue;
    mentions.push_back(page.mention);
    entities.push_back(page.name);
  }
  std::vector<std::string> concepts;
  for (taxonomy::NodeId id = 0; id < snapshot->num_nodes(); ++id) {
    if (snapshot->Kind(id) == taxonomy::NodeKind::kConcept) {
      concepts.push_back(snapshot->Name(id));
    }
  }
  std::printf("universe: %zu mentions, %zu entities, %zu concepts "
              "(version %llu)\n",
              mentions.size(), entities.size(), concepts.size(),
              static_cast<unsigned long long>(version_before));

  // A fresh batch to publish mid-run: new names under existing tags.
  std::vector<kb::EncyclopediaPage> fresh;
  for (int i = 0; i < 40; ++i) {
    kb::EncyclopediaPage page;
    page.name = "新条目" + std::to_string(i);
    page.mention = page.name;
    page.tags = world->output->dump.page(i % world->output->dump.size()).tags;
    fresh.push_back(std::move(page));
  }

  server::ApiEndpoints endpoints(&api);
  std::vector<std::vector<std::string>> target_sets;
  for (int c = 0; c < options.connections; ++c) {
    target_sets.push_back(MakeTargets(mentions, entities, concepts,
                                      2018 + static_cast<uint64_t>(c),
                                      4096));
  }

  // ---- Phase 1: poller baseline, poll(2) vs the platform poller ----
  std::printf("\nphase 1: %d keep-alive connections, %.1fs per window\n",
              options.connections, options.seconds);
  Window poll_window;
  {
    server::HttpServer::Config server_config;
    server_config.num_threads = options.threads;
    server_config.poller = server::HttpServer::Poller::kPoll;
    server::HttpServer httpd(server_config, endpoints.AsHandler());
    if (const util::Status status = httpd.Start(); !status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    poll_window = RunWindow(httpd.port(), target_sets, options.connections,
                            options.seconds);
    httpd.Stop();
    httpd.Wait();
  }
  PrintWindow("poll", poll_window);

  server::HttpServer::Config server_config;
  server_config.num_threads = options.threads;
  server::HttpServer httpd(server_config, endpoints.AsHandler());
  if (const util::Status status = httpd.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  const bool have_epoll = std::string(httpd.poller_name()) == "epoll";

  // The mid-run publish rides on the platform-poller window, while load is
  // on: the reported QPS includes serving across a live version swap.
  Window epoll_window;
  {
    std::thread publisher([&] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.seconds * 0.5));
      const auto batch = updater.ApplyBatch(fresh);
      const uint64_t version_after = updater.Publish(&api);
      std::printf("  mid-run publish: version %llu -> %llu "
                  "(+%zu pages, %zu accepted)\n",
                  static_cast<unsigned long long>(version_before),
                  static_cast<unsigned long long>(version_after),
                  batch.pages_added, batch.accepted);
    });
    epoll_window = RunWindow(httpd.port(), target_sets, options.connections,
                             options.seconds);
    publisher.join();
  }
  PrintWindow(httpd.poller_name(), epoll_window);
  const double delta_pct =
      poll_window.qps > 0
          ? 100.0 * (epoll_window.qps - poll_window.qps) / poll_window.qps
          : 0.0;
  const bool floor_ok = epoll_window.qps >= 20000.0;
  // "No regression" leaves room for run-to-run noise: at 8 connections the
  // two pollers do the same number of syscalls per request, so anything
  // beyond -10% would be a real epoll-path defect, not noise.
  const bool no_regression = !have_epoll || epoll_window.qps >= 0.9 * poll_window.qps;
  std::printf("  delta       %s vs poll: %+.1f%%\n", httpd.poller_name(),
              delta_pct);
  std::printf("  acceptance  %s (floor 20,000 req/s; %s)\n",
              floor_ok && no_regression ? "PASS" : "FAIL",
              no_regression ? "no poll regression" : "REGRESSED vs poll");

  // ---- Phase 2: connection sweep with mid-sweep publishes ----
  std::printf("\nphase 2: connection sweep (%s poller)\n",
              httpd.poller_name());
  struct SweepPoint {
    int connections = 0;
    double qps = 0;
    uint64_t requests = 0;
    uint64_t connect_failures = 0;
    uint64_t io_failures = 0;
    uint64_t rejected = 0;
    size_t open_peak = 0;
    bool versions_monotonic = true;
  };
  std::vector<SweepPoint> sweep_points;
  const double sweep_seconds = std::max(0.5, options.seconds / 2.0);
  for (const int n : options.sweep) {
    const uint64_t rejected_before = httpd.stats().connections_rejected;
    const int drivers = std::min(8, n);
    std::vector<SweepShard> shards(static_cast<size_t>(drivers));
    std::atomic<int> connected{0};
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(sweep_seconds));
    util::WallTimer timer;
    std::vector<std::thread> threads;
    for (int d = 0; d < drivers; ++d) {
      const int clients = n / drivers + (d < n % drivers ? 1 : 0);
      threads.emplace_back(DriveMultiplexed, httpd.port(),
                           std::cref(target_sets[static_cast<size_t>(d) %
                                                 target_sets.size()]),
                           clients, &connected, deadline,
                           &shards[static_cast<size_t>(d)]);
    }
    // Publish only once every connection is up (or the window is half
    // gone), so the version swap provably lands under full concurrency —
    // open_connections sampled here is the evidence. A completed client
    // connect() only proves the kernel queued the connection; the second
    // clause waits for the event loops to actually accept them all.
    while ((connected.load(std::memory_order_relaxed) < n ||
            httpd.stats().open_connections < static_cast<size_t>(n)) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const size_t open_peak = httpd.stats().open_connections;
    updater.Publish(&api);  // the swap lands while all n connections serve
    for (auto& thread : threads) thread.join();
    const double elapsed = timer.ElapsedSeconds();

    SweepPoint point;
    point.connections = n;
    point.open_peak = open_peak;
    for (const SweepShard& shard : shards) {
      point.requests += shard.requests;
      point.io_failures += shard.io_failures;
      point.connect_failures += shard.connect_failures;
      point.versions_monotonic &= shard.versions_monotonic;
    }
    point.qps = static_cast<double>(point.requests) / elapsed;
    point.rejected = httpd.stats().connections_rejected - rejected_before;
    sweep_points.push_back(point);
    std::printf("  %5d conns  %9.0f req/s   open@publish %5zu   "
                "rejected %llu   connect-fail %llu   stamps %s\n",
                n, point.qps, point.open_peak,
                static_cast<unsigned long long>(point.rejected),
                static_cast<unsigned long long>(point.connect_failures),
                point.versions_monotonic ? "monotonic" : "WENT BACKWARDS");
  }
  const SweepPoint& top = sweep_points.back();
  bool sweep_ok = top.connect_failures == 0 && top.rejected == 0 &&
                  top.open_peak == static_cast<size_t>(top.connections);
  for (const SweepPoint& point : sweep_points) {
    sweep_ok = sweep_ok && point.versions_monotonic;
  }
  std::printf("  acceptance  %s (%d concurrent connections, 0 rejected, "
              "monotonic stamps)\n",
              sweep_ok ? "PASS" : "FAIL", top.connections);

  // ---- Phase 3: result cache on the same mix ----
  server::ResultCache::Config cache_config;
  cache_config.max_bytes = options.cache_mb << 20;
  server::ApiEndpoints cached_endpoints(&api, cache_config);
  Window cache_window;
  {
    server::HttpServer::Config cached_config;
    cached_config.num_threads = options.threads;
    server::HttpServer cached_httpd(cached_config,
                                    cached_endpoints.AsHandler());
    if (const util::Status status = cached_httpd.Start(); !status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    cache_window = RunWindow(cached_httpd.port(), target_sets,
                             options.connections, options.seconds);
    cached_httpd.Stop();
    cached_httpd.Wait();
  }
  const server::ResultCache::Stats cache_stats =
      cached_endpoints.cache()->stats();
  const double cache_delta_pct =
      epoll_window.qps > 0
          ? 100.0 * (cache_window.qps - epoll_window.qps) / epoll_window.qps
          : 0.0;
  std::printf("\nphase 3: result cache (%zu MB), %d connections\n",
              options.cache_mb, options.connections);
  PrintWindow("cached", cache_window);
  std::printf("  cache       hit ratio %.1f%% (%llu hits, %llu misses, "
              "%llu insertions, %llu evictions)\n",
              100.0 * cache_stats.hit_ratio(),
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.insertions),
              static_cast<unsigned long long>(cache_stats.evictions));
  std::printf("  delta       cached vs uncached: %+.1f%%\n", cache_delta_pct);

  // ---- Phase 4: batch amortization ----
  // The same mentions, resolved one-per-request and 64-per-request. Items
  // per second is the honest unit: a batch answers 64 lookups against one
  // pinned snapshot with one round trip.
  constexpr int kBatchSize = 64;
  const double batch_seconds = std::max(0.5, options.seconds / 2.0);
  uint64_t single_items = 0;
  double single_elapsed = 0;
  uint64_t batch_items = 0;
  double batch_elapsed = 0;
  {
    server::HttpClient client;
    if (client.Connect("127.0.0.1", httpd.port()).ok()) {
      util::WallTimer timer;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(batch_seconds));
      size_t i = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string target =
            "/v1/men2ent?mention=" +
            server::PercentEncode(mentions[i++ % mentions.size()]);
        if (client.Get(target).ok()) ++single_items;
      }
      single_elapsed = timer.ElapsedSeconds();
    }
  }
  {
    server::HttpClient client;
    if (client.Connect("127.0.0.1", httpd.port()).ok()) {
      util::WallTimer timer;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(batch_seconds));
      size_t i = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        std::string body;
        for (int k = 0; k < kBatchSize; ++k) {
          body += mentions[i++ % mentions.size()];
          body += '\n';
        }
        auto response = client.Post("/v1/men2ent_batch", body);
        if (response.ok() && response->status == 200) {
          batch_items += kBatchSize;
        }
      }
      batch_elapsed = timer.ElapsedSeconds();
    }
  }
  const double single_rate = single_elapsed > 0
      ? static_cast<double>(single_items) / single_elapsed : 0.0;
  const double batch_rate = batch_elapsed > 0
      ? static_cast<double>(batch_items) / batch_elapsed : 0.0;
  std::printf("\nphase 4: batch amortization, 1 connection, %d per batch\n",
              kBatchSize);
  std::printf("  single      %9.0f mentions/s\n", single_rate);
  std::printf("  batched     %9.0f mentions/s (%.1fx)\n", batch_rate,
              single_rate > 0 ? batch_rate / single_rate : 0.0);

  // ---- Phase 5: overload -> polite 429s ----
  taxonomy::ApiService::ServingLimits limits;
  limits.max_in_flight = 2;
  api.SetServingLimits(limits);
  Window shed_window;
  const int shed_connections = std::max(16, options.connections);
  {
    util::ScopedFaultInjection stall("api.query=1:delay=2", 9);
    shed_window = RunWindow(httpd.port(), target_sets, shed_connections,
                            0.8, /*stagger_ms=*/5);
  }
  api.SetServingLimits(taxonomy::ApiService::ServingLimits());
  const uint64_t shed_requests = TotalRequests(shed_window.total);
  std::printf("\nphase 5: in-flight cap 2 + 2ms injected stall\n");
  std::printf("  requests    %llu, shed %llu (%.1f%%), resets %llu, "
              "429s missing Retry-After: %llu\n",
              static_cast<unsigned long long>(shed_requests),
              static_cast<unsigned long long>(shed_window.total.shed),
              shed_requests > 0
                  ? 100.0 * static_cast<double>(shed_window.total.shed) /
                        static_cast<double>(shed_requests)
                  : 0.0,
              static_cast<unsigned long long>(shed_window.total.io_failures),
              static_cast<unsigned long long>(
                  shed_window.total.shed_without_retry_after));
  const bool overload_ok = shed_window.total.shed > 0 &&
                           shed_window.total.shed_without_retry_after == 0;
  std::printf("  acceptance  %s (sheds surface as 429 + Retry-After, "
              "not resets)\n",
              overload_ok ? "PASS" : "FAIL");

  httpd.Stop();
  httpd.Wait();
  const auto stats = httpd.stats();
  std::printf("\nserver: %llu connections, %llu requests, "
              "%llu parse errors, %llu io errors\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.parse_errors),
              static_cast<unsigned long long>(stats.io_errors));

  // ---- Phase 6: shard router over a replicated cluster ----
  // Every backend is its own ApiService pinning the same published
  // snapshot, so the whole cluster serves one generation — exactly the
  // deployed shape right after a coordinated publish. The router hashes,
  // hedges, fails over, and merges; a replica dies mid-window.
  constexpr size_t kRouterShards = 4;
  constexpr size_t kRouterReplicas = 2;
  const double router_seconds = std::max(0.8, options.seconds / 2.0);
  std::printf("\nphase 6: shard router, %zu shards x %zu replicas, "
              "%.1fs per window\n",
              kRouterShards, kRouterReplicas, router_seconds);
  const auto router_mentions = core::CnProbaseBuilder::BuildMentionIndex(
      world->output->dump, *snapshot);
  std::vector<std::unique_ptr<taxonomy::ApiService>> shard_apis;
  std::vector<std::unique_ptr<server::ApiEndpoints>> shard_endpoints;
  std::vector<std::unique_ptr<server::HttpServer>> shard_servers;
  std::vector<std::vector<router::ShardMap::Endpoint>> topology(kRouterShards);
  for (size_t s = 0; s < kRouterShards; ++s) {
    for (size_t r = 0; r < kRouterReplicas; ++r) {
      shard_apis.push_back(
          std::make_unique<taxonomy::ApiService>(snapshot, router_mentions));
      shard_endpoints.push_back(
          std::make_unique<server::ApiEndpoints>(shard_apis.back().get()));
      server::HttpServer::Config backend_config;
      backend_config.num_threads = 2;
      backend_config.drain_deadline = std::chrono::milliseconds(500);
      shard_servers.push_back(std::make_unique<server::HttpServer>(
          backend_config, shard_endpoints.back()->AsHandler()));
      if (const util::Status status = shard_servers.back()->Start();
          !status.ok()) {
        std::fprintf(stderr, "backend start failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      topology[s].push_back({"127.0.0.1", shard_servers.back()->port()});
    }
  }
  router::ShardMap::Options map_options;
  map_options.quarantine_failures = 3;
  map_options.quarantine_period = std::chrono::milliseconds(200);
  router::ShardMap shard_map(std::move(topology), map_options);
  router::Router::Options router_options;
  // The router handler blocks on backend I/O, so give it a loop thread per
  // client connection — the frontend must not be the bottleneck measured.
  router_options.server.num_threads = std::max(options.connections, 4);
  router_options.connect_deadline = std::chrono::milliseconds(250);
  router_options.recv_deadline = std::chrono::milliseconds(1000);
  router_options.hedge_initial = std::chrono::milliseconds(10);
  router::Router router(&shard_map, router_options);
  if (const util::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "router start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }

  const Window router_healthy = RunWindow(
      router.port(), target_sets, options.connections, router_seconds);
  PrintWindow("healthy", router_healthy);

  // Kill window: the Table II singles plus one dedicated batch connection
  // (the fan-out/merge and coherence-barrier path), with shard 0's second
  // replica stopped partway in.
  std::atomic<uint64_t> batch_ok{0};
  std::atomic<uint64_t> batch_refused{0};
  std::atomic<uint64_t> batch_failed{0};
  std::atomic<bool> batch_stamps_uniform{true};
  Window router_chaos;
  {
    const auto chaos_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(router_seconds));
    std::thread batcher([&] {
      server::HttpClient client;
      size_t i = 0;
      while (std::chrono::steady_clock::now() < chaos_deadline) {
        if (!client.connected() &&
            !client.Connect("127.0.0.1", router.port()).ok()) {
          ++batch_failed;
          continue;
        }
        std::string body;
        for (int k = 0; k < 32; ++k) {
          body += mentions[i++ % mentions.size()];
          body += '\n';
        }
        auto response = client.Post("/v1/men2ent_batch", body);
        if (!response.ok()) {
          ++batch_failed;
          client.Close();
          continue;
        }
        if (response->status == 200) {
          ++batch_ok;
          // A merged batch carries exactly one generation stamp, and every
          // backend serves version 1 — any other stamp means the merge
          // mixed generations or dropped the version.
          if (ParseVersionStamp(response->body) != 1) {
            batch_stamps_uniform.store(false, std::memory_order_relaxed);
          }
        } else if (response->status == 503) {
          ++batch_refused;
        } else {
          ++batch_failed;
        }
      }
    });
    std::thread killer([&] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(router_seconds * 0.4));
      shard_servers[1]->Stop();
      shard_servers[1]->Wait();
    });
    router_chaos = RunWindow(router.port(), target_sets, options.connections,
                             router_seconds);
    batcher.join();
    killer.join();
  }
  PrintWindow("kill-one", router_chaos);

  const router::Router::Stats router_stats = router.stats();
  const double router_p99_ratio =
      router_healthy.p99 > 0 ? router_chaos.p99 / router_healthy.p99 : 0.0;
  const bool router_coherent =
      router_stats.mixed_generation_refusals == 0 &&
      batch_stamps_uniform.load(std::memory_order_relaxed) &&
      batch_ok.load() > 0;
  const bool router_tail_ok =
      router_healthy.p99 <= 0 ||
      router_chaos.p99 <= 3.0 * router_healthy.p99;
  std::printf("  batches     %llu merged, %llu refused, %llu failed "
              "(32 mentions each)\n",
              static_cast<unsigned long long>(batch_ok.load()),
              static_cast<unsigned long long>(batch_refused.load()),
              static_cast<unsigned long long>(batch_failed.load()));
  std::printf("  router      hedges %llu (wins %llu), failovers %llu, "
              "mixed refusals %llu, hedge delay %lld ms\n",
              static_cast<unsigned long long>(router_stats.hedges),
              static_cast<unsigned long long>(router_stats.hedge_wins),
              static_cast<unsigned long long>(router_stats.failovers),
              static_cast<unsigned long long>(
                  router_stats.mixed_generation_refusals),
              static_cast<long long>(router.hedge_delay().count()));
  std::printf("  acceptance  %s (single generation everywhere; kill-window "
              "p99 %.2fx healthy, limit 3x)\n",
              (router_coherent && router_tail_ok) ? "PASS" : "FAIL",
              router_p99_ratio);

  router.Stop();
  router.Wait();
  for (auto& backend : shard_servers) {
    backend->Stop();
    backend->Wait();
  }

  // ---- Phase 7: multi-collection tenancy ----
  // Two collections over the same published snapshot (isolation itself is
  // a test concern — tests/collections_test.cc; here the question is what
  // the tenancy routing layer costs and what the reasoning endpoints do to
  // the tail). The bare window is byte-compatible single-tenant traffic
  // through the manager's default-collection route. Its baseline is a
  // single-tenant window over the same view with the same settings (no
  // cache, no background publisher), run right before it, so the delta
  // between the two is the routing layer alone. (Phase 1's window had a
  // publisher applying a batch mid-run and is not comparable.)
  const double coll_seconds = std::max(0.8, options.seconds / 2.0);
  std::printf("\nphase 7: multi-collection tenancy, 2 collections, "
              "%.1fs per window\n", coll_seconds);
  collections::CollectionManager::Options coll_options;
  coll_options.default_collection = "a";
  collections::CollectionManager manager(coll_options);
  const auto tenancy_view = api.CurrentView();
  for (const char* name : {"a", "b"}) {
    if (const util::Status status = manager.AddCollection(name, tenancy_view);
        !status.ok()) {
      std::fprintf(stderr, "add collection %s failed: %s\n", name,
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  Window single_tenant;
  {
    taxonomy::ApiService single_api(tenancy_view);
    server::ApiEndpoints single_endpoints(&single_api);
    server::HttpServer::Config single_config;
    single_config.num_threads = options.threads;
    server::HttpServer single_httpd(single_config,
                                    single_endpoints.AsHandler());
    if (const util::Status status = single_httpd.Start(); !status.ok()) {
      std::fprintf(stderr, "single-tenant server start failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    single_tenant = RunWindow(single_httpd.port(), target_sets,
                              options.connections, coll_seconds);
    PrintWindow("single", single_tenant);
    single_httpd.Stop();
    single_httpd.Wait();
  }
  Window coll_bare;
  Window coll_prefixed;
  {
    server::HttpServer::Config coll_config;
    coll_config.num_threads = options.threads;
    server::HttpServer coll_httpd(coll_config, manager.AsHandler());
    if (const util::Status status = coll_httpd.Start(); !status.ok()) {
      std::fprintf(stderr, "collections server start failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    coll_bare = RunWindow(coll_httpd.port(), target_sets,
                          options.connections, coll_seconds);
    PrintWindow("bare", coll_bare);

    // Prefixed sets: each connection pins one collection (alternating), its
    // Table II targets rewritten under /v1/c/<name>/, and every 4th target
    // replaced by a bounded isA closure — random entity x random concept,
    // so mostly full depth-4 negative cones, the closure's worst case.
    std::vector<std::vector<std::string>> coll_target_sets;
    {
      util::Rng rng(77);
      util::ZipfSampler entity_zipf(entities.size(), 1.0);
      util::ZipfSampler concept_zipf(concepts.size(), 1.0);
      for (int c = 0; c < options.connections; ++c) {
        const std::string prefix =
            std::string("/v1/c/") + (c % 2 == 0 ? "a" : "b");
        std::vector<std::string> targets;
        const auto& base =
            target_sets[static_cast<size_t>(c) % target_sets.size()];
        targets.reserve(base.size());
        for (const std::string& target : base) {
          targets.push_back(prefix + target.substr(3));  // after "/v1"
        }
        for (size_t i = 0; i < targets.size(); i += 4) {
          targets[i] =
              prefix + "/isa?entity=" +
              server::PercentEncode(entities[entity_zipf.Sample(rng)]) +
              "&concept=" +
              server::PercentEncode(concepts[concept_zipf.Sample(rng)]) +
              "&max_depth=4";
        }
        coll_target_sets.push_back(std::move(targets));
      }
    }
    coll_prefixed = RunWindow(coll_httpd.port(), coll_target_sets,
                              options.connections, coll_seconds);
    PrintWindow("prefixed", coll_prefixed);
    coll_httpd.Stop();
    coll_httpd.Wait();
  }
  const double tenancy_overhead_pct =
      single_tenant.qps > 0
          ? 100.0 * (single_tenant.qps - coll_bare.qps) / single_tenant.qps
          : 0.0;
  const bool collections_ok = coll_bare.total.ok > 0 &&
                              coll_prefixed.total.ok > 0 &&
                              coll_bare.total.server_error == 0 &&
                              coll_prefixed.total.server_error == 0;
  std::printf("  routing     bare %.0f req/s vs single-tenant %.0f req/s "
              "(%.1f%% overhead)\n",
              coll_bare.qps, single_tenant.qps, tenancy_overhead_pct);
  std::printf("  acceptance  %s (both collections served, zero 5xx; "
              "1-in-4 prefixed requests are depth-4 isA closures)\n",
              collections_ok ? "PASS" : "FAIL");

  if (!options.json_path.empty()) {
    std::string json = "{\n";
    json += "  \"bench\": \"bench_server\",\n";
    json += "  \"seconds\": " + std::to_string(options.seconds) + ",\n";
    json += "  \"poller\": \"" + std::string(httpd.poller_name()) + "\",\n";
    json += "  \"baseline\": {\"poll_qps\": " +
            std::to_string(poll_window.qps) + ", \"platform_qps\": " +
            std::to_string(epoll_window.qps) + ", \"delta_pct\": " +
            std::to_string(delta_pct) + "},\n";
    json += "  \"sweep\": [";
    for (size_t i = 0; i < sweep_points.size(); ++i) {
      const SweepPoint& point = sweep_points[i];
      if (i > 0) json += ", ";
      json += "{\"connections\": " + std::to_string(point.connections) +
              ", \"qps\": " + std::to_string(point.qps) +
              ", \"open_at_publish\": " + std::to_string(point.open_peak) +
              ", \"rejected\": " + std::to_string(point.rejected) +
              ", \"connect_failures\": " +
              std::to_string(point.connect_failures) +
              ", \"versions_monotonic\": " +
              JsonBool(point.versions_monotonic) + "}";
    }
    json += "],\n";
    json += "  \"cache\": {\"qps\": " + std::to_string(cache_window.qps) +
            ", \"hit_ratio\": " + std::to_string(cache_stats.hit_ratio()) +
            ", \"hits\": " + std::to_string(cache_stats.hits) +
            ", \"misses\": " + std::to_string(cache_stats.misses) +
            ", \"delta_vs_uncached_pct\": " +
            std::to_string(cache_delta_pct) + "},\n";
    json += "  \"batch\": {\"single_items_per_s\": " +
            std::to_string(single_rate) + ", \"batch_items_per_s\": " +
            std::to_string(batch_rate) + ", \"batch_size\": " +
            std::to_string(kBatchSize) + "},\n";
    json += "  \"overload\": {\"requests\": " +
            std::to_string(shed_requests) + ", \"shed\": " +
            std::to_string(shed_window.total.shed) +
            ", \"missing_retry_after\": " +
            std::to_string(shed_window.total.shed_without_retry_after) +
            "},\n";
    json += "  \"router\": {\"shards\": " + std::to_string(kRouterShards) +
            ", \"replicas\": " + std::to_string(kRouterReplicas) +
            ", \"healthy_qps\": " + std::to_string(router_healthy.qps) +
            ", \"healthy_p99_ms\": " + std::to_string(router_healthy.p99) +
            ", \"kill_qps\": " + std::to_string(router_chaos.qps) +
            ", \"kill_p99_ms\": " + std::to_string(router_chaos.p99) +
            ", \"p99_ratio\": " + std::to_string(router_p99_ratio) +
            ", \"hedges\": " + std::to_string(router_stats.hedges) +
            ", \"hedge_wins\": " + std::to_string(router_stats.hedge_wins) +
            ", \"failovers\": " + std::to_string(router_stats.failovers) +
            ", \"mixed_generation_refusals\": " +
            std::to_string(router_stats.mixed_generation_refusals) +
            ", \"batches_merged\": " + std::to_string(batch_ok.load()) +
            ", \"batches_refused\": " + std::to_string(batch_refused.load()) +
            "},\n";
    json += "  \"collections\": {\"count\": 2"
            ", \"single_tenant_qps\": " + std::to_string(single_tenant.qps) +
            ", \"bare_qps\": " + std::to_string(coll_bare.qps) +
            ", \"bare_p99_ms\": " + std::to_string(coll_bare.p99) +
            ", \"prefixed_qps\": " + std::to_string(coll_prefixed.qps) +
            ", \"prefixed_p99_ms\": " + std::to_string(coll_prefixed.p99) +
            ", \"reasoning_share\": 0.25" +
            ", \"tenancy_overhead_pct\": " +
            std::to_string(tenancy_overhead_pct) + "},\n";
    json += "  \"acceptance\": {\"throughput_floor\": " +
            JsonBool(floor_ok) + ", \"no_poll_regression\": " +
            JsonBool(no_regression) + ", \"sweep\": " + JsonBool(sweep_ok) +
            ", \"overload_polite\": " + JsonBool(overload_ok) +
            ", \"router_coherent\": " + JsonBool(router_coherent) +
            ", \"router_hedged_tail\": " + JsonBool(router_tail_ok) +
            ", \"collections_served\": " + JsonBool(collections_ok) + "}\n";
    json += "}\n";
    if (std::FILE* f = std::fopen(options.json_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", options.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
    }
  }
}

}  // namespace
}  // namespace cnpb

int main(int argc, char** argv) {
  cnpb::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seconds" && i + 1 < argc) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--connections" && i + 1 < argc) {
      options.connections = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--sweep" && i + 1 < argc) {
      options.sweep.clear();
      const std::string list = argv[++i];
      size_t start = 0;
      while (start < list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const int n = std::atoi(list.substr(start, comma - start).c_str());
        if (n > 0) options.sweep.push_back(n);
        start = comma + 1;
      }
      if (options.sweep.empty()) {
        std::fprintf(stderr, "--sweep needs a comma-separated list\n");
        return 2;
      }
    } else if (arg == "--cache-mb" && i + 1 < argc) {
      options.cache_mb =
          static_cast<size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seconds S] [--connections N] [--threads T] "
                   "[--sweep N1,N2,...] [--cache-mb MB] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  cnpb::Run(options);
  return 0;
}
