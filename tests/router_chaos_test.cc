// Kill-a-backend chaos for the router tier: 20 seeds, each a fresh
// 2-shard x 2-replica cluster with concurrent clients hammering the
// router while a seeded-random backend is stopped mid-traffic. The
// invariants are the router's serving contract under partial failure:
// every response has a definite documented status (no hangs, no garbage),
// every 200 carries the cluster's single generation stamp (a replica
// death must never surface as a mixed or unversioned answer), and the
// surviving replicas keep the success rate up.
#include "router/router.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "router/shard_map.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"

namespace cnpb::router {
namespace {

using server::ApiEndpoints;
using server::HttpClient;
using server::HttpServer;
using server::PercentEncode;
using taxonomy::ApiService;
using taxonomy::Taxonomy;

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("曹操", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("君主", "人物", taxonomy::Source::kTag, 0.7f);
  for (int i = 0; i < 8; ++i) {
    t.AddIsa("entity" + std::to_string(i), "concept",
             taxonomy::Source::kTag, 0.5f);
  }
  return t;
}

struct Backend {
  std::unique_ptr<Taxonomy> taxonomy;
  std::unique_ptr<ApiService> api;
  std::unique_ptr<ApiEndpoints> endpoints;
  std::unique_ptr<HttpServer> http;
};

std::unique_ptr<Backend> StartBackend() {
  auto b = std::make_unique<Backend>();
  b->taxonomy = std::make_unique<Taxonomy>(MakeTaxonomy());
  b->api = std::make_unique<ApiService>(
      util::UnownedSnapshot(b->taxonomy.get()),
      ApiService::MentionIndex{{"主公", {b->taxonomy->Find("刘备")}}});
  b->endpoints = std::make_unique<ApiEndpoints>(b->api.get());
  HttpServer::Config config;
  config.num_threads = 2;
  config.drain_deadline = std::chrono::milliseconds(500);
  b->http = std::make_unique<HttpServer>(config, b->endpoints->AsHandler());
  EXPECT_TRUE(b->http->Start().ok());
  return b;
}

struct Tally {
  uint64_t ok = 0;            // 200/404 with the right version stamp
  uint64_t degraded = 0;      // 503 (shard dark / refused merge)
  uint64_t client_errors = 0; // our own connection to the router broke
  uint64_t bad = 0;           // anything outside the contract
};

void ClientLoop(uint16_t router_port, uint32_t seed, int requests,
                Tally* tally) {
  std::mt19937 rng(seed);
  HttpClient client;
  if (!client.Connect("127.0.0.1", router_port).ok()) {
    tally->bad += requests;
    return;
  }
  const std::string mention = PercentEncode("主公");
  const std::string entity = PercentEncode("刘备");
  for (int i = 0; i < requests; ++i) {
    // Pace the load so the request stream outlasts the kill: an unpaced
    // loop finishes before the killer thread fires on most seeds.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    util::Result<HttpClient::Response> response = util::IoError("unsent");
    switch (rng() % 4) {
      case 0:
        response = client.Get("/v1/men2ent?mention=" + mention);
        break;
      case 1:
        response = client.Get("/v1/getConcept?entity=" + entity);
        break;
      case 2:
        response = client.Get("/v1/men2ent?mention=miss" +
                              std::to_string(rng() % 100));
        break;
      default:
        response = client.Post(
            "/v1/getConcept_batch",
            "刘备\n曹操\nentity" + std::to_string(rng() % 8) + "\nmiss\n",
            "text/plain; charset=utf-8");
        break;
    }
    if (!response.ok()) {
      // Our keep-alive connection to the router died; that is a client
      // problem, not a routing one — reconnect and continue.
      ++tally->client_errors;
      client.Close();
      if (!client.Connect("127.0.0.1", router_port).ok()) {
        tally->bad += static_cast<uint64_t>(requests - i);
        return;
      }
      continue;
    }
    switch (response->status) {
      case 200:
        // The cluster only ever serves generation 1; any other stamp means
        // a merge mixed generations or dropped the header.
        if (response->Header("X-Taxonomy-Version") == "1") {
          ++tally->ok;
        } else {
          ++tally->bad;
        }
        break;
      case 404:
        ++tally->ok;  // unknown mention through a live shard
        break;
      case 503:
        ++tally->degraded;
        break;
      default:
        ++tally->bad;
        break;
    }
  }
}

TEST(RouterChaos, SurvivesBackendKillAcrossSeeds) {
  constexpr int kSeeds = 20;
  constexpr int kThreads = 2;
  constexpr int kRequestsPerThread = 50;

  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(0x9e3779b9u + seed);

    // 2 shards x 2 replicas, every backend a full replica of the data.
    std::vector<std::unique_ptr<Backend>> backends;
    std::vector<std::vector<ShardMap::Endpoint>> topology(2);
    for (size_t s = 0; s < 2; ++s) {
      for (size_t r = 0; r < 2; ++r) {
        backends.push_back(StartBackend());
        topology[s].push_back({"127.0.0.1", backends.back()->http->port()});
      }
    }
    ShardMap::Options map_options;
    map_options.quarantine_failures = 3;
    map_options.quarantine_period = std::chrono::milliseconds(100);
    ShardMap map(std::move(topology), map_options);

    Router::Options options;
    options.server.num_threads = 2;
    options.connect_deadline = std::chrono::milliseconds(250);
    options.recv_deadline = std::chrono::milliseconds(1000);
    options.hedge_initial = std::chrono::milliseconds(5);
    Router router(&map, options);
    ASSERT_TRUE(router.Start().ok());

    const size_t victim = rng() % backends.size();
    const int kill_after_ms = 1 + static_cast<int>(rng() % 8);

    std::vector<Tally> tallies(kThreads);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back(ClientLoop, router.port(), seed * 97 + t,
                           kRequestsPerThread, &tallies[t]);
    }
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
      backends[victim]->http->Stop();
      backends[victim]->http->Wait();
    });
    for (auto& c : clients) c.join();
    killer.join();

    Tally total;
    for (const Tally& t : tallies) {
      total.ok += t.ok;
      total.degraded += t.degraded;
      total.client_errors += t.client_errors;
      total.bad += t.bad;
    }
    const uint64_t expected =
        static_cast<uint64_t>(kThreads) * kRequestsPerThread;

    // Contract: nothing outside the documented statuses, ever.
    EXPECT_EQ(total.bad, 0u)
        << "ok=" << total.ok << " degraded=" << total.degraded
        << " client_errors=" << total.client_errors;
    // One dead replica of four leaves every shard with a live replica, so
    // failover keeps the vast majority of requests succeeding.
    EXPECT_GE(total.ok, expected / 2);
    // All backends serve the same generation: a refusal would mean the
    // router invented a mix that cannot exist.
    EXPECT_EQ(router.stats().mixed_generation_refusals, 0u);

    router.Stop();
    router.Wait();
    for (auto& b : backends) {
      b->http->Stop();
      b->http->Wait();
    }
  }
}

}  // namespace
}  // namespace cnpb::router
