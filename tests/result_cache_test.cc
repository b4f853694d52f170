// The version-keyed result cache, unit and wire level: LRU/byte-budget
// accounting, exact-version hits with wholesale invalidation on publish,
// the X-Cache contract of the cached endpoints, and (under tsan) cache
// reads racing publishes. The cache may serve a body stamped with a
// just-retired version — that is indistinguishable from the request
// arriving a moment earlier — but it must never serve a body whose stamp
// disagrees with its data.
#include "server/result_cache.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "util/fault_injection.h"

namespace cnpb::server {
namespace {

using taxonomy::ApiService;
using taxonomy::Taxonomy;

// ------------------------------------------------------------ unit level

TEST(ResultCacheTest, KeyIsCollisionFree) {
  // The argument is length-prefixed, so (arg, options) pairs can never
  // collide by concatenation, and the endpoint tag is NUL-terminated.
  EXPECT_NE(ResultCache::Key("getEntity", "ab", "|l1"),
            ResultCache::Key("getEntity", "a", "b|l1"));
  EXPECT_NE(ResultCache::Key("getEntity", "a", "|l12"),
            ResultCache::Key("getEntity", "a1", "|l2"));
  EXPECT_NE(ResultCache::Key("men2ent", "x"),
            ResultCache::Key("getConcept", "x"));
  EXPECT_EQ(ResultCache::Key("men2ent", "x"),
            ResultCache::Key("men2ent", "x"));
}

TEST(ResultCacheTest, HitRequiresExactVersion) {
  ResultCache cache({});
  const std::string key = ResultCache::Key("men2ent", "主公");
  ResultCache::CachedResponse out;
  EXPECT_FALSE(cache.Lookup(key, 1, &out));  // cold
  cache.Insert(key, 1, 200, "body-v1");

  ASSERT_TRUE(cache.Lookup(key, 1, &out));
  EXPECT_EQ(out.status, 200);
  EXPECT_EQ(out.body, "body-v1");

  // A publish bumped the version: the entry is dead and dropped on touch.
  EXPECT_FALSE(cache.Lookup(key, 2, &out));
  // ... including for callers still asking about the old version.
  EXPECT_FALSE(cache.Lookup(key, 1, &out));

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.stale_drops, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.25);
}

TEST(ResultCacheTest, InsertReplacesExistingKey) {
  ResultCache cache({});
  const std::string key = ResultCache::Key("getConcept", "刘备", "|t0");
  cache.Insert(key, 1, 200, "first");
  cache.Insert(key, 1, 404, "second");
  ResultCache::CachedResponse out;
  ASSERT_TRUE(cache.Lookup(key, 1, &out));
  EXPECT_EQ(out.status, 404);
  EXPECT_EQ(out.body, "second");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // One shard sized for exactly three of these entries; recency decides
  // the victim, so a touched entry outlives an older untouched one.
  const std::string body(200, 'x');
  const std::string keys[] = {
      ResultCache::Key("getEntity", "a"), ResultCache::Key("getEntity", "b"),
      ResultCache::Key("getEntity", "c"), ResultCache::Key("getEntity", "d")};
  ResultCache::Config config;
  config.num_shards = 1;
  config.max_bytes = 3 * (keys[0].size() + body.size() + 64);
  ResultCache cache(config);

  cache.Insert(keys[0], 1, 200, body);
  cache.Insert(keys[1], 1, 200, body);
  cache.Insert(keys[2], 1, 200, body);
  EXPECT_EQ(cache.stats().entries, 3u);

  ResultCache::CachedResponse out;
  ASSERT_TRUE(cache.Lookup(keys[0], 1, &out));  // refresh "a"
  cache.Insert(keys[3], 1, 200, body);          // must evict LRU "b"

  EXPECT_TRUE(cache.Lookup(keys[0], 1, &out));
  EXPECT_FALSE(cache.Lookup(keys[1], 1, &out));
  EXPECT_TRUE(cache.Lookup(keys[2], 1, &out));
  EXPECT_TRUE(cache.Lookup(keys[3], 1, &out));

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.stale_drops, 0u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

TEST(ResultCacheTest, OversizedEntryIsNotCached) {
  ResultCache::Config config;
  config.num_shards = 1;
  config.max_bytes = 512;
  ResultCache cache(config);
  cache.Insert(ResultCache::Key("metrics", "all"), 1, 200,
               std::string(4096, 'm'));
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// Lookups and inserts from many threads racing a version bump: run under
// tsan this is the data-race check for the sharded locking; everywhere it
// checks the counters stay exact (hits + misses == lookups issued).
TEST(ResultCacheTest, ConcurrentLookupsInsertsAndVersionBumps) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeys = 32;
  ResultCache::Config config;
  config.max_bytes = 1u << 16;  // small enough to force evictions
  ResultCache cache(config);
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(ResultCache::Key("men2ent", "m" + std::to_string(i)));
  }

  std::atomic<uint64_t> version{1};
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) {
      version.fetch_add(1);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ResultCache::CachedResponse out;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string& key = keys[(t * 7 + i) % kKeys];
        const uint64_t v = version.load();
        if (!cache.Lookup(key, v, &out)) {
          cache.Insert(key, v, 200, "body@" + std::to_string(v));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  publisher.join();

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            uint64_t{kThreads} * kOpsPerThread);
  EXPECT_LE(stats.entries, size_t{kKeys});
  EXPECT_LE(stats.bytes, config.max_bytes);
}

// ------------------------------------------------------------ wire level

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("曹操", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("君主", "人物", taxonomy::Source::kTag, 0.7f);
  for (int i = 0; i < 4; ++i) {
    t.AddIsa("entity" + std::to_string(i), "concept",
             taxonomy::Source::kTag, 0.5f);
  }
  return t;
}

// A live server whose endpoints run with the result cache enabled.
class CachedServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    taxonomy_ = std::make_unique<Taxonomy>(MakeTaxonomy());
    api_ = std::make_unique<ApiService>(
        util::UnownedSnapshot(taxonomy_.get()),
        ApiService::MentionIndex{{"主公", {taxonomy_->Find("刘备")}}});
    endpoints_ =
        std::make_unique<ApiEndpoints>(api_.get(), ResultCache::Config{});
    HttpServer::Config config;
    config.num_threads = 2;
    server_ = std::make_unique<HttpServer>(config, endpoints_->AsHandler());
    ASSERT_TRUE(server_->Start().ok());
  }

  HttpClient Connect() {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::unique_ptr<Taxonomy> taxonomy_;
  std::unique_ptr<ApiService> api_;
  std::unique_ptr<ApiEndpoints> endpoints_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(CachedServerTest, MissThenHitWithIdenticalBody) {
  StartServer();
  HttpClient client = Connect();
  const std::string target = "/v1/men2ent?mention=" + PercentEncode("主公");
  auto first = client.Get(target);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->Header("X-Cache"), "miss");

  auto second = client.Get(target);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->Header("X-Cache"), "hit");
  EXPECT_EQ(second->body, first->body);

  const ResultCache::Stats stats = endpoints_->cache()->stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.insertions, 1u);
}

TEST_F(CachedServerTest, UnknownMention404IsCacheableToo) {
  // The 404 for an unknown mention is snapshot-derived — the snapshot says
  // the mention does not exist — so it caches like any answer.
  StartServer();
  HttpClient client = Connect();
  auto first = client.Get("/v1/men2ent?mention=nobody");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 404);
  EXPECT_EQ(first->Header("X-Cache"), "miss");
  auto second = client.Get("/v1/men2ent?mention=nobody");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 404);
  EXPECT_EQ(second->Header("X-Cache"), "hit");
}

TEST_F(CachedServerTest, TransientErrorsAreNeverCached) {
  StartServer();
  HttpClient client = Connect();
  {
    util::ScopedFaultInjection scoped("api.query=1", 7);
    auto failed = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed->status, 503);
    // No X-Cache header at all: the error did not consult or fill the cache
    // beyond the miss, and must be re-evaluated next time.
    EXPECT_EQ(failed->Header("X-Cache"), "");
  }
  auto ok = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->Header("X-Cache"), "miss");  // the 503 left nothing behind
  auto again = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Header("X-Cache"), "hit");
}

TEST_F(CachedServerTest, PublishInvalidatesWholesale) {
  StartServer();
  HttpClient client = Connect();
  const std::string target =
      "/v1/getConcept?entity=" + PercentEncode("刘备");
  ASSERT_TRUE(client.Get(target).ok());         // miss, fills
  auto warm = client.Get(target);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->Header("X-Cache"), "hit");
  EXPECT_NE(warm->body.find("\"version\":1"), std::string::npos);

  api_->Publish(Taxonomy::Freeze(MakeTaxonomy()), {});

  // Every cached entry is now stale: same query misses, re-resolves against
  // the new snapshot, and carries the new stamp. No invalidation protocol
  // ran — the version key did all the work.
  auto fresh = client.Get(target);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->Header("X-Cache"), "miss");
  EXPECT_NE(fresh->body.find("\"version\":2"), std::string::npos);
  EXPECT_GE(endpoints_->cache()->stats().stale_drops, 1u);

  auto rewarmed = client.Get(target);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_EQ(rewarmed->Header("X-Cache"), "hit");
  EXPECT_NE(rewarmed->body.find("\"version\":2"), std::string::npos);
}

// Batch forms share the per-item fragment entries with their single-shot
// endpoints (DESIGN.md §14): a batch populates per-item entries under its
// pinned version, a repeat batch serves them (X-Cache-Hits counts them),
// and single-shot traffic hits the very same entries — in both directions.
TEST_F(CachedServerTest, BatchSharesPerItemEntriesWithSingleShot) {
  StartServer();
  HttpClient client = Connect();
  const std::string batch = "/v1/men2ent_batch?mention=" +
                            PercentEncode("主公") + "&mention=nobody";
  auto first = client.Get(batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->Header("X-Cache-Hits"), "0");
  auto second = client.Get(batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->Header("X-Cache-Hits"), "2");
  EXPECT_EQ(second->body, first->body);

  // Batch-warmed entries serve single-shot traffic — both the 200 and the
  // unknown-mention 404 path (the entry records the single-shot status).
  auto single = client.Get("/v1/men2ent?mention=" + PercentEncode("主公"));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->status, 200);
  EXPECT_EQ(single->Header("X-Cache"), "hit");
  auto missing = client.Get("/v1/men2ent?mention=nobody");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(missing->Header("X-Cache"), "hit");

  // And the reverse: a single-shot warm is a batch-item hit.
  auto warm = client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->Header("X-Cache"), "miss");
  auto concept_batch =
      client.Get("/v1/getConcept_batch?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(concept_batch.ok());
  EXPECT_EQ(concept_batch->Header("X-Cache-Hits"), "1");
}

// Wire-level churn (the tsan-relevant half of the coherence story): clients
// hammer a cached endpoint while a publisher bumps versions. Hits may serve
// a stamp one publish behind, but the stamp must always name the snapshot
// that produced the body — version V answers always say "genV". Each
// publish waits until the clients have completed two requests stamped with
// the live version, so every version is asked for repeatedly and the cache
// is exercised rather than outrun by the publisher.
TEST(CachedServerChurnTest, CacheNeverServesIncoherentStamps) {
  constexpr uint64_t kPublishes = 120;
  constexpr int kClients = 2;
  const auto make_version = [](uint64_t v) {
    Taxonomy t;
    t.AddIsa("e", "gen" + std::to_string(v), taxonomy::Source::kTag, 0.9f);
    return Taxonomy::Freeze(std::move(t));
  };
  ApiService api(make_version(1));
  ApiEndpoints endpoints(&api, ResultCache::Config{});
  HttpServer::Config config;
  config.num_threads = 2;
  HttpServer server(config, endpoints.AsHandler());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> active_clients{kClients};
  // served[v]: completed requests whose answer was stamped version v.
  std::vector<std::atomic<int>> served(kPublishes + 1);
  std::thread publisher([&] {
    for (uint64_t v = 2; v <= kPublishes; ++v) {
      // A client that failed an assertion has exited; stop waiting on it.
      while (served[v - 1].load() < 2 && active_clients.load() > 0) {
        std::this_thread::yield();
      }
      api.Publish(make_version(v), {});
    }
    done.store(true);
  });

  const auto run_client = [&] {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    while (!done.load()) {
      auto response = client.Get("/v1/getConcept?entity=e");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, 200);
      const size_t at = response->body.find("\"version\":");
      ASSERT_NE(at, std::string::npos);
      const uint64_t stamped =
          std::strtoull(response->body.c_str() + at + 10, nullptr, 10);
      const std::string expected =
          "\"gen" + std::to_string(stamped) + "\"";
      ASSERT_NE(response->body.find(expected), std::string::npos)
          << "stamped " << stamped << " but: " << response->body;
      if (stamped < served.size()) served[stamped].fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      run_client();
      active_clients.fetch_sub(1);
    });
  }
  publisher.join();
  for (std::thread& c : clients) c.join();
  EXPECT_GT(endpoints.cache()->stats().hits, 0u);
}

}  // namespace
}  // namespace cnpb::server
