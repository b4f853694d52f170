// Router-tier tests: json_merge structural helpers, ShardMap placement
// stability and the quarantine/half-open/recovery state machine, and
// end-to-end routing over real loopback backends — forwarding, failover,
// hedging past a stalled replica, batch fan-out/merge order, and the
// mixed-generation publish barrier. Multi-seed kill-a-backend chaos lives
// in router_chaos_test.cc.
#include "router/router.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "router/json_merge.h"
#include "router/shard_map.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "util/fault_injection.h"
#include "util/net.h"

namespace cnpb::router {
namespace {

using server::ApiEndpoints;
using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::PercentEncode;
using taxonomy::ApiService;
using taxonomy::Taxonomy;

// ---------------------------------------------------------------------------
// json_merge

TEST(JsonMerge, FindJsonUIntReadsTopLevelKey) {
  uint64_t value = 0;
  ASSERT_TRUE(FindJsonUInt("{\"version\":7,\"count\":2}", "version", &value));
  EXPECT_EQ(value, 7u);
  ASSERT_TRUE(FindJsonUInt("{\"version\":7,\"count\":2}", "count", &value));
  EXPECT_EQ(value, 2u);
}

TEST(JsonMerge, FindJsonUIntIgnoresKeyInsideStringsAndNesting) {
  uint64_t value = 0;
  // The literal text "version": appears inside a string value and inside a
  // nested object; only the top-level key may match.
  const std::string json =
      "{\"a\":\"\\\"version\\\":9\",\"b\":{\"version\":8},\"version\":4}";
  ASSERT_TRUE(FindJsonUInt(json, "version", &value));
  EXPECT_EQ(value, 4u);
}

TEST(JsonMerge, FindJsonUIntRejectsMissingOrNonNumeric) {
  uint64_t value = 0;
  EXPECT_FALSE(FindJsonUInt("{\"count\":2}", "version", &value));
  EXPECT_FALSE(FindJsonUInt("{\"version\":\"7\"}", "version", &value));
  EXPECT_FALSE(FindJsonUInt("{\"version\":-7}", "version", &value));
}

TEST(JsonMerge, FindJsonArrayReturnsBracketContents) {
  std::string_view array;
  const std::string json =
      "{\"version\":1,\"results\":[{\"a\":[1,2]},{\"b\":\"]\"}],\"n\":0}";
  ASSERT_TRUE(FindJsonArray(json, "results", &array));
  EXPECT_EQ(array, "{\"a\":[1,2]},{\"b\":\"]\"}");
  EXPECT_FALSE(FindJsonArray(json, "nope", &array));
}

TEST(JsonMerge, SplitTopLevelJsonIsBracketAndStringAware) {
  const std::vector<std::string_view> parts =
      SplitTopLevelJson("{\"a\":[1,2]},{\"b\":\"x,y\"},3");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "{\"a\":[1,2]}");
  EXPECT_EQ(parts[1], "{\"b\":\"x,y\"}");
  EXPECT_EQ(parts[2], "3");
  EXPECT_TRUE(SplitTopLevelJson("").empty());
}

// ---------------------------------------------------------------------------
// ShardMap

std::vector<std::vector<ShardMap::Endpoint>> Topology(size_t shards,
                                                      size_t replicas,
                                                      uint16_t base_port) {
  std::vector<std::vector<ShardMap::Endpoint>> out(shards);
  uint16_t port = base_port;
  for (size_t s = 0; s < shards; ++s) {
    for (size_t r = 0; r < replicas; ++r) {
      out[s].push_back({"127.0.0.1", port++});
    }
  }
  return out;
}

TEST(ShardMap, PlacementIsDeterministicAcrossInstancesAndAddresses) {
  // Two maps with the same shard count but entirely different endpoint
  // addresses must agree on every key: the ring hashes shard indices, not
  // host:port, so placement survives restarts and re-deployments.
  ShardMap a(Topology(4, 1, 9000), {});
  ShardMap b(Topology(4, 3, 12000), {});
  for (int i = 0; i < 500; ++i) {
    const std::string key = "键key" + std::to_string(i);
    const size_t shard = a.ShardForKey(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, b.ShardForKey(key));
  }
}

TEST(ShardMap, PlacementCoversAllShards) {
  ShardMap map(Topology(4, 1, 9000), {});
  std::vector<int> hits(4, 0);
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    ++hits[map.ShardForKey("mention" + std::to_string(i))];
  }
  for (size_t s = 0; s < 4; ++s) {
    // 64 vnodes/shard keeps the imbalance mild; demand every shard gets at
    // least a third of its fair share.
    EXPECT_GT(hits[s], kKeys / 4 / 3) << "shard " << s << " starved";
  }
}

TEST(ShardMap, SingleShardOwnsEverything) {
  ShardMap map(Topology(1, 2, 9000), {});
  EXPECT_EQ(map.ShardForKey("任何东西"), 0u);
  EXPECT_EQ(map.ShardForKey(""), 0u);
}

TEST(ShardMap, ConsecutiveFailuresTripQuarantine) {
  ShardMap::Options options;
  options.quarantine_failures = 3;
  options.quarantine_period = std::chrono::milliseconds(60000);
  ShardMap map(Topology(1, 2, 9000), options);

  map.ReportFailure(0, 0);
  map.ReportFailure(0, 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kHealthy);
  map.ReportFailure(0, 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kQuarantined);
  EXPECT_EQ(map.consecutive_failures(0, 0), 3);

  // Every pick now lands on the remaining healthy replica.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(map.PickReplica(0, -1), 1);
  }
}

TEST(ShardMap, SuccessResetsTheFailureStreak) {
  ShardMap::Options options;
  options.quarantine_failures = 3;
  ShardMap map(Topology(1, 1, 9000), options);
  map.ReportFailure(0, 0);
  map.ReportFailure(0, 0);
  map.ReportSuccess(0, 0, 1);
  EXPECT_EQ(map.consecutive_failures(0, 0), 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kHealthy);
  // The streak must start over, not resume.
  map.ReportFailure(0, 0);
  map.ReportFailure(0, 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kHealthy);
}

TEST(ShardMap, HalfOpenAdmitsOneProbeThenRecovers) {
  ShardMap::Options options;
  options.quarantine_failures = 2;
  options.quarantine_period = std::chrono::milliseconds(50);
  ShardMap map(Topology(1, 1, 9000), options);

  map.ReportFailure(0, 0);
  map.ReportFailure(0, 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kQuarantined);
  EXPECT_EQ(map.PickReplica(0, -1), -1);  // shard dark during the period

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kHalfOpen);
  // Exactly one probe is admitted while it is in flight.
  EXPECT_EQ(map.PickReplica(0, -1), 0);
  EXPECT_EQ(map.PickReplica(0, -1), -1);

  map.ReportSuccess(0, 0, 1);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kHealthy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(map.PickReplica(0, -1), 0);
  }
}

TEST(ShardMap, FailedProbeRequarantines) {
  ShardMap::Options options;
  options.quarantine_failures = 2;
  options.quarantine_period = std::chrono::milliseconds(50);
  ShardMap map(Topology(1, 1, 9000), options);
  map.ReportFailure(0, 0);
  map.ReportFailure(0, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_EQ(map.PickReplica(0, -1), 0);  // the probe
  map.ReportFailure(0, 0);
  EXPECT_EQ(map.state(0, 0), ShardMap::State::kQuarantined);
  EXPECT_EQ(map.PickReplica(0, -1), -1);  // a fresh period has begun
}

TEST(ShardMap, MaxVersionTracksTheNewestSuccess) {
  ShardMap map(Topology(2, 1, 9000), {});
  EXPECT_EQ(map.MaxVersion(), 0u);
  map.ReportSuccess(0, 0, 3);
  map.ReportSuccess(1, 0, 7);
  EXPECT_EQ(map.MaxVersion(), 7u);
  EXPECT_EQ(map.last_version(0, 0), 3u);
  EXPECT_EQ(map.last_version(1, 0), 7u);
  // A success without a version stamp must not regress the record.
  map.ReportSuccess(1, 0, 0);
  EXPECT_EQ(map.last_version(1, 0), 7u);
}

// ---------------------------------------------------------------------------
// End-to-end over real backends

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("刘备", "人物", taxonomy::Source::kTag, 0.8f);
  t.AddIsa("曹操", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("君主", "人物", taxonomy::Source::kTag, 0.7f);
  for (int i = 0; i < 6; ++i) {
    t.AddIsa("entity" + std::to_string(i), "concept",
             taxonomy::Source::kTag, 0.5f);
  }
  return t;
}

std::shared_ptr<const Taxonomy> MakeGenTaxonomy(uint64_t version) {
  Taxonomy t;
  const std::string gen = std::to_string(version);
  t.AddIsa("e", "gen" + gen, taxonomy::Source::kTag, 0.99f);
  t.AddIsa("ent" + gen, "anchor", taxonomy::Source::kTag, 0.99f);
  return Taxonomy::Freeze(std::move(t));
}

// One live backend: taxonomy + ApiService + endpoints + HttpServer.
struct Backend {
  std::unique_ptr<Taxonomy> taxonomy;
  std::shared_ptr<const Taxonomy> frozen;
  std::unique_ptr<ApiService> api;
  std::unique_ptr<ApiEndpoints> endpoints;
  std::unique_ptr<HttpServer> http;

  uint16_t port() const { return http->port(); }
  void Stop() {
    http->Stop();
    http->Wait();
  }
};

std::unique_ptr<Backend> StartBackend() {
  auto b = std::make_unique<Backend>();
  b->taxonomy = std::make_unique<Taxonomy>(MakeTaxonomy());
  b->api = std::make_unique<ApiService>(
      util::UnownedSnapshot(b->taxonomy.get()),
      ApiService::MentionIndex{{"主公", {b->taxonomy->Find("刘备")}},
                               {"孟德", {b->taxonomy->Find("曹操")}}});
  b->endpoints = std::make_unique<ApiEndpoints>(b->api.get());
  HttpServer::Config config;
  config.num_threads = 2;
  b->http = std::make_unique<HttpServer>(config, b->endpoints->AsHandler());
  EXPECT_TRUE(b->http->Start().ok());
  return b;
}

// A backend serving the generation marker taxonomy, published up to
// `version` (the owning ApiService constructor starts at 1).
std::unique_ptr<Backend> StartGenBackend(uint64_t version) {
  auto b = std::make_unique<Backend>();
  b->frozen = MakeGenTaxonomy(1);
  b->api = std::make_unique<ApiService>(b->frozen);
  for (uint64_t v = 2; v <= version; ++v) {
    b->api->Publish(MakeGenTaxonomy(v), {});
  }
  b->endpoints = std::make_unique<ApiEndpoints>(b->api.get());
  HttpServer::Config config;
  config.num_threads = 2;
  b->http = std::make_unique<HttpServer>(config, b->endpoints->AsHandler());
  EXPECT_TRUE(b->http->Start().ok());
  return b;
}

std::string_view HeaderOf(const HttpResponse& response,
                          std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

class RouterTest : public ::testing::Test {
 protected:
  // `shards` x `replicas` backends, every one serving the full taxonomy
  // (the router partitions the keyspace; replicating the data keeps every
  // routing choice answerable in a test).
  void StartCluster(size_t shards, size_t replicas,
                    Router::Options options = {}) {
    std::vector<std::vector<ShardMap::Endpoint>> topology(shards);
    for (size_t s = 0; s < shards; ++s) {
      for (size_t r = 0; r < replicas; ++r) {
        backends_.push_back(StartBackend());
        topology[s].push_back({"127.0.0.1", backends_.back()->port()});
      }
    }
    StartRouter(std::move(topology), options);
  }

  void StartRouter(std::vector<std::vector<ShardMap::Endpoint>> topology,
                   Router::Options options = {}) {
    ShardMap::Options map_options;
    map_options.quarantine_failures = 3;
    map_options.quarantine_period = std::chrono::milliseconds(100);
    map_ = std::make_unique<ShardMap>(std::move(topology), map_options);
    options.server.num_threads = 2;
    options.connect_deadline = std::chrono::milliseconds(500);
    options.recv_deadline = std::chrono::milliseconds(2000);
    router_ = std::make_unique<Router>(map_.get(), options);
    ASSERT_TRUE(router_->Start().ok());
  }

  HttpClient Connect() {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", router_->port()).ok());
    return client;
  }

  Backend& backend(size_t i) { return *backends_[i]; }

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<ShardMap> map_;
  std::unique_ptr<Router> router_;  // after map_: destroyed (stopped) first
};

TEST_F(RouterTest, ForwardsSingleShotWithVersionHeader) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  auto response =
      client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("君主"), std::string::npos);
  EXPECT_EQ(response->Header("X-Taxonomy-Version"), "1");
  EXPECT_GE(router_->stats().forwarded, 1u);
}

TEST_F(RouterTest, RoutesMen2EntByMention) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  auto response = client.Get("/v1/men2ent?mention=" + PercentEncode("主公"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("刘备"), std::string::npos);

  // Unknown mention: the backend's 404 passes through, version stamp intact.
  response = client.Get("/v1/men2ent?mention=" + PercentEncode("无名氏"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);
  EXPECT_EQ(response->Header("X-Taxonomy-Version"), "1");
}

TEST_F(RouterTest, MissingParamYieldsTheBackendsCanonical400) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  auto response = client.Get("/v1/getConcept");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
}

TEST_F(RouterTest, MethodContractPassesThrough) {
  StartCluster(1, 1);
  HttpClient client = Connect();
  auto response = client.Post("/v1/men2ent?mention=x", "", "text/plain");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 405);
  EXPECT_FALSE(response->Header("Allow").empty());
}

TEST_F(RouterTest, UnknownPathIsAnsweredLocally) {
  StartCluster(1, 1);
  HttpClient client = Connect();
  auto response = client.Get("/v1/nope");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);
  EXPECT_NE(response->body.find("no such endpoint"), std::string::npos);
}

TEST_F(RouterTest, HeadIsForwardedAsGet) {
  StartCluster(1, 1);
  // Drive Handle() directly: a HEAD response from the frontend has its body
  // stripped by the serializer, but the handler must produce the full
  // response (and must not forward HEAD to the backend — a bodyless
  // backend response would stall the pooled keep-alive connection).
  HttpRequest request;
  request.method = "HEAD";
  request.path = "/v1/getConcept";
  request.target = "/v1/getConcept?entity=" + PercentEncode("刘备");
  request.params = {{"entity", "刘备"}};
  const HttpResponse response = router_->Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("君主"), std::string::npos);
  EXPECT_EQ(HeaderOf(response, "X-Taxonomy-Version"), "1");

  // The connection that served the HEAD-as-GET is pooled and must still be
  // usable for the next forward.
  const HttpResponse again = router_->Handle(request);
  EXPECT_EQ(again.status, 200);
}

TEST_F(RouterTest, HealthzReportsTopologyAndMetricsExposeCounters) {
  StartCluster(2, 2);
  HttpClient client = Connect();
  auto query =
      client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(query.ok());

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health->body.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(health->body.find("\"backends\":["), std::string::npos);
  EXPECT_NE(health->body.find("\"state\":\"healthy\""), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("router_forwarded_total"), std::string::npos);
  EXPECT_NE(metrics->body.find("router_hedge_delay_ms"), std::string::npos);
}

TEST_F(RouterTest, BatchFansOutAndMergesInInputOrder) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  // Keys spread across both shards; unknown items come back empty (the
  // partial-answer batch contract) but still occupy their slot.
  const std::vector<std::string> items = {"刘备", "曹操", "君主", "无此实体",
                                          "entity3"};
  std::string body;
  for (const auto& item : items) body += item + "\n";
  auto response = client.Post("/v1/getConcept_batch", body,
                              "text/plain; charset=utf-8");
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->Header("X-Taxonomy-Version"), "1");

  uint64_t count = 0;
  ASSERT_TRUE(FindJsonUInt(response->body, "count", &count));
  EXPECT_EQ(count, items.size());
  uint64_t version = 0;
  ASSERT_TRUE(FindJsonUInt(response->body, "version", &version));
  EXPECT_EQ(version, 1u);

  std::string_view array;
  ASSERT_TRUE(FindJsonArray(response->body, "results", &array));
  const std::vector<std::string_view> elements = SplitTopLevelJson(array);
  ASSERT_EQ(elements.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NE(elements[i].find("\"entity\":"), std::string_view::npos);
    EXPECT_NE(elements[i].find(items[i]), std::string_view::npos)
        << "result " << i << " out of order: " << elements[i];
  }
  EXPECT_GE(router_->stats().batches, 1u);
}

TEST_F(RouterTest, BatchGetFormCarriesPassThroughParams) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  auto response = client.Get(
      "/v1/getEntity_batch?concept=" + PercentEncode("君主") +
      "&concept=concept&limit=2");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  uint64_t count = 0;
  ASSERT_TRUE(FindJsonUInt(response->body, "count", &count));
  EXPECT_EQ(count, 2u);
  // limit=2 rode along to every sub-batch: "concept" has 6 hyponyms but at
  // most 2 may come back.
  std::string_view array;
  ASSERT_TRUE(FindJsonArray(response->body, "results", &array));
  const std::vector<std::string_view> elements = SplitTopLevelJson(array);
  ASSERT_EQ(elements.size(), 2u);
  size_t entities = 0;
  for (size_t pos = 0; (pos = elements[1].find("entity", pos)) !=
                       std::string_view::npos;
       pos += 6) {
    ++entities;
  }
  EXPECT_LE(entities, 2u);
}

TEST_F(RouterTest, EmptyBatchIs400WithoutTouchingBackends) {
  StartCluster(1, 1);
  HttpClient client = Connect();
  auto response = client.Post("/v1/men2ent_batch", "\n\n", "text/plain");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  EXPECT_NE(response->body.find("no mention given"), std::string::npos);
}

TEST_F(RouterTest, OversizedBatchIs400WithoutTouchingBackends) {
  StartCluster(2, 1);
  HttpClient client = Connect();
  std::string body;
  for (size_t i = 0; i <= server::ApiEndpoints::kMaxBatchItems; ++i) {
    body += "m" + std::to_string(i) + "\n";
  }
  // The backends run in this process, so a forwarded sub-batch would bump
  // the shared per-route request counter.
  const obs::Counter* backend_batches =
      obs::MetricsRegistry::Global().counter("http.requests.men2ent_batch");
  const uint64_t before = backend_batches->value();
  auto response = client.Post("/v1/men2ent_batch", body, "text/plain");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  EXPECT_NE(response->body.find("batch too large: 257 items (max 256)"),
            std::string::npos)
      << response->body;
  EXPECT_EQ(backend_batches->value(), before);
}

TEST_F(RouterTest, FailsOverWhenAReplicaDies) {
  StartCluster(1, 2);
  backend(0).Stop();
  HttpClient client = Connect();
  for (int i = 0; i < 6; ++i) {
    auto response =
        client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response->status, 200) << "request " << i;
  }
  // Round-robin must have offered the dead replica at least once, so at
  // least one forward took the failover path, and the streak of connection
  // refusals trips quarantine.
  EXPECT_GE(router_->stats().failovers, 1u);
  EXPECT_EQ(map_->state(0, 0), ShardMap::State::kQuarantined);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(health->body.find("\"state\":\"quarantined\""),
            std::string::npos);
}

TEST_F(RouterTest, DarkShardAnswers503NotAHang) {
  StartCluster(1, 1);
  backend(0).Stop();
  HttpClient client = Connect();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    auto response =
        client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 503);
    EXPECT_NE(response->body.find("unavailable"), std::string::npos);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  EXPECT_GE(router_->stats().no_backend, 1u);
}

TEST_F(RouterTest, HedgeBeatsAStalledReplica) {
  // Replica 0 is a black hole: a listener whose accept queue swallows the
  // connection and never answers. Replica 1 is a live backend. Requests
  // whose primary is the hole must be rescued by the hedge within the
  // hedge delay, not wait out the full recv deadline.
  uint16_t hole_port = 0;
  util::Result<int> hole = util::ListenTcp("127.0.0.1", 0, 16, &hole_port);
  ASSERT_TRUE(hole.ok());
  backends_.push_back(StartBackend());

  Router::Options options;
  options.hedge_initial = std::chrono::milliseconds(10);
  StartRouter({{{"127.0.0.1", hole_port},
                {"127.0.0.1", backends_.back()->port()}}},
              options);

  HttpClient client = Connect();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    auto response =
        client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response->status, 200) << "request " << i;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Round-robin sent at least one primary into the hole.
  EXPECT_GE(router_->stats().hedges, 1u);
  EXPECT_GE(router_->stats().hedge_wins, 1u);
  // Rescue happened at hedge speed (4 x recv_deadline would be 8s).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  util::CloseFd(*hole);
}

TEST_F(RouterTest, MixedGenerationBatchIsRefusedThenRecovers) {
  // Shard 0's backend has been published to generation 2; shard 1's is
  // still at 1. A batch spanning both must be refused, never merged.
  backends_.push_back(StartGenBackend(2));
  backends_.push_back(StartGenBackend(1));
  Router::Options options;
  options.coherence_retries = 1;
  StartRouter({{{"127.0.0.1", backends_[0]->port()}},
               {{"127.0.0.1", backends_[1]->port()}}},
              options);

  // Find one key owned by each shard (the items themselves need not exist
  // in the taxonomy — batch answers unknown items with an empty slot).
  std::string key_shard0, key_shard1;
  for (int i = 0; key_shard0.empty() || key_shard1.empty(); ++i) {
    ASSERT_LT(i, 1000);
    const std::string key = "k" + std::to_string(i);
    (map_->ShardForKey(key) == 0 ? key_shard0 : key_shard1) = key;
  }

  HttpClient client = Connect();
  auto response = client.Post("/v1/getConcept_batch",
                              key_shard0 + "\n" + key_shard1 + "\n",
                              "text/plain; charset=utf-8");
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, 503);
  EXPECT_NE(response->body.find("mixed snapshot generations"),
            std::string::npos);
  EXPECT_GE(router_->stats().mixed_generation_refusals, 1u);
  EXPECT_GE(router_->stats().coherence_retries, 1u);

  // A batch confined to the up-to-date shard is coherent and serves fine.
  auto confined = client.Post("/v1/getConcept_batch", key_shard0 + "\n",
                              "text/plain; charset=utf-8");
  ASSERT_TRUE(confined.ok());
  EXPECT_EQ(confined->status, 200);
  EXPECT_EQ(confined->Header("X-Taxonomy-Version"), "2");

  // The laggard catches up; the same cross-shard batch now merges at the
  // new generation.
  backends_[1]->api->Publish(MakeGenTaxonomy(2), {});
  response = client.Post("/v1/getConcept_batch",
                         key_shard0 + "\n" + key_shard1 + "\n",
                         "text/plain; charset=utf-8");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->Header("X-Taxonomy-Version"), "2");
  uint64_t version = 0;
  ASSERT_TRUE(FindJsonUInt(response->body, "version", &version));
  EXPECT_EQ(version, 2u);
}

TEST_F(RouterTest, BatchesConvergeAfterClusterWidePublish) {
  // Coherent before, coherent after: a batch straddling a cluster-wide
  // publish between two requests serves generation 1 first, then 2 —
  // never a refusal, never a mix.
  backends_.push_back(StartGenBackend(1));
  backends_.push_back(StartGenBackend(1));
  StartRouter({{{"127.0.0.1", backends_[0]->port()}},
               {{"127.0.0.1", backends_[1]->port()}}});

  std::string key_shard0, key_shard1;
  for (int i = 0; key_shard0.empty() || key_shard1.empty(); ++i) {
    ASSERT_LT(i, 1000);
    const std::string key = "k" + std::to_string(i);
    (map_->ShardForKey(key) == 0 ? key_shard0 : key_shard1) = key;
  }
  const std::string body = key_shard0 + "\n" + key_shard1 + "\n";

  HttpClient client = Connect();
  auto before = client.Post("/v1/getConcept_batch", body,
                            "text/plain; charset=utf-8");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->status, 200);
  EXPECT_EQ(before->Header("X-Taxonomy-Version"), "1");

  backends_[0]->api->Publish(MakeGenTaxonomy(2), {});
  backends_[1]->api->Publish(MakeGenTaxonomy(2), {});
  auto after = client.Post("/v1/getConcept_batch", body,
                           "text/plain; charset=utf-8");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(after->Header("X-Taxonomy-Version"), "2");
  EXPECT_EQ(router_->stats().mixed_generation_refusals, 0u);
}

TEST_F(RouterTest, RouterConnectFaultInjectsConnectionFailures) {
  StartCluster(1, 1);
  HttpClient client = Connect();
  {
    util::ScopedFaultInjection scoped("router.connect=1", 11);
    auto response =
        client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 503);
  }
  // One injected failure is below the quarantine threshold; the next
  // request connects for real.
  auto response =
      client.Get("/v1/getConcept?entity=" + PercentEncode("刘备"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
}

TEST_F(RouterTest, RouterBackendFaultInjectsForwardFailures) {
  StartCluster(1, 1);
  HttpClient client = Connect();
  {
    util::ScopedFaultInjection scoped("router.backend=1", 13);
    auto response = client.Post("/v1/getConcept_batch", "刘备\n",
                                "text/plain; charset=utf-8");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 503);
  }
  auto response = client.Post("/v1/getConcept_batch", "刘备\n",
                              "text/plain; charset=utf-8");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
}

}  // namespace
}  // namespace cnpb::router
