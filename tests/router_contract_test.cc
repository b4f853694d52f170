// The router's wire contract, table-driven: every query route — bare and
// under /v1/c/default/ — answered through a 2-shard x 1-replica router must
// match the same request sent straight to a lone backend in status, body,
// X-Taxonomy-Version, Content-Type and Allow, and must reach the shard that
// owns its routing key. Backends are CollectionManagers over identical
// data, so the prefixed forms exercise the router's collection branch.
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "collections/manager.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/strings.h"

namespace cnpb::router {
namespace {

using collections::CollectionManager;
using server::ApiEndpoints;
using server::HttpClient;
using server::HttpRequest;
using server::HttpServer;
using server::PercentEncode;
using taxonomy::Source;
using taxonomy::Taxonomy;

using Params = std::vector<std::pair<std::string, std::string>>;

std::shared_ptr<const taxonomy::ServingView> MakeView() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", Source::kTag, 0.9f);
  t.AddIsa("刘备", "人物", Source::kTag, 0.8f);
  t.AddIsa("曹操", "君主", Source::kTag, 0.9f);
  t.AddIsa("君主", "人物", Source::kTag, 0.7f);
  for (int i = 0; i < 12; ++i) {
    t.AddIsa("entity" + std::to_string(i), i % 2 == 0 ? "even" : "odd",
             Source::kTag, 0.5f);
    t.AddIsa(i % 2 == 0 ? "even" : "odd", "number", Source::kTag, 0.6f);
  }
  taxonomy::MentionIndex mentions;
  mentions["主公"].push_back(t.Find("刘备"));
  mentions["孟德"].push_back(t.Find("曹操"));
  for (int i = 0; i < 12; ++i) {
    mentions["m" + std::to_string(i)].push_back(
        t.Find("entity" + std::to_string(i)));
  }
  return taxonomy::ServingView::Encode(t, mentions);
}

// One backend process stand-in: a CollectionManager serving "default" over
// HTTP, recording every request it is handed.
struct Backend {
  std::unique_ptr<CollectionManager> manager;
  std::unique_ptr<HttpServer> http;
  std::mutex mu;
  std::vector<HttpRequest> seen;

  std::vector<HttpRequest> TakeSeen() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(seen, {});
  }
};

std::unique_ptr<Backend> StartBackend(
    const std::shared_ptr<const taxonomy::ServingView>& view,
    size_t cache_bytes) {
  auto b = std::make_unique<Backend>();
  CollectionManager::Options options;
  options.cache_bytes = cache_bytes;
  b->manager = std::make_unique<CollectionManager>(options);
  EXPECT_TRUE(b->manager->AddCollection("default", view).ok());
  HttpServer::Config config;
  config.num_threads = 2;
  Backend* raw = b.get();
  b->http = std::make_unique<HttpServer>(
      config, [raw](const HttpRequest& request) {
        {
          std::lock_guard<std::mutex> lock(raw->mu);
          raw->seen.push_back(request);
        }
        return raw->manager->Handle(request);
      });
  EXPECT_TRUE(b->http->Start().ok());
  return b;
}

std::string Target(std::string_view path, const Params& params) {
  std::string target(path);
  for (size_t i = 0; i < params.size(); ++i) {
    target += i == 0 ? '?' : '&';
    target += PercentEncode(params[i].first) + "=" +
              PercentEncode(params[i].second);
  }
  return target;
}

// One row per query route: its routing parameter and, per case, the
// query parameters (known / unknown names; missing sends none).
struct RouteCase {
  std::string path;
  std::string key;  // routing parameter; empty: no key (shard 0)
  bool batch = false;
  Params known;
  Params unknown;
};

std::vector<RouteCase> Cases() {
  return {
      {"/v1/men2ent", "mention", false, {{"mention", "主公"}},
       {{"mention", "无名氏"}}},
      {"/v1/getConcept", "entity", false,
       {{"entity", "刘备"}, {"transitive", "1"}}, {{"entity", "无此实体"}}},
      {"/v1/getEntity", "concept", false, {{"concept", "君主"}, {"limit", "5"}},
       {{"concept", "无此概念"}}},
      {"/v1/men2ent_batch", "mention", true,
       {{"mention", "主公"}, {"mention", "m1"}, {"mention", "m2"},
        {"mention", "m3"}, {"mention", "孟德"}, {"mention", "m7"}},
       {{"mention", "无名氏"}, {"mention", "nobody"}}},
      {"/v1/getConcept_batch", "entity", true,
       {{"entity", "刘备"}, {"entity", "entity0"}, {"entity", "entity1"},
        {"entity", "entity2"}, {"entity", "曹操"}, {"entity", "entity5"},
        {"transitive", "1"}},
       {{"entity", "无此实体"}, {"entity", "ghost"}}},
      {"/v1/getEntity_batch", "concept", true,
       {{"concept", "君主"}, {"concept", "even"}, {"concept", "odd"},
        {"concept", "number"}, {"concept", "人物"}, {"limit", "3"}},
       {{"concept", "无此概念"}, {"concept", "ghost"}}},
      {"/v1/isa", "entity", false,
       {{"entity", "刘备"}, {"concept", "人物"}, {"max_depth", "3"}},
       {{"entity", "无此实体"}, {"concept", "人物"}}},
      {"/v1/lca", "a", false, {{"a", "刘备"}, {"b", "曹操"}},
       {{"a", "刘备"}, {"b", "ghost"}}},
      {"/v1/similar", "entity", false, {{"entity", "entity4"}, {"k", "3"}},
       {{"entity", "ghost"}}},
      {"/v1/expand", "concept", false, {{"concept", "even"}, {"k", "4"}},
       {{"concept", "ghost"}}},
  };
}

struct Reply {
  int status = 0;
  std::string body;
  std::string version;
  std::string content_type;
  std::string allow;
  std::string cache_hits;
};

class RouterContractTest : public ::testing::Test {
 protected:
  void StartCluster(size_t cache_bytes) {
    const auto view = MakeView();
    std::vector<std::vector<ShardMap::Endpoint>> topology(2);
    for (size_t s = 0; s < 2; ++s) {
      shards_.push_back(StartBackend(view, cache_bytes));
      topology[s].push_back({"127.0.0.1", shards_.back()->http->port()});
    }
    reference_ = StartBackend(view, cache_bytes);
    map_ = std::make_unique<ShardMap>(std::move(topology), ShardMap::Options{});
    Router::Options options;
    options.server.num_threads = 2;
    router_ = std::make_unique<Router>(map_.get(), options);
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_TRUE(to_router_.Connect("127.0.0.1", router_->port()).ok());
    ASSERT_TRUE(
        to_reference_.Connect("127.0.0.1", reference_->http->port()).ok());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& b : shards_) b->http->Stop();
    if (reference_ != nullptr) reference_->http->Stop();
  }

  static Reply Send(HttpClient* client, std::string_view method,
                    const std::string& target, const std::string& body) {
    util::Result<HttpClient::Response> response = [&] {
      if (method == "GET") return client->Get(target);
      if (method == "POST") {
        return client->Post(target, body, "text/plain; charset=utf-8");
      }
      // Any other method goes out as a bodiless raw request.
      const util::Status sent = client->SendRaw(
          std::string(method) + " " + target +
          " HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
      if (!sent.ok()) return util::Result<HttpClient::Response>(sent);
      return client->ReadResponse();
    }();
    EXPECT_TRUE(response.ok()) << target << ": "
                               << response.status().message();
    if (!response.ok()) return {};
    return {response->status,
            response->body,
            std::string(response->Header(ApiEndpoints::kVersionHeader)),
            std::string(response->Header("Content-Type")),
            std::string(response->Header("Allow")),
            std::string(response->Header("X-Cache-Hits"))};
  }

  // Sends one request through the router and straight to the reference
  // backend, requires the two answers to agree, and returns the router's
  // answer plus the requests each shard saw for it.
  Reply Compare(std::string_view method, const std::string& target,
                const std::string& body,
                std::vector<std::vector<HttpRequest>>* seen) {
    for (auto& b : shards_) b->TakeSeen();
    const Reply routed = Send(&to_router_, method, target, body);
    seen->clear();
    for (auto& b : shards_) seen->push_back(b->TakeSeen());
    const Reply direct = Send(&to_reference_, method, target, body);
    const std::string what = std::string(method) + " " + target;
    EXPECT_EQ(routed.status, direct.status) << what;
    EXPECT_EQ(routed.body, direct.body) << what;
    EXPECT_EQ(routed.version, direct.version) << what;
    EXPECT_EQ(routed.content_type, direct.content_type) << what;
    EXPECT_EQ(routed.allow, direct.allow) << what;
    return routed;
  }

  // The shard a single-shot request must reach: the owner of its routing
  // argument, or shard 0 when it has none.
  size_t OwnerOf(const RouteCase& route, const Params& params) const {
    for (const auto& [key, value] : params) {
      if (key == route.key) return map_->ShardForKey(value);
    }
    return 0;
  }

  void ExpectSingleShotReached(size_t owner,
                               const std::vector<std::vector<HttpRequest>>&
                                   seen,
                               const std::string& what) {
    for (size_t s = 0; s < seen.size(); ++s) {
      EXPECT_EQ(seen[s].size(), s == owner ? 1u : 0u)
          << what << " on shard " << s;
    }
  }

  // Every sub-batch item landed on its owner, and every item was sent.
  void ExpectBatchReached(const std::vector<std::string>& items,
                          const std::vector<std::vector<HttpRequest>>& seen,
                          const std::string& what) {
    std::multiset<std::string> sent;
    for (size_t s = 0; s < seen.size(); ++s) {
      for (const HttpRequest& sub : seen[s]) {
        for (const std::string& item : util::Split(sub.body, '\n')) {
          if (item.empty()) continue;
          EXPECT_EQ(map_->ShardForKey(item), s) << what << ": " << item;
          sent.insert(item);
        }
      }
    }
    EXPECT_EQ(sent, std::multiset<std::string>(items.begin(), items.end()))
        << what;
  }

  std::vector<std::unique_ptr<Backend>> shards_;
  std::unique_ptr<Backend> reference_;
  std::unique_ptr<ShardMap> map_;
  std::unique_ptr<Router> router_;
  HttpClient to_router_;
  HttpClient to_reference_;
};

TEST_F(RouterContractTest, CasesCoverEveryRoutedRow) {
  // Every route-table row with a routing argument has a case here, keyed
  // by the same argument; the rows without one are health and metrics.
  const std::vector<RouteCase> cases = Cases();
  for (const ApiEndpoints::Route& route : ApiEndpoints::Routes()) {
    if (route.key.empty()) {
      EXPECT_TRUE(route.path == "/healthz" || route.path == "/metrics")
          << route.path;
      continue;
    }
    bool covered = false;
    for (const RouteCase& c : cases) {
      if (c.path != route.path) continue;
      covered = true;
      EXPECT_EQ(c.key, route.key) << c.path;
      EXPECT_EQ(c.batch, route.batch) << c.path;
    }
    EXPECT_TRUE(covered) << route.path;
  }
}

TEST_F(RouterContractTest, EveryQueryRouteMatchesALoneBackend) {
  StartCluster(0);
  for (const RouteCase& route : Cases()) {
    for (const std::string prefix : {"", "/v1/c/default"}) {
      const std::string path =
          prefix.empty() ? route.path : prefix + route.path.substr(3);
      for (const Params* params : {&route.known, &route.unknown}) {
        std::vector<std::vector<HttpRequest>> seen;
        const std::string target = Target(path, *params);
        const Reply reply = Compare("GET", target, "", &seen);
        EXPECT_NE(reply.status, 0) << target;
        if (!route.batch) {
          ExpectSingleShotReached(OwnerOf(route, *params), seen, target);
          // A POST on a single-shot path is the backend's 405 to give.
          const Reply post = Compare("POST", target, "x\n", &seen);
          EXPECT_EQ(post.status, 405) << target;
          ExpectSingleShotReached(OwnerOf(route, *params), seen, target);
          continue;
        }
        EXPECT_EQ(reply.status, 200) << target;
        std::vector<std::string> items;
        Params options;
        for (const auto& [key, value] : *params) {
          if (key == route.key) {
            items.push_back(value);
          } else {
            options.emplace_back(key, value);
          }
        }
        ExpectBatchReached(items, seen, target);
        if (params == &route.known) {
          // The known items span both shards, so the answer is a merge.
          EXPECT_FALSE(seen[0].empty()) << target;
          EXPECT_FALSE(seen[1].empty()) << target;
        }
        // The POST form of the same batch: items one per line.
        std::string body;
        for (const std::string& item : items) body += item + "\n";
        const Reply post = Compare("POST", Target(path, options), body, &seen);
        EXPECT_EQ(post.status, 200) << target;
        EXPECT_EQ(post.body, reply.body) << target;
        ExpectBatchReached(items, seen, target);
      }

      // Missing argument: single-shot routes let shard 0's backend give
      // the canonical 400; batches are refused before any fan-out.
      std::vector<std::vector<HttpRequest>> seen;
      const Reply missing = Compare("GET", path, "", &seen);
      EXPECT_EQ(missing.status, 400) << path;
      if (route.batch) {
        EXPECT_TRUE(seen[0].empty() && seen[1].empty()) << path;
      } else {
        ExpectSingleShotReached(0, seen, path);
      }
    }
  }

  // The collection's own operational pages go to shard 0 under the prefix
  // (bare /healthz and /metrics are the router's own).
  for (const std::string path :
       {"/v1/c/default/healthz", "/v1/c/default/metrics"}) {
    for (auto& b : shards_) b->TakeSeen();
    util::Result<HttpClient::Response> response = to_router_.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response->status, 200) << path;
    EXPECT_EQ(shards_[0]->TakeSeen().size(), 1u) << path;
    EXPECT_TRUE(shards_[1]->TakeSeen().empty()) << path;
  }
}

// Paths outside the route table are the backend's to answer, method check
// first: a lone backend answers a bad method with 405 and its Allow list,
// an unknown GET with 404, and so must the router, through shard 0.
TEST_F(RouterContractTest, UnroutedPathsMatchALoneBackend) {
  StartCluster(0);
  struct Case {
    std::string method;
    std::string target;
    int status;
  };
  const std::vector<Case> cases = {
      {"DELETE", "/v1/ingest", 405},
      {"GET", "/v1/men2entx?mention=x", 404},
      {"GET", "/v1/c/default/men2entx", 404},
  };
  for (const Case& c : cases) {
    std::vector<std::vector<HttpRequest>> seen;
    const Reply reply = Compare(c.method, c.target, "", &seen);
    const std::string what = c.method + " " + c.target;
    EXPECT_EQ(reply.status, c.status) << what;
    EXPECT_FALSE(reply.version.empty()) << what;
    EXPECT_EQ(reply.allow, c.status == 405 ? "GET, HEAD" : "") << what;
    EXPECT_EQ(seen[0].size(), 1u) << what;
    EXPECT_TRUE(seen[1].empty()) << what;
  }
}

TEST_F(RouterContractTest, MergedBatchSumsTheBackendsCacheHits) {
  StartCluster(size_t{1} << 20);
  const std::string target =
      Target("/v1/getConcept_batch", {{"entity", "刘备"},
                                      {"entity", "entity0"},
                                      {"entity", "entity1"},
                                      {"entity", "entity2"},
                                      {"entity", "曹操"}});
  std::vector<std::vector<HttpRequest>> seen;
  const Reply cold = Compare("GET", target, "", &seen);
  ASSERT_EQ(cold.status, 200);
  ASSERT_FALSE(seen[0].empty());
  ASSERT_FALSE(seen[1].empty());
  EXPECT_EQ(cold.cache_hits, "0");
  const Reply warm = Compare("GET", target, "", &seen);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.cache_hits, "5");
}

}  // namespace
}  // namespace cnpb::router
