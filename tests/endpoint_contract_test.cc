// Table-driven wire contract of every query route of ApiEndpoints: the
// three Table II endpoints, their batch forms and the four reasoning
// endpoints, each over fixed arguments (known, unknown, every option
// value). The same request is answered three ways — by uncached endpoints,
// by cached endpoints on a miss, and by the same cached endpoints on a
// hit — and all three must agree in status, body and version stamp. Batch
// items must carry exactly the list the single-shot endpoint returns for
// the same item at the same version, and a repeated batch must be served
// entirely from the per-item cache entries.
//
// Handlers are plain functions of HttpRequest, so these tests call Handle()
// directly instead of standing up a live server.
#include "server/service.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "router/json_merge.h"
#include "server/http.h"
#include "server/result_cache.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"

namespace cnpb::server {
namespace {

using Params = std::vector<std::pair<std::string, std::string>>;
using taxonomy::ApiService;
using taxonomy::Taxonomy;

Taxonomy MakeTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("刘备", "人物", taxonomy::Source::kTag, 0.8f);
  t.AddIsa("曹操", "君主", taxonomy::Source::kTag, 0.9f);
  t.AddIsa("孙权", "君主", taxonomy::Source::kTag, 0.85f);
  t.AddIsa("君主", "人物", taxonomy::Source::kTag, 0.7f);
  for (int i = 0; i < 5; ++i) {
    t.AddIsa("entity" + std::to_string(i), "concept",
             taxonomy::Source::kTag, 0.5f);
  }
  return t;
}

HttpRequest MakeRequest(const std::string& method, const std::string& path,
                        Params params = {}, std::string body = {}) {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.target = path;
  request.params = std::move(params);
  request.body = std::move(body);
  return request;
}

std::string Header(const HttpResponse& response, std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

std::string Describe(const HttpRequest& request) {
  std::string out = request.method + " " + request.path;
  for (const auto& [key, value] : request.params) {
    out += " " + key + "=" + value;
  }
  if (!request.body.empty()) out += " body=" + request.body;
  return out;
}

// One ApiService answered by uncached endpoints and, per request, by
// endpoints with a fresh result cache.
class EndpointContractTest : public ::testing::Test {
 protected:
  EndpointContractTest()
      : taxonomy_(MakeTaxonomy()),
        api_(util::UnownedSnapshot(&taxonomy_),
             ApiService::MentionIndex{{"主公", {taxonomy_.Find("刘备")}},
                                      {"孟德", {taxonomy_.Find("曹操")}},
                                      {"君", {taxonomy_.Find("刘备"),
                                              taxonomy_.Find("孙权")}}}),
        uncached_(&api_) {}

  // The uncached answer, the cached miss and the cached hit of `request`
  // must agree; returns the uncached answer. `cacheable` says whether the
  // answer is snapshot-derived (and so must report miss then hit).
  HttpResponse ExpectSameThreeWays(const HttpRequest& request,
                                   bool cacheable) {
    ApiEndpoints cached(&api_, ResultCache::Config{});
    const HttpResponse plain = uncached_.Handle(request);
    const HttpResponse miss = cached.Handle(request);
    const HttpResponse hit = cached.Handle(request);
    const std::string what = Describe(request);
    EXPECT_EQ(plain.status, miss.status) << what;
    EXPECT_EQ(plain.status, hit.status) << what;
    EXPECT_EQ(plain.body, miss.body) << what;
    EXPECT_EQ(plain.body, hit.body) << what;
    EXPECT_EQ(plain.content_type, hit.content_type) << what;
    const std::string version = Header(plain, ApiEndpoints::kVersionHeader);
    EXPECT_EQ(version, std::to_string(api_.version())) << what;
    EXPECT_EQ(Header(miss, ApiEndpoints::kVersionHeader), version) << what;
    EXPECT_EQ(Header(hit, ApiEndpoints::kVersionHeader), version) << what;
    EXPECT_EQ(Header(plain, "X-Cache"), "") << what;
    EXPECT_EQ(Header(miss, "X-Cache"), cacheable ? "miss" : "") << what;
    EXPECT_EQ(Header(hit, "X-Cache"), cacheable ? "hit" : "") << what;
    // Nothing else rides on a query answer: the version stamp, plus the
    // cache verdict on the cached side.
    EXPECT_EQ(plain.headers.size(), 1u) << what;
    EXPECT_EQ(hit.headers.size(), cacheable ? 2u : 1u) << what;
    return plain;
  }

  Taxonomy taxonomy_;
  ApiService api_;
  ApiEndpoints uncached_;
};

struct SingleCase {
  std::string path;
  Params params;
  int status;
};

TEST_F(EndpointContractTest, SingleShotRoutesAgreeUncachedMissAndHit) {
  const std::vector<SingleCase> cases = {
      {"/v1/men2ent", {{"mention", "主公"}}, 200},
      {"/v1/men2ent", {{"mention", "君"}}, 200},
      {"/v1/men2ent", {{"mention", "孟德"}}, 200},
      {"/v1/men2ent", {{"mention", "nobody"}}, 404},
      {"/v1/getConcept", {{"entity", "刘备"}}, 200},
      {"/v1/getConcept", {{"entity", "刘备"}, {"transitive", "0"}}, 200},
      {"/v1/getConcept", {{"entity", "刘备"}, {"transitive", "1"}}, 200},
      {"/v1/getConcept", {{"entity", "刘备"}, {"transitive", "true"}}, 200},
      {"/v1/getConcept", {{"entity", "nobody"}, {"transitive", "1"}}, 200},
      {"/v1/getEntity", {{"concept", "君主"}}, 200},
      {"/v1/getEntity", {{"concept", "concept"}, {"limit", "1"}}, 200},
      {"/v1/getEntity", {{"concept", "concept"}, {"limit", "3"}}, 200},
      {"/v1/getEntity", {{"concept", "concept"}, {"limit", "100000"}}, 200},
      {"/v1/getEntity", {{"concept", "nobody"}}, 200},
      {"/v1/isa", {{"entity", "刘备"}, {"concept", "人物"}}, 200},
      {"/v1/isa",
       {{"entity", "曹操"}, {"concept", "人物"}, {"max_depth", "1"}},
       200},
      {"/v1/isa",
       {{"entity", "曹操"}, {"concept", "人物"}, {"max_depth", "16"}},
       200},
      {"/v1/isa", {{"entity", "nobody"}, {"concept", "人物"}}, 404},
      {"/v1/isa", {{"entity", "刘备"}, {"concept", "nobody"}}, 404},
      {"/v1/lca", {{"a", "刘备"}, {"b", "曹操"}}, 200},
      {"/v1/lca", {{"a", "刘备"}, {"b", "entity0"}}, 200},
      {"/v1/lca", {{"a", "刘备"}, {"b", "曹操"}, {"max_depth", "1"}}, 200},
      {"/v1/lca", {{"a", "nobody"}, {"b", "曹操"}}, 404},
      {"/v1/lca", {{"a", "刘备"}, {"b", "nobody"}}, 404},
      {"/v1/similar", {{"entity", "刘备"}}, 200},
      {"/v1/similar", {{"entity", "刘备"}, {"k", "1"}}, 200},
      {"/v1/similar", {{"entity", "entity0"}, {"k", "100"}}, 200},
      {"/v1/similar", {{"entity", "nobody"}}, 404},
      {"/v1/expand", {{"concept", "君主"}}, 200},
      {"/v1/expand", {{"concept", "concept"}, {"k", "2"}}, 200},
      {"/v1/expand", {{"concept", "nobody"}}, 404},
  };
  for (const SingleCase& c : cases) {
    const HttpRequest request = MakeRequest("GET", c.path, c.params);
    const HttpResponse response =
        ExpectSameThreeWays(request, /*cacheable=*/true);
    EXPECT_EQ(response.status, c.status) << Describe(request);
    EXPECT_EQ(response.body.back(), '\n') << Describe(request);
  }
}

TEST_F(EndpointContractTest, ArgumentErrorsAreNeverCached) {
  const std::vector<SingleCase> cases = {
      {"/v1/men2ent", {}, 400},
      {"/v1/getConcept", {{"transitive", "1"}}, 400},
      {"/v1/getEntity", {}, 400},
      {"/v1/getEntity", {{"concept", "君主"}, {"limit", "0"}}, 400},
      {"/v1/getEntity", {{"concept", "君主"}, {"limit", "+5"}}, 400},
      {"/v1/isa", {{"entity", "刘备"}}, 400},
      {"/v1/isa", {{"concept", "人物"}}, 400},
      {"/v1/isa",
       {{"entity", "刘备"}, {"concept", "人物"}, {"max_depth", "17"}},
       400},
      {"/v1/lca", {{"b", "曹操"}}, 400},
      {"/v1/lca", {{"a", "刘备"}}, 400},
      {"/v1/similar", {{"entity", "刘备"}, {"k", "101"}}, 400},
      {"/v1/expand", {{"k", "2"}}, 400},
      {"/v1/men2ent_batch", {}, 400},
      {"/v1/getEntity_batch", {{"concept", "君主"}, {"limit", "0"}}, 400},
  };
  for (const SingleCase& c : cases) {
    const HttpRequest request = MakeRequest("GET", c.path, c.params);
    const HttpResponse response =
        ExpectSameThreeWays(request, /*cacheable=*/false);
    EXPECT_EQ(response.status, c.status) << Describe(request);
    EXPECT_EQ(Header(response, "X-Cache-Hits"), "") << Describe(request);
  }
}

struct BatchCase {
  std::string path;
  std::string single_path;  // the single-shot form of the same endpoint
  std::string param;        // the repeated item parameter
  std::string list_key;     // the per-item list both forms carry
  Params options;           // passed to both forms
  std::vector<std::string> items;
};

// The per-item list of a batch response, in input order.
std::vector<std::string> BatchLists(const std::string& body,
                                    const std::string& list_key) {
  std::string_view results;
  EXPECT_TRUE(router::FindJsonArray(body, "results", &results)) << body;
  std::vector<std::string> lists;
  for (std::string_view item : router::SplitTopLevelJson(results)) {
    std::string_view list;
    EXPECT_TRUE(router::FindJsonArray(item, list_key, &list)) << item;
    lists.emplace_back(list);
  }
  return lists;
}

TEST_F(EndpointContractTest, BatchItemsEqualSingleShotAndRepeatAllHit) {
  const std::vector<std::string> mentions = {"主公", "nobody", "君", "孟德"};
  const std::vector<std::string> entities = {"刘备", "nobody", "entity3"};
  const std::vector<std::string> concepts = {"君主", "concept", "nobody"};
  const std::vector<BatchCase> cases = {
      {"/v1/men2ent_batch", "/v1/men2ent", "mention", "entities", {},
       mentions},
      {"/v1/getConcept_batch", "/v1/getConcept", "entity", "concepts", {},
       entities},
      {"/v1/getConcept_batch", "/v1/getConcept", "entity", "concepts",
       {{"transitive", "0"}}, entities},
      {"/v1/getConcept_batch", "/v1/getConcept", "entity", "concepts",
       {{"transitive", "1"}}, entities},
      {"/v1/getConcept_batch", "/v1/getConcept", "entity", "concepts",
       {{"transitive", "true"}}, entities},
      {"/v1/getEntity_batch", "/v1/getEntity", "concept", "entities", {},
       concepts},
      {"/v1/getEntity_batch", "/v1/getEntity", "concept", "entities",
       {{"limit", "1"}}, concepts},
      {"/v1/getEntity_batch", "/v1/getEntity", "concept", "entities",
       {{"limit", "4"}}, concepts},
  };
  for (const BatchCase& c : cases) {
    // A fresh cache per case, so the first batch is all misses and the
    // repeat's hit count is exactly the item count.
    ApiEndpoints cached(&api_, ResultCache::Config{});
    Params params;
    std::string body;
    for (const std::string& item : c.items) {
      params.emplace_back(c.param, item);
      body += item + "\n";
    }
    params.insert(params.end(), c.options.begin(), c.options.end());
    const HttpRequest get = MakeRequest("GET", c.path, params);
    const HttpRequest post = MakeRequest("POST", c.path, c.options, body);
    const std::string what = Describe(get);

    const HttpResponse plain = uncached_.Handle(get);
    ASSERT_EQ(plain.status, 200) << what << " " << plain.body;
    EXPECT_EQ(Header(plain, "X-Cache-Hits"), "") << what;
    EXPECT_EQ(Header(plain, "X-Cache"), "") << what;
    const HttpResponse plain_post = uncached_.Handle(post);
    EXPECT_EQ(plain_post.status, 200) << what;
    EXPECT_EQ(plain_post.body, plain.body) << what;

    const HttpResponse miss = cached.Handle(get);
    const HttpResponse hit = cached.Handle(get);
    const HttpResponse post_hit = cached.Handle(post);
    for (const HttpResponse* response : {&miss, &hit, &post_hit}) {
      EXPECT_EQ(response->status, 200) << what;
      EXPECT_EQ(response->body, plain.body) << what;
      EXPECT_EQ(Header(*response, ApiEndpoints::kVersionHeader),
                Header(plain, ApiEndpoints::kVersionHeader))
          << what;
      EXPECT_EQ(Header(*response, "X-Cache"), "") << what;
    }
    EXPECT_EQ(Header(miss, "X-Cache-Hits"), "0") << what;
    EXPECT_EQ(Header(hit, "X-Cache-Hits"), std::to_string(c.items.size()))
        << what;
    EXPECT_EQ(Header(post_hit, "X-Cache-Hits"),
              std::to_string(c.items.size()))
        << what;

    const std::vector<std::string> lists = BatchLists(plain.body, c.list_key);
    ASSERT_EQ(lists.size(), c.items.size()) << what;
    for (size_t i = 0; i < c.items.size(); ++i) {
      Params single_params = {{c.param, c.items[i]}};
      single_params.insert(single_params.end(), c.options.begin(),
                           c.options.end());
      const HttpResponse single = uncached_.Handle(
          MakeRequest("GET", c.single_path, single_params));
      EXPECT_EQ(Header(single, ApiEndpoints::kVersionHeader),
                Header(plain, ApiEndpoints::kVersionHeader))
          << what;
      if (single.status == 404) {
        // Only men2ent's unknown mention; the batch form answers it with an
        // empty list in position.
        EXPECT_EQ(c.single_path, "/v1/men2ent") << what;
        EXPECT_EQ(lists[i], "") << what << " item " << c.items[i];
        continue;
      }
      ASSERT_EQ(single.status, 200) << what << " item " << c.items[i];
      std::string_view single_list;
      ASSERT_TRUE(
          router::FindJsonArray(single.body, c.list_key, &single_list))
          << single.body;
      EXPECT_EQ(lists[i], single_list) << what << " item " << c.items[i];
    }
  }
}

// The method check and the request/latency instruments follow the route:
// batch routes accept POST, every other route answers 405 with its Allow
// list, and each route bumps exactly its own request counter.
TEST_F(EndpointContractTest, RoutesMethodsAndCounters) {
  struct Route {
    std::string path;
    std::string counter;
    bool batch;
  };
  const std::vector<Route> routes = {
      {"/v1/men2ent", "men2ent", false},
      {"/v1/getConcept", "get_concept", false},
      {"/v1/getEntity", "get_entity", false},
      {"/v1/men2ent_batch", "men2ent_batch", true},
      {"/v1/getConcept_batch", "get_concept_batch", true},
      {"/v1/getEntity_batch", "get_entity_batch", true},
      {"/v1/isa", "isa", false},
      {"/v1/lca", "lca", false},
      {"/v1/similar", "similar", false},
      {"/v1/expand", "expand", false},
      {"/healthz", "healthz", false},
      {"/metrics", "metrics", false},
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* other = registry.counter("http.requests.other");
  for (const Route& route : routes) {
    obs::Counter* counter =
        registry.counter("http.requests." + route.counter);
    for (const char* method : {"GET", "HEAD"}) {
      const uint64_t before = counter->value();
      const HttpResponse response =
          uncached_.Handle(MakeRequest(method, route.path));
      EXPECT_NE(response.status, 405) << route.path;
      EXPECT_NE(response.status, 404) << route.path;
      EXPECT_EQ(counter->value(), before + 1) << route.path;
      EXPECT_EQ(Header(response, ApiEndpoints::kVersionHeader),
                std::to_string(api_.version()))
          << route.path;
    }
    const uint64_t before = counter->value();
    const uint64_t other_before = other->value();
    const HttpResponse post =
        uncached_.Handle(MakeRequest("POST", route.path, {}, "刘备\n"));
    if (route.batch) {
      EXPECT_EQ(post.status, 200) << route.path;
      EXPECT_EQ(counter->value(), before + 1) << route.path;
    } else {
      EXPECT_EQ(post.status, 405) << route.path;
      EXPECT_EQ(Header(post, "Allow"), "GET, HEAD") << route.path;
      EXPECT_EQ(Header(post, ApiEndpoints::kVersionHeader),
                std::to_string(api_.version()))
          << route.path;
      EXPECT_EQ(counter->value(), before) << route.path;
      EXPECT_EQ(other->value(), other_before + 1) << route.path;
    }
    const HttpResponse put = uncached_.Handle(MakeRequest("PUT", route.path));
    EXPECT_EQ(put.status, 405) << route.path;
    EXPECT_EQ(Header(put, "Allow"),
              route.batch ? "GET, HEAD, POST" : "GET, HEAD")
        << route.path;
    // A 405 is an answer like any other: it reports the served version.
    EXPECT_EQ(Header(put, ApiEndpoints::kVersionHeader),
              std::to_string(api_.version()))
        << route.path;
    EXPECT_EQ(put.body,
              "{\"error\":{\"code\":\"INVALID_ARGUMENT\",\"message\":"
              "\"method not allowed: PUT\"}}\n")
        << route.path;
  }
  const uint64_t other_before = other->value();
  const HttpResponse unknown =
      uncached_.Handle(MakeRequest("GET", "/v1/men2entx"));
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body,
            "{\"error\":{\"code\":\"NOT_FOUND\",\"message\":"
            "\"no such endpoint: /v1/men2entx\"}}\n");
  EXPECT_EQ(other->value(), other_before + 1);
  // An unknown path with a bad method is a 405, stamped like the rest.
  const HttpResponse unknown_delete =
      uncached_.Handle(MakeRequest("DELETE", "/v1/ingest"));
  EXPECT_EQ(unknown_delete.status, 405);
  EXPECT_EQ(Header(unknown_delete, "Allow"), "GET, HEAD");
  EXPECT_EQ(Header(unknown_delete, ApiEndpoints::kVersionHeader),
            std::to_string(api_.version()));
}

}  // namespace
}  // namespace cnpb::server
