// Multi-collection tenancy: the CollectionManager's routing table
// (/v1/collections, /v1/c/<name>/..., bare fallback), its
// byte-compatibility promise (a one-collection manager answers exactly
// like a standalone ApiEndpoints stack), per-collection serving limits,
// the on-disk footprint (only ingest WALs), and the serve-while-update
// isolation contract: a publish into collection A never perturbs
// collection B's version stamps — including while an ingest daemon is
// feeding A.
#include "collections/manager.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"

namespace cnpb::collections {
namespace {

using taxonomy::Source;
using taxonomy::Taxonomy;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/collections_test_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // reruns share the temp dir
  return dir;
}

Taxonomy MakeTaxonomyA() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", Source::kTag, 0.9f);
  t.AddIsa("曹操", "君主", Source::kTag, 0.8f);
  t.AddIsa("君主", "人物", Source::kTag, 0.7f);
  return t;
}

Taxonomy MakeTaxonomyB() {
  Taxonomy t;
  t.AddIsa("b_ent", "b_cat", Source::kTag, 0.9f);
  t.AddIsa("b_cat", "b_root", Source::kTag, 0.8f);
  return t;
}

std::shared_ptr<const taxonomy::ServingView> ViewA() {
  const Taxonomy t = MakeTaxonomyA();
  taxonomy::MentionIndex mentions;
  mentions["主公"].push_back(t.Find("刘备"));
  return taxonomy::ServingView::Encode(t, mentions);
}

std::shared_ptr<const taxonomy::ServingView> ViewB() {
  return taxonomy::ServingView::Encode(MakeTaxonomyB(),
                                       taxonomy::MentionIndex{});
}

// Handlers are plain functions of HttpRequest, so routing tests hand-build
// requests instead of standing up a live server.
HttpRequest MakeGet(
    const std::string& path,
    std::vector<std::pair<std::string, std::string>> params = {}) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.target = path;
  request.params = std::move(params);
  return request;
}

std::string Header(const HttpResponse& response, std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// An updater over five "anchor" pages; one epoch of training on them is
// quick. `lexicon` must outlive it.
std::unique_ptr<core::IncrementalUpdater> TinyUpdater(
    const text::Lexicon* lexicon) {
  kb::EncyclopediaDump base;
  for (int i = 0; i < 5; ++i) {
    kb::EncyclopediaPage page;
    page.name = "base" + std::to_string(i);
    page.mention = page.name;
    page.tags = {"anchor"};
    base.AddPage(std::move(page));
  }
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.verification.use_syntax = false;
  config.verification.use_incompatible = false;
  return std::make_unique<core::IncrementalUpdater>(
      base, lexicon, std::vector<std::vector<std::string>>{}, config);
}

// ------------------------------------------------------- routing contract

TEST(CollectionManagerTest, BareAndPrefixedDefaultMatchStandaloneEndpoints) {
  auto view = ViewA();
  taxonomy::ApiService standalone_api(view);
  server::ApiEndpoints standalone(&standalone_api);

  CollectionManager manager({});
  ASSERT_TRUE(manager.AddCollection("default", view).ok());

  const std::vector<HttpRequest> requests = {
      MakeGet("/v1/men2ent", {{"mention", "主公"}}),
      MakeGet("/v1/men2ent", {{"mention", "nobody"}}),
      MakeGet("/v1/getConcept", {{"entity", "刘备"}, {"transitive", "1"}}),
      MakeGet("/v1/getEntity", {{"concept", "君主"}, {"limit", "10"}}),
      MakeGet("/v1/isa", {{"entity", "刘备"}, {"concept", "人物"}}),
      MakeGet("/v1/lca", {{"a", "刘备"}, {"b", "曹操"}}),
      MakeGet("/v1/similar", {{"entity", "刘备"}}),
      MakeGet("/v1/expand", {{"concept", "君主"}}),
  };
  for (const HttpRequest& request : requests) {
    const HttpResponse want = standalone.Handle(request);
    const HttpResponse bare = manager.Handle(request);
    EXPECT_EQ(bare.status, want.status) << request.path;
    EXPECT_EQ(bare.body, want.body) << request.path;
    EXPECT_EQ(Header(bare, server::ApiEndpoints::kVersionHeader),
              Header(want, server::ApiEndpoints::kVersionHeader))
        << request.path;

    HttpRequest prefixed = request;
    prefixed.path = "/v1/c/default" + request.path.substr(3);
    prefixed.target = prefixed.path;
    const HttpResponse routed = manager.Handle(prefixed);
    EXPECT_EQ(routed.status, want.status) << prefixed.path;
    EXPECT_EQ(routed.body, want.body) << prefixed.path;
  }

  // Operational endpoints route under the prefix too.
  EXPECT_EQ(manager.Handle(MakeGet("/v1/c/default/healthz")).status, 200);
  EXPECT_EQ(manager.Handle(MakeGet("/v1/c/default/metrics")).status, 200);
  EXPECT_EQ(manager.Handle(MakeGet("/healthz")).status, 200);
}

TEST(CollectionManagerTest, UnknownCollectionAndMissingDefault) {
  CollectionManager manager({});
  ASSERT_TRUE(manager.AddCollection("only", ViewA()).ok());

  const HttpResponse missing =
      manager.Handle(MakeGet("/v1/c/nope/men2ent", {{"mention", "x"}}));
  EXPECT_EQ(missing.status, 404);
  EXPECT_TRUE(Contains(missing.body, "no such collection: nope"));

  // Bare paths need the default collection, which was never registered.
  const HttpResponse bare =
      manager.Handle(MakeGet("/v1/men2ent", {{"mention", "x"}}));
  EXPECT_EQ(bare.status, 503);
  EXPECT_TRUE(Contains(bare.body, "default collection not registered"));
}

TEST(CollectionManagerTest, ListAndInfoEndpoints) {
  CollectionManager manager({});
  taxonomy::ApiService::ServingLimits quotas;
  quotas.max_in_flight = 3;
  quotas.deadline = std::chrono::microseconds(1500);
  ASSERT_TRUE(manager.AddCollection("default", ViewA()).ok());
  ASSERT_TRUE(manager.AddCollection("b", ViewB(), quotas).ok());

  const HttpResponse list = manager.Handle(MakeGet("/v1/collections"));
  EXPECT_EQ(list.status, 200);
  EXPECT_TRUE(Contains(list.body, "\"count\":2"));
  EXPECT_TRUE(Contains(list.body, "\"name\":\"default\""));
  EXPECT_TRUE(Contains(list.body, "\"name\":\"b\""));

  HttpRequest post = MakeGet("/v1/collections");
  post.method = "POST";
  const HttpResponse rejected = manager.Handle(post);
  EXPECT_EQ(rejected.status, 405);
  EXPECT_EQ(Header(rejected, "Allow"), "GET, HEAD");

  const HttpResponse info = manager.Handle(MakeGet("/v1/c/b"));
  EXPECT_EQ(info.status, 200);
  EXPECT_EQ(info.body,
            "{\"collection\":\"b\",\"version\":1,\"ingest\":false,"
            "\"quotas\":{\"max_in_flight\":3,\"deadline_us\":1500}}\n");
  EXPECT_EQ(Header(info, server::ApiEndpoints::kVersionHeader), "1");

  // Quotas land on the collection's own ApiService as serving limits.
  ASSERT_NE(manager.service("b"), nullptr);
  const taxonomy::ApiService::ServingLimits limits =
      manager.service("b")->serving_limits();
  EXPECT_EQ(limits.max_in_flight, 3u);
  EXPECT_EQ(limits.deadline, std::chrono::microseconds(1500));
}

TEST(CollectionManagerTest, RegistrationValidation) {
  CollectionManager manager({});
  ASSERT_TRUE(manager.AddCollection("default", ViewA()).ok());
  EXPECT_FALSE(manager.AddCollection("default", ViewB()).ok());  // duplicate
  EXPECT_FALSE(manager.AddCollection("bad/name", ViewB()).ok());
  EXPECT_FALSE(manager.AddCollection("", ViewB()).ok());
  EXPECT_FALSE(manager.AddCollection("noview", nullptr).ok());
  EXPECT_EQ(manager.size(), 1u);
}

// ---------------------------------------------------- isolation contracts

// Satellite 3: publishes into collection A while readers hammer B — B's
// version stamp must never move, and every B answer stays identical.
TEST(CollectionManagerTest, PublishIntoANeverPerturbsB) {
  CollectionManager manager({});
  ASSERT_TRUE(manager.AddCollection("default", ViewA()).ok());
  ASSERT_TRUE(manager.AddCollection("b", ViewB()).ok());

  const HttpRequest probe =
      MakeGet("/v1/c/b/getConcept", {{"entity", "b_ent"}});
  const HttpResponse baseline = manager.Handle(probe);
  ASSERT_EQ(baseline.status, 200);
  const std::string b_version =
      Header(baseline, server::ApiEndpoints::kVersionHeader);
  ASSERT_FALSE(b_version.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> perturbed{0};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const HttpResponse response = manager.Handle(probe);
      if (response.status != 200 || response.body != baseline.body ||
          Header(response, server::ApiEndpoints::kVersionHeader) !=
              b_version) {
        perturbed.fetch_add(1, std::memory_order_relaxed);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const uint64_t a_before = manager.service("default")->version();
  constexpr int kPublishes = 5;
  for (int i = 0; i < kPublishes; ++i) {
    manager.service("default")
        ->Publish(Taxonomy::Freeze(MakeTaxonomyA()),
                  taxonomy::MentionIndex{});
    // Let the reader observe B between publishes.
    const uint64_t before = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < before + 20) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(perturbed.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(manager.service("default")->version(), a_before + kPublishes);
  EXPECT_EQ(manager.service("b")->version(), 1u);
}

// An ingest daemon feeding one collection over HTTP: the submit is
// durable, applied and published into that collection only.
TEST(CollectionManagerTest, IngestCollectionAppliesWithoutTouchingOthers) {
  CollectionManager::Options options;
  options.root_dir = FreshDir("ingest");
  // Declared before the manager, whose daemon borrows it until destroyed.
  text::Lexicon lexicon;
  const std::unique_ptr<core::IncrementalUpdater> updater =
      TinyUpdater(&lexicon);
  CollectionManager manager(options);
  ASSERT_TRUE(manager.AddCollection("default", ViewA()).ok());

  ingest::IngestDaemon::Options daemon_options;
  daemon_options.publish_min_pages = 1;
  daemon_options.publish_max_delay = std::chrono::milliseconds(20);
  ASSERT_TRUE(
      manager.AddIngestCollection("ing", updater.get(), daemon_options).ok());
  ASSERT_NE(manager.daemon("ing"), nullptr);

  const HttpResponse before = manager.Handle(
      MakeGet("/v1/c/ing/getEntity", {{"concept", "anchor"}, {"limit", "100"}}));
  ASSERT_EQ(before.status, 200);
  EXPECT_TRUE(Contains(before.body, "base0"));
  EXPECT_FALSE(Contains(before.body, "zz_new"));
  const uint64_t ing_before = manager.service("ing")->version();
  const uint64_t default_before = manager.service("default")->version();

  HttpRequest submit = MakeGet("/v1/c/ing/ingest");
  submit.method = "POST";
  submit.body = "u\tzz_new\tzz_new\t\t\t\tanchor\n";
  const HttpResponse accepted = manager.Handle(submit);
  ASSERT_EQ(accepted.status, 200) << accepted.body;
  EXPECT_TRUE(Contains(accepted.body, "\"accepted\":1"));

  ASSERT_TRUE(manager.daemon("ing")->Flush().ok());
  const HttpResponse after = manager.Handle(
      MakeGet("/v1/c/ing/getEntity", {{"concept", "anchor"}, {"limit", "100"}}));
  ASSERT_EQ(after.status, 200);
  EXPECT_TRUE(Contains(after.body, "zz_new"));
  EXPECT_GT(manager.service("ing")->version(), ing_before);

  // The other collection never moved.
  EXPECT_EQ(manager.service("default")->version(), default_before);
  const HttpResponse untouched =
      manager.Handle(MakeGet("/v1/men2ent", {{"mention", "主公"}}));
  EXPECT_EQ(untouched.status, 200);

  // Ingest status routes under the prefix as well.
  const HttpResponse status =
      manager.Handle(MakeGet("/v1/c/ing/ingest_status"));
  EXPECT_EQ(status.status, 200);

  EXPECT_TRUE(manager.StopAll().ok());
}

// ------------------------------------------------------------ persistence

// A collection comes from the process's start-up, not from the root: the
// only state the manager leaves under root_dir is each ingest collection's
// WAL directory.
TEST(CollectionManagerTest, RootHoldsOnlyIngestWals) {
  CollectionManager::Options options;
  options.root_dir = FreshDir("footprint");
  text::Lexicon lexicon;
  const std::unique_ptr<core::IncrementalUpdater> updater =
      TinyUpdater(&lexicon);
  {
    CollectionManager manager(options);
    ASSERT_TRUE(manager.AddCollection("ro", ViewA()).ok());
    ASSERT_TRUE(manager.AddIngestCollection("ing", updater.get(), {}).ok());
    HttpRequest submit = MakeGet("/v1/c/ing/ingest");
    submit.method = "POST";
    submit.body = "u\tzz_new\tzz_new\t\t\t\tanchor\n";
    ASSERT_EQ(manager.Handle(submit).status, 200);
    ASSERT_TRUE(manager.StopAll().ok());
  }

  const std::filesystem::path root(options.root_dir);
  EXPECT_TRUE(std::filesystem::is_directory(root / "ing" / "wal"));
  std::vector<std::string> strays;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    const std::string rel = entry.path().lexically_relative(root).string();
    if (rel != "ing" && rel != "ing/wal" && rel.rfind("ing/wal/", 0) != 0) {
      strays.push_back(rel);
    }
  }
  EXPECT_EQ(strays, std::vector<std::string>{});
}

}  // namespace
}  // namespace cnpb::collections
