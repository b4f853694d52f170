#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/atomic_file.h"

namespace cnpb::taxonomy {
namespace {

TEST(TaxonomyTest, AddNodeInterns) {
  Taxonomy t;
  const NodeId a = t.AddNode("演员", NodeKind::kConcept);
  const NodeId b = t.AddNode("演员", NodeKind::kEntity);  // kind kept
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.Kind(a), NodeKind::kConcept);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.Find("演员"), a);
  EXPECT_EQ(t.Find("missing"), kInvalidNode);
}

TEST(TaxonomyTest, AddIsaDeduplicatesAndRejectsSelfLoop) {
  Taxonomy t;
  const NodeId e = t.AddNode("刘德华", NodeKind::kEntity);
  const NodeId c = t.AddNode("演员", NodeKind::kConcept);
  EXPECT_TRUE(t.AddIsa(e, c, Source::kTag));
  EXPECT_FALSE(t.AddIsa(e, c, Source::kBracket));  // duplicate
  EXPECT_FALSE(t.AddIsa(e, e, Source::kTag));      // self loop
  EXPECT_EQ(t.num_edges(), 1u);
  EXPECT_TRUE(t.HasIsa(e, c));
  EXPECT_FALSE(t.HasIsa(c, e));
}

TEST(TaxonomyTest, AdjacencyIndexes) {
  Taxonomy t;
  t.AddIsa("刘德华", "演员", Source::kTag);
  t.AddIsa("刘德华", "歌手", Source::kBracket);
  t.AddIsa("张学友", "歌手", Source::kTag);
  const NodeId liu = t.Find("刘德华");
  const NodeId singer = t.Find("歌手");
  EXPECT_EQ(t.Hypernyms(liu).size(), 2u);
  EXPECT_EQ(t.Hyponyms(singer).size(), 2u);
  EXPECT_TRUE(t.Hypernyms(singer).empty());
}

TEST(TaxonomyTest, KindsAndCounts) {
  Taxonomy t;
  t.AddIsa("刘德华", "演员", Source::kTag);                       // entity->concept
  t.AddIsa("演员", "人物", Source::kTag, 1.0f, NodeKind::kConcept);  // sub->concept
  EXPECT_EQ(t.NumEntities(), 1u);
  EXPECT_EQ(t.NumConcepts(), 2u);
  EXPECT_EQ(t.NumEntityConceptEdges(), 1u);
  EXPECT_EQ(t.NumSubconceptEdges(), 1u);
  EXPECT_EQ(t.NumEdgesFromSource(Source::kTag), 2u);
  EXPECT_EQ(t.NumEdgesFromSource(Source::kBracket), 0u);
}

TEST(TaxonomyTest, RemoveIsa) {
  Taxonomy t;
  t.AddIsa("a", "b", Source::kTag);
  const NodeId a = t.Find("a"), b = t.Find("b");
  EXPECT_TRUE(t.RemoveIsa(a, b));
  EXPECT_FALSE(t.RemoveIsa(a, b));
  EXPECT_EQ(t.num_edges(), 0u);
  EXPECT_EQ(t.NumEdgesFromSource(Source::kTag), 0u);
  EXPECT_TRUE(t.Hypernyms(a).empty());
  EXPECT_TRUE(t.Hyponyms(b).empty());
}

TEST(TaxonomyTest, TransitiveHypernyms) {
  Taxonomy t;
  t.AddIsa("男演员", "演员", Source::kTag, 1.0f, NodeKind::kConcept);
  t.AddIsa("演员", "娱乐人物", Source::kTag, 1.0f, NodeKind::kConcept);
  t.AddIsa("娱乐人物", "人物", Source::kTag, 1.0f, NodeKind::kConcept);
  const auto ancestors = t.TransitiveHypernyms(t.Find("男演员"));
  EXPECT_EQ(ancestors.size(), 3u);
}

TEST(TaxonomyTest, CycleDetection) {
  Taxonomy t;
  t.AddIsa("a", "b", Source::kTag, 1.0f, NodeKind::kConcept);
  t.AddIsa("b", "c", Source::kTag, 1.0f, NodeKind::kConcept);
  EXPECT_TRUE(t.IsAcyclic());
  EXPECT_TRUE(t.WouldCreateCycle(t.Find("c"), t.Find("a")));
  EXPECT_FALSE(t.WouldCreateCycle(t.Find("a"), t.Find("c")));
  t.AddIsa(t.Find("c"), t.Find("a"), Source::kTag);
  EXPECT_FALSE(t.IsAcyclic());
}

TEST(TaxonomyTest, ForEachEdgeVisitsAll) {
  Taxonomy t;
  t.AddIsa("x", "y", Source::kTag);
  t.AddIsa("x", "z", Source::kInfobox);
  size_t count = 0;
  t.ForEachEdge([&](const IsaEdge&) { ++count; });
  EXPECT_EQ(count, 2u);
}

// Every name-level fact of `t`, edge rows in order, as one string.
std::string Fingerprint(const Taxonomy& t) {
  std::string out;
  for (NodeId id = 0; id < t.num_nodes(); ++id) {
    out += t.Name(id) + (t.Kind(id) == NodeKind::kConcept ? "/c:" : "/e:");
    for (const IsaEdge& edge : t.Hypernyms(id)) {
      out += t.Name(edge.hyper) + "," +
             std::to_string(static_cast<int>(edge.source)) + "," +
             std::to_string(edge.score) + ";";
    }
    out += "\n";
  }
  return out;
}

TEST(TaxonomyTest, CloneIsDeep) {
  Taxonomy t;
  t.AddIsa("刘德华", "演员", Source::kTag);
  t.AddIsa("刘德华", "歌手", Source::kBracket, 0.5f);
  t.AddIsa("演员", "人物", Source::kInfobox, 1.0f, NodeKind::kConcept);
  const Taxonomy clone = t.Clone();
  const std::string before = Fingerprint(clone);
  EXPECT_EQ(before, Fingerprint(t));
  EXPECT_EQ(clone.num_edges(), 3u);
  EXPECT_EQ(clone.NumEdgesFromSource(Source::kBracket), 1u);
  EXPECT_EQ(clone.Find("歌手"), t.Find("歌手"));

  // Mutating the source in every way leaves the clone as it was.
  t.AddIsa("张学友", "歌手", Source::kTag);
  t.RemoveIsa(t.Find("刘德华"), t.Find("演员"));
  t.PromoteToConcept(t.Find("刘德华"));
  t.AddNode("孤立", NodeKind::kEntity);
  EXPECT_NE(Fingerprint(t), before);
  EXPECT_EQ(Fingerprint(clone), before);
  EXPECT_EQ(clone.Find("张学友"), kInvalidNode);
  EXPECT_EQ(clone.Kind(clone.Find("刘德华")), NodeKind::kEntity);
  EXPECT_EQ(clone.Hyponyms(clone.Find("歌手")).size(), 1u);
  EXPECT_EQ(clone.NumEdgesFromSource(Source::kTag), 1u);
  // The clone's name index is its own: lookups survive the source's death.
  { Taxonomy gone = std::move(t); }
  EXPECT_EQ(clone.Find("人物"), 3u);
}

TEST(TaxonomyTest, PromotionKeepsIdEdgesAndSourceCounts) {
  Taxonomy t;
  t.AddIsa("刘德华", "演员", Source::kTag);
  t.AddIsa("张学友", "歌手", Source::kBracket);
  const NodeId liu = t.Find("刘德华");
  const std::string row_before = Fingerprint(t);
  t.PromoteToConcept(liu);
  EXPECT_EQ(t.Find("刘德华"), liu);
  EXPECT_EQ(t.Kind(liu), NodeKind::kConcept);
  EXPECT_EQ(t.num_nodes(), 4u);
  EXPECT_EQ(t.num_edges(), 2u);
  ASSERT_EQ(t.Hypernyms(liu).size(), 1u);
  EXPECT_EQ(t.Hypernyms(liu)[0].hyper, t.Find("演员"));
  EXPECT_EQ(t.NumEdgesFromSource(Source::kTag), 1u);
  EXPECT_EQ(t.NumEdgesFromSource(Source::kBracket), 1u);
  EXPECT_EQ(t.NumEntities(), 1u);
  EXPECT_EQ(t.NumSubconceptEdges(), 1u);
  // Only the kind changed.
  std::string expected = row_before;
  expected.replace(expected.find("刘德华/e:"), std::string("刘德华/e:").size(),
                   "刘德华/c:");
  EXPECT_EQ(Fingerprint(t), expected);
  // A concept hypernym can now sit above the promoted node.
  EXPECT_TRUE(t.AddIsa(t.Find("张学友"), liu, Source::kTag));
  t.PromoteToConcept(liu);  // idempotent
  EXPECT_EQ(t.Kind(liu), NodeKind::kConcept);
}

TEST(SerializeTest, RoundTrip) {
  Taxonomy t;
  t.AddIsa("刘德华（演员）", "演员", Source::kBracket, 0.9f);
  t.AddIsa("演员", "人物", Source::kTag, 1.0f, NodeKind::kConcept);
  const std::string path = ::testing::TempDir() + "/taxonomy_test.snap";
  ASSERT_TRUE(WriteSnapshot(*ServingView::Encode(t, {}), path).ok());
  auto view = ServingView::Load(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto loaded = MaterializeTaxonomy(**view);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), t.num_nodes());
  EXPECT_EQ(loaded->num_edges(), t.num_edges());
  const NodeId liu = loaded->Find("刘德华（演员）");
  ASSERT_NE(liu, kInvalidNode);
  EXPECT_EQ(loaded->Kind(liu), NodeKind::kEntity);
  EXPECT_EQ(loaded->Kind(loaded->Find("演员")), NodeKind::kConcept);
  ASSERT_EQ(loaded->Hypernyms(liu).size(), 1u);
  EXPECT_EQ(loaded->Hypernyms(liu)[0].source, Source::kBracket);
  EXPECT_EQ(loaded->Hypernyms(liu)[0].score, 0.9f);  // exact bits
  std::remove(path.c_str());
}

// Rows of the retired TSV taxonomy format (and any other text) are not a
// snapshot: loading one is a clean error, never a misread taxonomy.
TEST(SerializeTest, RejectsMalformedRows) {
  const std::string path = ::testing::TempDir() + "/taxonomy_bad.snap";
  ASSERT_TRUE(util::WriteFileAtomic(path,
                                    "N\t演员\tc\nN\t人物\tc\n"
                                    "E\t0\t1\t0\t1.000000\n")
                  .ok());
  auto loaded = ServingView::Load(path);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  auto fallback = LoadSnapshotWithFallback(path);
  EXPECT_FALSE(fallback.ok());
  std::remove(path.c_str());
}

TEST(ApiServiceTest, Men2EntRankingAndCounts) {
  Taxonomy t;
  t.AddIsa("刘德华（演员）", "演员", Source::kTag);
  t.AddIsa("刘德华（演员）", "歌手", Source::kTag);
  t.AddIsa("刘德华（作家）", "作家", Source::kTag);
  // Index order puts the poorer page first; ranking must reorder it.
  const ApiService::MentionIndex index = {
      {"刘德华", {t.Find("刘德华（作家）"), t.Find("刘德华（演员）")}}};
  ApiService api(util::UnownedSnapshot(&t), index);

  const auto entities = api.TryMen2EntResolved("刘德华");
  ASSERT_TRUE(entities.ok());
  ASSERT_EQ(entities->entities.size(), 2u);
  // The richer page (2 hypernyms) ranks first.
  EXPECT_EQ(entities->entities[0].name, "刘德华（演员）");
  EXPECT_EQ(entities->entities[0].id, t.Find("刘德华（演员）"));
  EXPECT_EQ(entities->entities[0].num_hypernyms, 2u);
  EXPECT_TRUE(api.TryMen2EntResolved("无名氏")->entities.empty());

  const auto concepts = api.TryGetConceptResolved("刘德华（演员）");
  EXPECT_EQ(concepts->names.size(), 2u);
  const auto hyponyms = api.TryGetEntityResolved("演员");
  ASSERT_EQ(hyponyms->names.size(), 1u);
  EXPECT_EQ(hyponyms->names[0], "刘德华（演员）");

  EXPECT_EQ(api.usage().men2ent_calls, 2u);
  EXPECT_EQ(api.usage().get_concept_calls, 1u);
  EXPECT_EQ(api.usage().get_entity_calls, 1u);
  EXPECT_EQ(api.usage().total(), 4u);
}

TEST(ApiServiceTest, GetConceptTransitiveAppendsAncestors) {
  Taxonomy t;
  t.AddIsa("刘德华", "男演员", Source::kBracket, 0.96f);
  t.AddIsa("男演员", "演员", Source::kTag, 0.9f, NodeKind::kConcept);
  t.AddIsa("演员", "人物", Source::kTag, 0.9f, NodeKind::kConcept);
  ApiService api(util::UnownedSnapshot(&t));
  const auto direct = api.TryGetConceptResolved("刘德华")->names;
  EXPECT_EQ(direct, (std::vector<std::string>{"男演员"}));
  const auto all =
      api.TryGetConceptResolved("刘德华", /*transitive=*/true)->names;
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "男演员");
  // Ancestors follow, each exactly once.
  EXPECT_NE(std::find(all.begin(), all.end(), "演员"), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), "人物"), all.end());
}

TEST(ApiServiceTest, GetEntityHonoursLimit) {
  Taxonomy t;
  for (int i = 0; i < 20; ++i) {
    t.AddIsa("e" + std::to_string(i), "c", Source::kTag);
  }
  ApiService api(util::UnownedSnapshot(&t));
  EXPECT_EQ(api.TryGetEntityResolved("c", 5)->names.size(), 5u);
  EXPECT_EQ(api.TryGetEntityResolved("c", 100)->names.size(), 20u);
}

TEST(ApiServiceTest, VersionHistoryAndExportedNamesStayBounded) {
  Taxonomy t;
  t.AddIsa("a", "b", Source::kTag);
  ApiService api(util::UnownedSnapshot(&t));
  const auto view = ServingView::Encode(t, {});
  obs::MetricsRegistry registry;
  constexpr size_t kPublishes = 10000;
  for (size_t i = 0; i < kPublishes; ++i) {
    api.Publish(view);
    for (size_t q = 0; q < i % 3; ++q) (void)api.TryGetConceptResolved("a");
    if (i % 97 == 0) api.ExportMetrics(&registry);
  }
  api.ExportMetrics(&registry);
  EXPECT_EQ(api.version(), kPublishes + 1);

  const std::vector<ApiService::VersionStats> stats = api.AllVersionStats();
  ASSERT_EQ(stats.size(), ApiService::kVersionHistory + 1);
  EXPECT_EQ(stats.front().version, 0u);  // the evicted aggregate
  EXPECT_EQ(stats.back().version, kPublishes + 1);
  uint64_t attributed = 0;
  for (const auto& version : stats) attributed += version.queries;
  EXPECT_EQ(attributed, api.usage().total());

  size_t version_names = 0;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("api.version.", 0) == 0) ++version_names;
  }
  // Four gauges per retained slot plus the evicted total.
  EXPECT_EQ(version_names, 4 * ApiService::kVersionHistory + 1);
  double current = -1.0;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name == "api.version.slot0.version") current = value;
  }
  EXPECT_EQ(current, static_cast<double>(kPublishes + 1));
}

}  // namespace
}  // namespace cnpb::taxonomy
