#include <gtest/gtest.h>

#include "core/builder.h"
#include "kb/merge.h"
#include "synth/encyclopedia_gen.h"
#include "synth/site_split.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/stats.h"
#include "verification/syntax_rules.h"

namespace cnpb {
namespace {

// ---- kb::MergeDumps -------------------------------------------------------------

TEST(MergeDumpsTest, UnionsRegionsAcrossSites) {
  kb::EncyclopediaDump a, b;
  {
    kb::EncyclopediaPage page;
    page.name = "刘德华（演员）";
    page.mention = "刘德华";
    page.bracket = "演员";
    page.infobox.push_back({page.name, "职业", "演员"});
    a.AddPage(page);
  }
  {
    kb::EncyclopediaPage page;
    page.name = "刘德华（演员）";
    page.mention = "刘德华";
    page.abstract = "刘德华是演员。";
    page.infobox.push_back({page.name, "职业", "演员"});  // duplicate
    page.infobox.push_back({page.name, "身高", "174"});
    page.tags = {"演员", "人物"};
    b.AddPage(page);
  }
  {
    kb::EncyclopediaPage page;
    page.name = "only_b";
    page.mention = "only_b";
    b.AddPage(page);
  }
  const kb::EncyclopediaDump merged = kb::MergeDumps({&a, &b});
  ASSERT_EQ(merged.size(), 2u);
  const kb::EncyclopediaPage* liu = merged.FindByName("刘德华（演员）");
  ASSERT_NE(liu, nullptr);
  EXPECT_EQ(liu->bracket, "演员");
  EXPECT_EQ(liu->abstract, "刘德华是演员。");
  EXPECT_EQ(liu->infobox.size(), 2u);  // 职业 deduplicated
  EXPECT_EQ(liu->tags.size(), 2u);
  EXPECT_NE(merged.FindByName("only_b"), nullptr);
}

TEST(MergeDumpsTest, FirstDumpWinsOnConflicts) {
  kb::EncyclopediaDump a, b;
  kb::EncyclopediaPage page;
  page.name = "x";
  page.mention = "x";
  page.abstract = "from_a";
  a.AddPage(page);
  page.abstract = "from_b";
  b.AddPage(page);
  const auto merged = kb::MergeDumps({&a, &b});
  EXPECT_EQ(merged.FindByName("x")->abstract, "from_a");
}

TEST(MergeDumpsTest, EmptyInput) {
  EXPECT_EQ(kb::MergeDumps({}).size(), 0u);
}

// ---- site split + merge round trip -------------------------------------------------

class SiteSplitTest : public ::testing::Test {
 protected:
  SiteSplitTest() {
    synth::WorldModel::Config wc;
    wc.num_entities = 1500;
    world_ = std::make_unique<synth::WorldModel>(synth::WorldModel::Generate(wc));
    output_ = std::make_unique<synth::EncyclopediaGenerator::Output>(
        synth::EncyclopediaGenerator::Generate(*world_, {}));
  }
  std::unique_ptr<synth::WorldModel> world_;
  std::unique_ptr<synth::EncyclopediaGenerator::Output> output_;
};

TEST_F(SiteSplitTest, EveryPageLandsSomewhereAndSitesArePartial) {
  const auto sites = synth::SplitIntoSites(output_->dump, {});
  ASSERT_EQ(sites.size(), 3u);
  size_t total = 0;
  for (const auto& site : sites) {
    EXPECT_GT(site.size(), output_->dump.size() / 4);
    EXPECT_LT(site.size(), output_->dump.size());
    total += site.size();
  }
  // Overlap exists: sites together hold more page copies than the master.
  EXPECT_GT(total, output_->dump.size());
  // Union covers everything.
  const auto merged =
      kb::MergeDumps({&sites[0], &sites[1], &sites[2]});
  EXPECT_EQ(merged.size(), output_->dump.size());
}

TEST_F(SiteSplitTest, MergeRecoversMostContent) {
  const auto sites = synth::SplitIntoSites(output_->dump, {});
  const auto merged = kb::MergeDumps({&sites[0], &sites[1], &sites[2]});
  const kb::DumpStats master = output_->dump.Stats();
  const kb::DumpStats recovered = merged.Stats();
  // With 3 sites at 60% coverage and 60-80% region retention, the union
  // recovers the large majority of each region.
  EXPECT_GT(recovered.num_abstracts, master.num_abstracts * 8 / 10);
  EXPECT_GT(recovered.num_brackets, master.num_brackets * 8 / 10);
  EXPECT_GT(recovered.num_tags, master.num_tags * 7 / 10);
  EXPECT_GT(recovered.num_triples, master.num_triples * 7 / 10);
  // And any single site alone holds noticeably less.
  EXPECT_LT(sites[0].Stats().num_abstracts, recovered.num_abstracts);
}

// ---- taxonomy stats ---------------------------------------------------------------

TEST(TaxonomyStatsTest, ComputesStructure) {
  taxonomy::Taxonomy t;
  t.AddIsa("刘德华", "男演员", taxonomy::Source::kBracket);
  t.AddIsa("张三", "男演员", taxonomy::Source::kTag);
  t.AddIsa("男演员", "演员", taxonomy::Source::kTag, 1.0f,
           taxonomy::NodeKind::kConcept);
  t.AddIsa("演员", "人物", taxonomy::Source::kTag, 1.0f,
           taxonomy::NodeKind::kConcept);
  const auto stats = taxonomy::ComputeStats(t);
  EXPECT_EQ(stats.num_entities, 2u);
  EXPECT_EQ(stats.num_concepts, 3u);
  EXPECT_EQ(stats.num_entity_concept_edges, 2u);
  EXPECT_EQ(stats.num_subconcept_edges, 2u);
  EXPECT_EQ(stats.num_root_concepts, 1u);  // 人物
  EXPECT_EQ(stats.num_leaf_concepts, 0u);  // all concepts have hyponyms
  EXPECT_DOUBLE_EQ(stats.avg_hypernyms_per_entity, 1.0);
  EXPECT_EQ(stats.max_fanout_concept, "男演员");
  EXPECT_EQ(stats.max_concept_fanout, 2u);
  // Depth: 人物=0, 演员=1, 男演员=2, entities=3.
  EXPECT_EQ(stats.max_depth, 3u);
  ASSERT_EQ(stats.depth_histogram.size(), 4u);
  EXPECT_EQ(stats.depth_histogram[3], 2u);
  EXPECT_EQ(stats.edges_by_source[static_cast<int>(taxonomy::Source::kTag)],
            3u);
  const std::string report = taxonomy::FormatStats(stats);
  EXPECT_NE(report.find("男演员"), std::string::npos);
}

TEST(TaxonomyStatsTest, EmptyTaxonomy) {
  taxonomy::Taxonomy t;
  const auto stats = taxonomy::ComputeStats(t);
  EXPECT_EQ(stats.num_entities, 0u);
  EXPECT_EQ(stats.max_depth, 0u);
}

// ---- confidence-ranked getConcept ---------------------------------------------------

TEST(ApiRankingTest, GetConceptOrdersByEdgeScore) {
  taxonomy::Taxonomy t;
  const auto e = t.AddNode("某人", taxonomy::NodeKind::kEntity);
  const auto weak = t.AddNode("弱概念", taxonomy::NodeKind::kConcept);
  const auto strong = t.AddNode("强概念", taxonomy::NodeKind::kConcept);
  t.AddIsa(e, weak, taxonomy::Source::kAbstract, 0.85f);
  t.AddIsa(e, strong, taxonomy::Source::kBracket, 0.96f);
  taxonomy::ApiService api(util::UnownedSnapshot(&t));
  const auto concepts = api.TryGetConceptResolved("某人")->names;
  ASSERT_EQ(concepts.size(), 2u);
  EXPECT_EQ(concepts[0], "强概念");
  EXPECT_EQ(concepts[1], "弱概念");
}

// ---- extended syntax rules -----------------------------------------------------------

TEST(ExtendedSyntaxRulesTest, RejectsDatesNumbersAndAttributives) {
  verification::SyntaxRules rules(verification::SyntaxRules::Config{});
  EXPECT_TRUE(rules.Rejects("某战役", "1994"));
  EXPECT_TRUE(rules.Rejects("某战役", "1994年"));
  EXPECT_TRUE(rules.Rejects("某战役", "9月"));
  EXPECT_TRUE(rules.Rejects("某人", "著名的"));
  EXPECT_FALSE(rules.Rejects("某人", "演员"));
  // 年 alone (no digits) is not a date fragment.
  EXPECT_FALSE(rules.Rejects("某人", "年"));
}

TEST(ExtendedSyntaxRulesTest, CanBeDisabled) {
  verification::SyntaxRules::Config config;
  config.extended_rules = false;
  verification::SyntaxRules rules(config);
  EXPECT_FALSE(rules.Rejects("某战役", "1994年"));
  EXPECT_FALSE(rules.Rejects("某人", "著名的"));
}

}  // namespace
}  // namespace cnpb
