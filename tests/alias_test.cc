#include <gtest/gtest.h>

#include "core/builder.h"
#include "kb/merge.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "text/segmenter.h"

namespace cnpb {
namespace {

class AliasTest : public ::testing::Test {
 protected:
  AliasTest() {
    synth::WorldModel::Config wc;
    wc.num_entities = 2000;
    world_ = std::make_unique<synth::WorldModel>(synth::WorldModel::Generate(wc));
    output_ = std::make_unique<synth::EncyclopediaGenerator::Output>(
        synth::EncyclopediaGenerator::Generate(*world_, {}));
  }
  std::unique_ptr<synth::WorldModel> world_;
  std::unique_ptr<synth::EncyclopediaGenerator::Output> output_;
};

TEST_F(AliasTest, GeneratorEmitsAliases) {
  size_t person_aliases = 0, org_aliases = 0;
  for (const auto& page : output_->dump.pages()) {
    for (const std::string& alias : page.aliases) {
      EXPECT_FALSE(alias.empty());
      EXPECT_NE(alias, page.mention);
      if (alias.rfind("阿", 0) == 0 || alias.rfind("小", 0) == 0) {
        ++person_aliases;
      } else {
        ++org_aliases;
      }
    }
  }
  EXPECT_GT(person_aliases, 30u);
  EXPECT_GT(org_aliases, 30u);
}

TEST_F(AliasTest, AliasesSurviveDumpRoundTrip) {
  const std::string path = ::testing::TempDir() + "/alias_dump.tsv";
  ASSERT_TRUE(output_->dump.Save(path).ok());
  auto loaded = kb::EncyclopediaDump::Load(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < loaded->size(); i += 37) {
    EXPECT_EQ(loaded->page(i).aliases, output_->dump.page(i).aliases);
  }
  std::remove(path.c_str());
}

TEST_F(AliasTest, Men2EntResolvesAliases) {
  text::Segmenter segmenter(&world_->lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(*world_, output_->dump, segmenter, {});
  std::vector<std::vector<std::string>> corpus_words;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  core::CnProbaseBuilder::Config config;
  config.enable_abstract = false;  // keep the test fast
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  core::CnProbaseBuilder::Report report;
  const auto taxonomy = core::CnProbaseBuilder::Build(
      output_->dump, world_->lexicon(), corpus_words, config, &report);
  taxonomy::ApiService api(
      util::UnownedSnapshot(&taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(output_->dump, taxonomy));

  size_t resolved = 0, with_alias = 0;
  for (const auto& page : output_->dump.pages()) {
    if (page.aliases.empty()) continue;
    if (taxonomy.Find(page.name) == taxonomy::kInvalidNode) continue;
    ++with_alias;
    const auto entities = api.TryMen2EntResolved(page.aliases[0]);
    ASSERT_TRUE(entities.ok());
    for (const auto& entity : entities->entities) {
      if (entity.name == page.name) {
        ++resolved;
        break;
      }
    }
  }
  ASSERT_GT(with_alias, 20u);
  // Every alias of a taxonomy entity must resolve to it (possibly among
  // several candidates — nicknames collide by design).
  EXPECT_EQ(resolved, with_alias);
}

TEST_F(AliasTest, MergeUnionsAliases) {
  kb::EncyclopediaDump a, b;
  kb::EncyclopediaPage page;
  page.name = "x";
  page.mention = "x";
  page.aliases = {"alias1"};
  a.AddPage(page);
  page.aliases = {"alias1", "alias2"};
  b.AddPage(page);
  const auto merged = kb::MergeDumps({&a, &b});
  EXPECT_EQ(merged.FindByName("x")->aliases,
            (std::vector<std::string>{"alias1", "alias2"}));
}

}  // namespace
}  // namespace cnpb
