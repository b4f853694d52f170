#include <gtest/gtest.h>

#include <memory>

#include "core/builder.h"
#include "eval/coverage.h"
#include "eval/precision.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/qa_gen.h"
#include "synth/world.h"
#include "text/segmenter.h"

namespace cnpb {
namespace {

// End-to-end fixture: one moderately sized world shared by all tests in
// this file (generation + training dominate the cost).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldModel::Config wc;
    wc.num_entities = 4000;
    wc.seed = 42;
    world_ = new synth::WorldModel(synth::WorldModel::Generate(wc));

    synth::EncyclopediaGenerator::Config gc;
    output_ = new synth::EncyclopediaGenerator::Output(
        synth::EncyclopediaGenerator::Generate(*world_, gc));

    segmenter_ = new text::Segmenter(&world_->lexicon());
    synth::CorpusGenerator::Config cc;
    corpus_ = new synth::Corpus(synth::CorpusGenerator::Generate(
        *world_, output_->dump, *segmenter_, cc));
    corpus_words_ = new std::vector<std::vector<std::string>>();
    for (const auto& sentence : corpus_->sentences) {
      std::vector<std::string> words;
      words.reserve(sentence.size());
      for (const auto& token : sentence) words.push_back(token.word);
      corpus_words_->push_back(std::move(words));
    }

    core::CnProbaseBuilder::Config config;
    config.neural.epochs = 2;
    config.neural.max_train_samples = 1200;
    // The 184-word thematic lexicon is an external resource (Li et al.).
    for (const char* word : synth::ThematicWords()) {
      config.verification.syntax.thematic_lexicon.emplace_back(word);
    }
    report_ = new core::CnProbaseBuilder::Report();
    candidates_ = new generation::CandidateList(
        core::CnProbaseBuilder::BuildCandidates(output_->dump,
                                                world_->lexicon(),
                                                *corpus_words_, config,
                                                report_));
    taxonomy_ = new taxonomy::Taxonomy(
        core::CnProbaseBuilder::Materialise(*candidates_));
  }

  static void TearDownTestSuite() {
    delete taxonomy_;
    delete candidates_;
    delete report_;
    delete corpus_words_;
    delete corpus_;
    delete segmenter_;
    delete output_;
    delete world_;
  }

  static eval::Oracle Oracle() {
    return [](const std::string& hypo, const std::string& hyper) {
      return output_->gold.IsCorrect(hypo, hyper);
    };
  }

  static synth::WorldModel* world_;
  static synth::EncyclopediaGenerator::Output* output_;
  static text::Segmenter* segmenter_;
  static synth::Corpus* corpus_;
  static std::vector<std::vector<std::string>>* corpus_words_;
  static core::CnProbaseBuilder::Report* report_;
  static generation::CandidateList* candidates_;
  static taxonomy::Taxonomy* taxonomy_;
};

synth::WorldModel* PipelineTest::world_ = nullptr;
synth::EncyclopediaGenerator::Output* PipelineTest::output_ = nullptr;
text::Segmenter* PipelineTest::segmenter_ = nullptr;
synth::Corpus* PipelineTest::corpus_ = nullptr;
std::vector<std::vector<std::string>>* PipelineTest::corpus_words_ = nullptr;
core::CnProbaseBuilder::Report* PipelineTest::report_ = nullptr;
generation::CandidateList* PipelineTest::candidates_ = nullptr;
taxonomy::Taxonomy* PipelineTest::taxonomy_ = nullptr;

TEST_F(PipelineTest, AllSourcesProduceCandidates) {
  EXPECT_GT(report_->bracket_candidates, 1000u);
  EXPECT_GT(report_->tag_candidates, 3000u);
  EXPECT_GT(report_->infobox_candidates, 1000u);
  EXPECT_GT(report_->abstract_candidates, 1000u);
  EXPECT_GT(report_->merged_candidates, 5000u);
}

TEST_F(PipelineTest, VerificationRejectsSomething) {
  EXPECT_GT(report_->verification.rejected_total(), 100u);
  EXPECT_LT(report_->verification.output, report_->verification.input);
}

TEST_F(PipelineTest, PredicateDiscoveryFindsIsaBearingPredicates) {
  const auto& selected = report_->discovery.selected;
  ASSERT_FALSE(selected.empty());
  EXPECT_LE(selected.size(), 12u);
  // 职业 is the canonical implicit-isA predicate and must be discovered.
  EXPECT_NE(std::find(selected.begin(), selected.end(), "职业"),
            selected.end());
  // 出生地 points at places, not classes; it must not be selected.
  EXPECT_EQ(std::find(selected.begin(), selected.end(), "出生地"),
            selected.end());
  EXPECT_GE(report_->discovery.candidates.size(), selected.size());
}

TEST_F(PipelineTest, FinalPrecisionMatchesPaperBand) {
  const auto result = eval::ExactPrecision(*taxonomy_, Oracle());
  ASSERT_GT(result.evaluated, 5000u);
  // Paper: 95%. Band allows synthetic-noise variance.
  EXPECT_GT(result.precision(), 0.92);
}

TEST_F(PipelineTest, VerificationImprovesPrecision) {
  const auto before =
      eval::PrecisionResult{report_->verification.input, 0}.evaluated;
  (void)before;
  // Rebuild without verification on the same inputs.
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 2;
  config.neural.max_train_samples = 1200;
  config.enable_verification = false;
  core::CnProbaseBuilder::Report raw_report;
  const auto raw = core::CnProbaseBuilder::BuildCandidates(
      output_->dump, world_->lexicon(), *corpus_words_, config, &raw_report);
  const double raw_precision =
      eval::CandidatePrecision(raw, Oracle()).precision();
  const double verified_precision =
      eval::CandidatePrecision(*candidates_, Oracle()).precision();
  EXPECT_GT(verified_precision, raw_precision + 0.02);
}

TEST_F(PipelineTest, BracketSourcePrecisionBand) {
  const auto by_source = eval::PrecisionBySource(*taxonomy_, Oracle());
  auto it = by_source.find(taxonomy::Source::kBracket);
  ASSERT_NE(it, by_source.end());
  EXPECT_GT(it->second.evaluated, 500u);
  // Paper: 96.2% from the bracket source.
  EXPECT_GT(it->second.precision(), 0.93);
}

TEST_F(PipelineTest, TagSourcePrecisionBand) {
  const auto by_source = eval::PrecisionBySource(*taxonomy_, Oracle());
  auto it = by_source.find(taxonomy::Source::kTag);
  ASSERT_NE(it, by_source.end());
  // Paper: 97.4% for tag-derived relations after verification.
  EXPECT_GT(it->second.precision(), 0.93);
}

TEST_F(PipelineTest, SubconceptRelationsExist) {
  EXPECT_GT(taxonomy_->NumSubconceptEdges(), 50u);
  // Spot-check a known gold subconcept edge surfaced via concept pages.
  const taxonomy::NodeId sub = taxonomy_->Find("男演员");
  const taxonomy::NodeId super = taxonomy_->Find("演员");
  ASSERT_NE(sub, taxonomy::kInvalidNode);
  ASSERT_NE(super, taxonomy::kInvalidNode);
  EXPECT_TRUE(taxonomy_->HasIsa(sub, super));
}

TEST_F(PipelineTest, QaCoverageBand) {
  synth::QaGenerator::Config qc;
  qc.num_questions = 4000;
  const auto questions = synth::QaGenerator::Generate(*world_, qc);
  std::vector<std::string> texts;
  texts.reserve(questions.size());
  for (const auto& q : questions) texts.push_back(q.text);
  const auto coverage = eval::QaCoverage(*taxonomy_, output_->dump, texts);
  // Paper: 91.68% on NLPCC 2016; our out-of-KB rate is 8%.
  EXPECT_GT(coverage.coverage(), 0.80);
  EXPECT_LT(coverage.coverage(), 0.99);
  EXPECT_GT(coverage.avg_concepts_per_entity(), 1.0);
}

TEST_F(PipelineTest, SampledPrecisionTracksExact) {
  const auto exact = eval::ExactPrecision(*taxonomy_, Oracle());
  const auto sampled = eval::SampledPrecision(*taxonomy_, Oracle(), 2000, 3);
  EXPECT_EQ(sampled.evaluated, 2000u);
  EXPECT_NEAR(sampled.precision(), exact.precision(), 0.03);
}

TEST_F(PipelineTest, ApiServiceAnswersOverBuiltTaxonomy) {
  taxonomy::ApiService api(
      util::UnownedSnapshot(taxonomy_),
      core::CnProbaseBuilder::BuildMentionIndex(output_->dump, *taxonomy_));
  EXPECT_GT(api.num_mentions(), 1000u);
  // Concepts of some entity resolve through men2ent + getConcept.
  bool found = false;
  for (const auto& page : output_->dump.pages()) {
    const auto entities = api.TryMen2EntResolved(page.mention);
    ASSERT_TRUE(entities.ok());
    if (entities->entities.empty()) continue;
    const auto concepts =
        api.TryGetConceptResolved(entities->entities[0].name);
    ASSERT_TRUE(concepts.ok());
    if (!concepts->names.empty()) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace cnpb
