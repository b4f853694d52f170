#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/incremental.h"
#include "eval/precision.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "util/thread_pool.h"

namespace cnpb {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldModel::Config wc;
    wc.num_entities = 3000;
    world_ = new synth::WorldModel(synth::WorldModel::Generate(wc));
    output_ = new synth::EncyclopediaGenerator::Output(
        synth::EncyclopediaGenerator::Generate(*world_, {}));
    text::Segmenter segmenter(&world_->lexicon());
    const auto corpus = synth::CorpusGenerator::Generate(
        *world_, output_->dump, segmenter, {});
    corpus_words_ = new std::vector<std::vector<std::string>>();
    for (const auto& sentence : corpus.sentences) {
      std::vector<std::string> words;
      for (const auto& token : sentence) words.push_back(token.word);
      corpus_words_->push_back(std::move(words));
    }
    // Base = first 70% of pages; the rest arrives in two batches.
    base_ = new kb::EncyclopediaDump();
    batch1_ = new std::vector<kb::EncyclopediaPage>();
    batch2_ = new std::vector<kb::EncyclopediaPage>();
    const size_t n = output_->dump.size();
    for (size_t i = 0; i < n; ++i) {
      kb::EncyclopediaPage page = output_->dump.page(i);
      page.page_id = 0;
      if (i < n * 7 / 10) {
        base_->AddPage(std::move(page));
      } else if (i < n * 85 / 100) {
        batch1_->push_back(std::move(page));
      } else {
        batch2_->push_back(std::move(page));
      }
    }
  }
  static void TearDownTestSuite() {
    delete batch2_;
    delete batch1_;
    delete base_;
    delete corpus_words_;
    delete output_;
    delete world_;
  }

  static core::CnProbaseBuilder::Config Config() {
    core::CnProbaseBuilder::Config config;
    config.neural.epochs = 1;
    config.neural.max_train_samples = 500;
    for (const char* word : synth::ThematicWords()) {
      config.verification.syntax.thematic_lexicon.emplace_back(word);
    }
    return config;
  }

  // batch1_ cut into batches of 32 pages (the ingest batch size: 8
  // extraction shards), 5 (2 shards), 1 (one shard of one page) and the
  // rest (many shards).
  static std::vector<std::vector<kb::EncyclopediaPage>> MixedBatches() {
    std::vector<std::vector<kb::EncyclopediaPage>> batches;
    size_t next = 0;
    for (const size_t size : {32ul, 5ul, 1ul, batch1_->size()}) {
      const size_t end = std::min(next + size, batch1_->size());
      batches.emplace_back(batch1_->begin() + next, batch1_->begin() + end);
      next = end;
    }
    return batches;
  }

  // What one updater run leaves behind: every batch's report and the
  // published view's bytes after the base build and after every batch.
  struct Run {
    std::vector<core::IncrementalUpdater::BatchReport> reports;
    std::vector<std::string> published;
  };

  // Builds an updater over base_ and applies `batches`, publishing after
  // each, on the calling thread.
  static Run ApplyAndPublish(
      const std::vector<std::vector<kb::EncyclopediaPage>>& batches) {
    core::IncrementalUpdater updater(*base_, &world_->lexicon(),
                                     *corpus_words_, Config());
    taxonomy::ApiService api(updater.snapshot());
    Run run;
    updater.Publish(&api);
    run.published.emplace_back(api.CurrentView()->bytes());
    for (const auto& batch : batches) {
      run.reports.push_back(updater.ApplyBatch(batch));
      updater.Publish(&api);
      run.published.emplace_back(api.CurrentView()->bytes());
    }
    return run;
  }

  // Everything in a BatchReport but its wall time.
  static void ExpectSameRuns(const Run& expected, const Run& actual) {
    ASSERT_EQ(expected.reports.size(), actual.reports.size());
    for (size_t b = 0; b < expected.reports.size(); ++b) {
      const auto& want = expected.reports[b];
      const auto& got = actual.reports[b];
      EXPECT_EQ(want.pages_added, got.pages_added) << "batch " << b;
      EXPECT_EQ(want.candidates, got.candidates) << "batch " << b;
      EXPECT_EQ(want.accepted, got.accepted) << "batch " << b;
      EXPECT_EQ(want.rejected, got.rejected) << "batch " << b;
      EXPECT_EQ(want.revoked, got.revoked) << "batch " << b;
    }
    ASSERT_EQ(expected.published.size(), actual.published.size());
    for (size_t v = 0; v < expected.published.size(); ++v) {
      EXPECT_TRUE(expected.published[v] == actual.published[v])
          << "published view " << v << " differs";
    }
  }

  static eval::Oracle Oracle() {
    return [](const std::string& hypo, const std::string& hyper) {
      return output_->gold.IsCorrect(hypo, hyper);
    };
  }

  static synth::WorldModel* world_;
  static synth::EncyclopediaGenerator::Output* output_;
  static std::vector<std::vector<std::string>>* corpus_words_;
  static kb::EncyclopediaDump* base_;
  static std::vector<kb::EncyclopediaPage>* batch1_;
  static std::vector<kb::EncyclopediaPage>* batch2_;
};

synth::WorldModel* IncrementalTest::world_ = nullptr;
synth::EncyclopediaGenerator::Output* IncrementalTest::output_ = nullptr;
std::vector<std::vector<std::string>>* IncrementalTest::corpus_words_ = nullptr;
kb::EncyclopediaDump* IncrementalTest::base_ = nullptr;
std::vector<kb::EncyclopediaPage>* IncrementalTest::batch1_ = nullptr;
std::vector<kb::EncyclopediaPage>* IncrementalTest::batch2_ = nullptr;

TEST_F(IncrementalTest, BatchesGrowTheTaxonomyAtStablePrecision) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  const size_t base_edges = updater.taxonomy().num_edges();
  const double base_precision =
      eval::ExactPrecision(updater.taxonomy(), Oracle()).precision();
  EXPECT_GT(base_edges, 1000u);
  EXPECT_GT(base_precision, 0.92);

  const auto report1 = updater.ApplyBatch(*batch1_);
  EXPECT_EQ(report1.pages_added, batch1_->size());
  EXPECT_GT(report1.candidates, 100u);
  EXPECT_GT(updater.taxonomy().num_edges(), base_edges);

  const auto report2 = updater.ApplyBatch(*batch2_);
  EXPECT_EQ(report2.pages_added, batch2_->size());
  const double final_precision =
      eval::ExactPrecision(updater.taxonomy(), Oracle()).precision();
  EXPECT_GT(final_precision, 0.92);

  // New entities from the batches are now queryable.
  size_t found = 0;
  for (const auto& page : *batch2_) {
    if (updater.taxonomy().Find(page.name) != taxonomy::kInvalidNode) ++found;
  }
  EXPECT_GT(found, batch2_->size() / 2);
}

TEST_F(IncrementalTest, DuplicatePagesAreSkipped) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  // Re-applying base pages is a no-op.
  std::vector<kb::EncyclopediaPage> dupes(base_->pages().begin(),
                                          base_->pages().begin() + 50);
  const auto report = updater.ApplyBatch(dupes);
  EXPECT_EQ(report.pages_added, 0u);
  EXPECT_EQ(report.candidates, 0u);
}

TEST_F(IncrementalTest, EmptyBatchIsCheap) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  const auto report = updater.ApplyBatch({});
  EXPECT_EQ(report.pages_added, 0u);
  EXPECT_EQ(report.accepted, 0u);
}

TEST_F(IncrementalTest, BatchPagesGetDistinctFreshIds) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  // The seed zeroed every batch page's id before insertion, so batch pages
  // collided instead of continuing the base dump's id sequence.
  uint64_t max_base_id = 0;
  for (const auto& page : updater.dump().pages()) {
    max_base_id = std::max(max_base_id, page.page_id);
  }
  std::vector<kb::EncyclopediaPage> two(batch1_->begin(), batch1_->begin() + 2);
  const auto report = updater.ApplyBatch(two);
  ASSERT_EQ(report.pages_added, 2u);

  const kb::EncyclopediaPage* first = updater.dump().FindByName(two[0].name);
  const kb::EncyclopediaPage* second = updater.dump().FindByName(two[1].name);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first->page_id, second->page_id);
  EXPECT_GT(first->page_id, max_base_id);
  EXPECT_GT(second->page_id, max_base_id);

  // Ids are unique across the whole union, not just the batch.
  std::unordered_set<uint64_t> ids;
  for (const auto& page : updater.dump().pages()) {
    EXPECT_NE(page.page_id, 0u);
    EXPECT_TRUE(ids.insert(page.page_id).second)
        << "duplicate page id " << page.page_id;
  }
}

TEST(IncrementalRevocationTest, RevocationsAreCountedSeparatelyFromRejections) {
  // A controlled world where new corpus evidence flips a hypernym into a
  // named entity: every pre-existing edge under it must be revoked, while
  // the batch's own candidate is rejected — two different outcomes the seed
  // conflated (accepted = max(0, after - before) hid both).
  text::Lexicon lexicon;
  kb::EncyclopediaDump base;
  constexpr size_t kBasePages = 6;
  for (size_t i = 0; i < kBasePages; ++i) {
    kb::EncyclopediaPage page;
    page.name = "e" + std::to_string(i);
    page.mention = page.name;
    page.tags = {"goodconcept"};
    base.AddPage(std::move(page));
  }
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.verification.use_syntax = false;
  config.verification.use_incompatible = false;  // isolate the NER strategy
  core::IncrementalUpdater updater(base, &lexicon, {}, config);
  ASSERT_EQ(updater.taxonomy().num_edges(), kBasePages);

  // The batch adds one more hyponym of "goodconcept", and corpus sentences
  // placing "goodconcept" after a locative preposition — NER support s1
  // jumps to 1.0, so verification now vetoes every edge under it.
  kb::EncyclopediaPage straggler;
  straggler.name = "e_new";
  straggler.mention = straggler.name;
  straggler.tags = {"goodconcept"};
  const auto report =
      updater.ApplyBatch({straggler}, {{"位于", "goodconcept"}});

  EXPECT_EQ(report.pages_added, 1u);
  EXPECT_EQ(report.candidates, 1u);
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.revoked, kBasePages);
  EXPECT_EQ(updater.taxonomy().num_edges(), 0u);
}

TEST(MaterialiseTest, SelfLoopCandidatesInternNothing) {
  // Interning a self-loop's endpoint before AddIsa refused the loop left an
  // isolated node: here "x" would have become a concept, and "x -> c" a
  // subconcept edge.
  generation::CandidateList candidates(3);
  candidates[0].hypo = candidates[0].hyper = "x";
  candidates[1].hypo = "x";
  candidates[1].hyper = "c";
  candidates[2].hypo = candidates[2].hyper = "lonely";
  const taxonomy::Taxonomy taxonomy =
      core::CnProbaseBuilder::Materialise(candidates);
  EXPECT_EQ(taxonomy.num_nodes(), 2u);
  EXPECT_EQ(taxonomy.num_edges(), 1u);
  EXPECT_EQ(taxonomy.Find("lonely"), taxonomy::kInvalidNode);
  ASSERT_NE(taxonomy.Find("x"), taxonomy::kInvalidNode);
  EXPECT_EQ(taxonomy.Kind(taxonomy.Find("x")), taxonomy::NodeKind::kEntity);
}

TEST(IncrementalSelfLoopTest, ServedNamesDoNotFlipAcrossBatches) {
  // A page tagged with its own name yields a self-loop candidate. It must
  // not make the name a node in one version and drop it in the next.
  text::Lexicon lexicon;
  kb::EncyclopediaDump base;
  kb::EncyclopediaPage loopy;
  loopy.name = "loopy";
  loopy.mention = "loopy_m";
  loopy.tags = {"loopy"};
  base.AddPage(loopy);
  kb::EncyclopediaPage anchor;
  anchor.name = "anchor";
  anchor.mention = "anchor";
  anchor.tags = {"concept"};
  base.AddPage(anchor);
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.enable_verification = false;
  core::IncrementalUpdater updater(base, &lexicon, {}, config);
  EXPECT_EQ(updater.taxonomy().Find("loopy"), taxonomy::kInvalidNode);

  kb::EncyclopediaPage looped = loopy;
  looped.name = "looped";
  looped.tags = {"looped"};
  kb::EncyclopediaPage other = anchor;
  other.name = "other";
  const auto report = updater.ApplyBatch({looped});
  EXPECT_EQ(report.candidates, 1u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(updater.taxonomy().Find("looped"), taxonomy::kInvalidNode);
  updater.ApplyBatch({other});
  EXPECT_EQ(updater.taxonomy().Find("loopy"), taxonomy::kInvalidNode);
  EXPECT_EQ(updater.taxonomy().Find("looped"), taxonomy::kInvalidNode);
  EXPECT_EQ(updater.taxonomy().num_nodes(), 3u);
}

TEST_F(IncrementalTest, SnapshotIsAFrozenCopyCachedPerBatch) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  const auto first = updater.snapshot();
  EXPECT_EQ(updater.snapshot(), first);  // cached until the next batch
  EXPECT_NE(first.get(), &updater.taxonomy());
  const size_t pinned_edges = first->num_edges();
  updater.ApplyBatch(*batch1_);
  EXPECT_EQ(first->num_edges(), pinned_edges);  // the pinned copy is frozen
  const auto second = updater.snapshot();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->num_edges(), updater.taxonomy().num_edges());
}

TEST_F(IncrementalTest, BatchesByteIdenticalAcrossThreadCounts) {
  // Batch extraction fans out over the thread pool; its shard plan depends
  // on the page count alone and every source merges in page order, so
  // reports and published bytes must not depend on the thread count.
  const auto batches = MixedBatches();
  Run at_one;
  {
    util::ScopedThreadsOverride threads(1);
    at_one = ApplyAndPublish(batches);
  }
  ASSERT_EQ(at_one.reports.size(), batches.size());
  EXPECT_GT(at_one.reports.front().candidates, 0u);
  for (const int count : {3, 8}) {
    SCOPED_TRACE(count);
    util::ScopedThreadsOverride threads(count);
    ExpectSameRuns(at_one, ApplyAndPublish(batches));
  }
}

TEST_F(IncrementalTest, ConcurrentUpdatersMatchSerialRun) {
  // Two ingest collections each own an updater, and both fan their batch
  // extraction out onto the one global pool. Running them at once must
  // leave each with the bytes a run alone gives.
  util::ScopedThreadsOverride threads(4);
  const auto batches = MixedBatches();
  const Run serial = ApplyAndPublish(batches);
  Run first;
  Run second;
  std::thread other([&]() { second = ApplyAndPublish(batches); });
  first = ApplyAndPublish(batches);
  other.join();
  ExpectSameRuns(serial, first);
  ExpectSameRuns(serial, second);
}

TEST_F(IncrementalTest, GenerationTogglesHoldForBaseAndBatches) {
  // A disabled extractor stays off in the base build and in every batch,
  // as it does in CnProbaseBuilder::Build.
  core::CnProbaseBuilder::Config config = Config();
  config.enable_abstract = false;
  config.enable_verification = false;
  const auto tag_edges = [](const core::IncrementalUpdater& updater) {
    return updater.taxonomy().NumEdgesFromSource(taxonomy::Source::kTag);
  };
  {
    core::IncrementalUpdater updater(*base_, &world_->lexicon(),
                                     *corpus_words_, config);
    EXPECT_EQ(updater.base_report().neural_stats.num_samples, 0u);
    EXPECT_EQ(updater.base_report().abstract_candidates, 0u);
    const size_t base_tag_edges = tag_edges(updater);
    EXPECT_GT(base_tag_edges, 0u);
    updater.ApplyBatch(*batch2_);
    EXPECT_EQ(
        updater.taxonomy().NumEdgesFromSource(taxonomy::Source::kAbstract),
        0u);
    // The batch's pages are tagged: with tags on they add tag edges.
    EXPECT_GT(tag_edges(updater), base_tag_edges);
  }
  config.enable_tag = false;
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   config);
  EXPECT_EQ(updater.base_report().tag_candidates, 0u);
  updater.ApplyBatch(*batch2_);
  EXPECT_EQ(tag_edges(updater), 0u);
}

TEST_F(IncrementalTest, ComparableToFullRebuild) {
  core::IncrementalUpdater updater(*base_, &world_->lexicon(), *corpus_words_,
                                   Config());
  updater.ApplyBatch(*batch1_);
  updater.ApplyBatch(*batch2_);

  core::CnProbaseBuilder::Report full_report;
  const auto full = core::CnProbaseBuilder::Build(
      output_->dump, world_->lexicon(), *corpus_words_, Config(),
      &full_report);

  // The incremental result covers a comparable number of relations (within
  // 15%) at comparable precision (within 2 points).
  const double ratio = static_cast<double>(updater.taxonomy().num_edges()) /
                       static_cast<double>(full.num_edges());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
  const double incremental_precision =
      eval::ExactPrecision(updater.taxonomy(), Oracle()).precision();
  const double full_precision =
      eval::ExactPrecision(full, Oracle()).precision();
  EXPECT_NEAR(incremental_precision, full_precision, 0.02);
}

}  // namespace
}  // namespace cnpb
