// Differential test of IncrementalUpdater's in-place write path against the
// full-rebuild algorithm it replaced: every batch re-pools the whole
// taxonomy as name strings, re-verifies it with the fresh candidates,
// re-materialises it from scratch and rebuilds the mention index over the
// whole dump. The reference below runs that algorithm on the same fresh
// candidates (through a test peer) and the same verification pipeline, and
// after every batch the two must agree on every name-level fact: nodes and
// kinds, edges with source and score, each hyponym's hypernym row order,
// the batch report, the mention index, and the served answers.
//
// After every batch the published view — layered over the last fold, or a
// fold — and the view a layered publish would serve at any delta size must
// also read exactly like a one-shot ServingView::Encode of the updater's
// taxonomy and mention index: every node, every row in order, every
// mention, every served answer, and the bytes WriteSnapshot writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/incremental.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "synth/world_data.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/atomic_file.h"

namespace cnpb::core {

class IncrementalUpdaterTestPeer {
 public:
  // The batch's fresh candidates, extracted again from the pages it added.
  static generation::CandidateList Fresh(IncrementalUpdater& updater,
                                         size_t first_page) {
    return updater.generator_.Extract(updater.dump_, first_page);
  }
  static verification::VerificationPipeline* Pipeline(
      IncrementalUpdater& updater) {
    return updater.pipeline_.get();
  }
  static const taxonomy::MentionIndex& Mentions(
      const IncrementalUpdater& updater) {
    return updater.mentions_;
  }
  // The view a layered publish would serve now, whatever the delta's size;
  // null when the next publish must fold.
  static std::shared_ptr<const taxonomy::ServingView> Layered(
      const IncrementalUpdater& updater) {
    if (updater.base_ == nullptr) return nullptr;
    return taxonomy::ServingView::EncodeLayered(
        updater.base_, updater.taxonomy_, updater.mentions_,
        updater.PendingChanges(), SIZE_MAX);
  }
};

namespace {

using Report = IncrementalUpdater::BatchReport;

std::string PairKey(const std::string& hypo, const std::string& hyper) {
  return hypo + '\x01' + hyper;
}

// The full-rebuild write path, as the updater ran it before batches were
// applied in place.
Report RebuildApply(const generation::CandidateList& fresh,
                    verification::VerificationPipeline* pipeline,
                    taxonomy::Taxonomy* taxonomy) {
  Report report;
  report.candidates = fresh.size();
  generation::CandidateList pool;
  std::unordered_set<std::string> existing;
  taxonomy->ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    generation::Candidate candidate;
    candidate.hypo = taxonomy->Name(edge.hypo);
    candidate.hyper = taxonomy->Name(edge.hyper);
    candidate.source = edge.source;
    candidate.score = edge.score;
    existing.insert(PairKey(candidate.hypo, candidate.hyper));
    pool.push_back(std::move(candidate));
  });
  std::unordered_set<std::string> proposed;
  for (const generation::Candidate& candidate : fresh) {
    std::string key = PairKey(candidate.hypo, candidate.hyper);
    if (existing.count(key) > 0) continue;
    if (proposed.insert(std::move(key)).second) pool.push_back(candidate);
  }
  const generation::CandidateList verified =
      pipeline != nullptr ? pipeline->Verify(pool, nullptr) : pool;
  taxonomy::Taxonomy next = CnProbaseBuilder::Materialise(verified);
  std::unordered_set<std::string> after;
  next.ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    after.insert(PairKey(next.Name(edge.hypo), next.Name(edge.hyper)));
  });
  for (const std::string& key : proposed) {
    ++(after.count(key) > 0 ? report.accepted : report.rejected);
  }
  for (const std::string& key : existing) {
    if (after.count(key) == 0) ++report.revoked;
  }
  *taxonomy = std::move(next);
  return report;
}

using Row = std::vector<std::tuple<std::string, int, float>>;

// name -> kind, and hyponym name -> its hypernym row in row order.
std::map<std::string, int> Nodes(const taxonomy::Taxonomy& taxonomy) {
  std::map<std::string, int> out;
  for (taxonomy::NodeId id = 0; id < taxonomy.num_nodes(); ++id) {
    out.emplace(taxonomy.Name(id), static_cast<int>(taxonomy.Kind(id)));
  }
  return out;
}

std::map<std::string, Row> Rows(const taxonomy::Taxonomy& taxonomy) {
  std::map<std::string, Row> out;
  for (taxonomy::NodeId id = 0; id < taxonomy.num_nodes(); ++id) {
    Row& row = out[taxonomy.Name(id)];
    for (const taxonomy::IsaEdge& edge : taxonomy.Hypernyms(id)) {
      row.emplace_back(taxonomy.Name(edge.hyper),
                       static_cast<int>(edge.source), edge.score);
    }
  }
  return out;
}

std::map<std::string, std::vector<std::string>> MentionNames(
    const taxonomy::MentionIndex& index, const taxonomy::Taxonomy& taxonomy) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& [mention, ids] : index) {
    std::vector<std::string>& names = out[mention];
    for (const taxonomy::NodeId id : ids) names.push_back(taxonomy.Name(id));
  }
  return out;
}

// Asserts the two services answer men2ent and getConcept (direct and
// transitive) identically, and getEntity with the same set of names.
// men2ent's entity ids are left out: they are node ids, which the in-place
// path appends and a rebuild reassigns; names, order and hypernym counts
// must match.
void ExpectSameAnswers(const taxonomy::ApiService& got,
                       const taxonomy::ApiService& want,
                       const std::set<std::string>& names,
                       const std::set<std::string>& mentions) {
  for (const std::string& mention : mentions) {
    const auto a = got.TryMen2EntResolved(mention);
    const auto b = want.TryMen2EntResolved(mention);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->entities.size(), b->entities.size()) << mention;
    for (size_t i = 0; i < a->entities.size(); ++i) {
      EXPECT_EQ(a->entities[i].name, b->entities[i].name) << mention;
      EXPECT_EQ(a->entities[i].num_hypernyms, b->entities[i].num_hypernyms);
    }
  }
  for (const std::string& name : names) {
    for (const bool transitive : {false, true}) {
      const auto a = got.TryGetConceptResolved(name, transitive);
      const auto b = want.TryGetConceptResolved(name, transitive);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->names, b->names) << name << " transitive=" << transitive;
    }
    const auto a = got.TryGetEntityResolved(name, SIZE_MAX);
    const auto b = want.TryGetEntityResolved(name, SIZE_MAX);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(std::multiset<std::string>(a->names.begin(), a->names.end()),
              std::multiset<std::string>(b->names.begin(), b->names.end()))
        << name;
  }
}

using ViewRow = std::vector<std::tuple<taxonomy::NodeId, int, float>>;

template <typename Visit>
ViewRow CollectRow(const Visit& visit) {
  ViewRow row;
  visit([&](const taxonomy::HalfEdge& edge) {
    row.emplace_back(edge.node, static_cast<int>(edge.source), edge.score);
    return true;
  });
  return row;
}

std::vector<std::pair<std::string, std::vector<taxonomy::NodeId>>>
VisitedMentions(const taxonomy::ServingView& view) {
  std::vector<std::pair<std::string, std::vector<taxonomy::NodeId>>> out;
  view.VisitMentions([&](std::string_view mention,
                         const taxonomy::NodeId* ids, size_t num_ids) {
    out.emplace_back(std::string(mention),
                     std::vector<taxonomy::NodeId>(ids, ids + num_ids));
    return true;
  });
  return out;
}

// Parallel test processes share the temp dir: the path carries the pid.
std::string WrittenBytes(const taxonomy::ServingView& view) {
  const std::string path = ::testing::TempDir() + "/layered." +
                           std::to_string(getpid()) + ".snap";
  EXPECT_TRUE(taxonomy::WriteSnapshot(view, path).ok());
  auto bytes = util::ReadFileToString(path);
  std::remove(path.c_str());
  return bytes.ok() ? *bytes : std::string();
}

// Asserts `got` reads exactly like `want`, a one-shot Encode of `live` and
// its mention index: node by node, row by row in order, mention by mention
// in visiting order, every served answer with ids and order, and the bytes
// WriteSnapshot writes.
void ExpectSameView(const std::shared_ptr<const taxonomy::ServingView>& got,
                    const std::shared_ptr<const taxonomy::ServingView>& want,
                    const taxonomy::Taxonomy& live) {
  ASSERT_EQ(got->num_nodes(), want->num_nodes());
  EXPECT_EQ(got->num_edges(), want->num_edges());
  EXPECT_EQ(got->num_mentions(), want->num_mentions());
  for (taxonomy::NodeId id = 0; id < want->num_nodes(); ++id) {
    const std::string_view name = want->Name(id);
    EXPECT_EQ(got->Name(id), name);
    EXPECT_EQ(got->Find(name), id);
    EXPECT_EQ(got->Kind(id), want->Kind(id)) << name;
    EXPECT_EQ(got->NumHypernyms(id), want->NumHypernyms(id)) << name;
    EXPECT_EQ(got->NumHyponyms(id), want->NumHyponyms(id)) << name;
    EXPECT_EQ(CollectRow([&](auto fn) { got->VisitHypernyms(id, fn); }),
              CollectRow([&](auto fn) { want->VisitHypernyms(id, fn); }))
        << name;
    EXPECT_EQ(CollectRow([&](auto fn) { got->VisitHyponyms(id, fn); }),
              CollectRow([&](auto fn) { want->VisitHyponyms(id, fn); }))
        << name;
    EXPECT_EQ(got->TransitiveHypernyms(id), live.TransitiveHypernyms(id))
        << name;
  }
  EXPECT_EQ(got->Find("no-such-node"), taxonomy::kInvalidNode);
  const auto mentions = VisitedMentions(*want);
  EXPECT_EQ(VisitedMentions(*got), mentions);
  for (const auto& [mention, ids] : mentions) {
    const std::span<const taxonomy::NodeId> candidates =
        got->MentionCandidates(mention);
    EXPECT_EQ(std::vector<taxonomy::NodeId>(candidates.begin(),
                                            candidates.end()),
              ids)
        << mention;
  }
  EXPECT_TRUE(got->MentionCandidates("no-such-mention").empty());

  const taxonomy::ApiService got_api(got);
  const taxonomy::ApiService want_api(want);
  for (const auto& [mention, ids] : mentions) {
    const auto a = got_api.TryMen2EntResolved(mention);
    const auto b = want_api.TryMen2EntResolved(mention);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->entities.size(), b->entities.size()) << mention;
    for (size_t i = 0; i < a->entities.size(); ++i) {
      EXPECT_EQ(a->entities[i].id, b->entities[i].id) << mention;
      EXPECT_EQ(a->entities[i].name, b->entities[i].name) << mention;
      EXPECT_EQ(a->entities[i].num_hypernyms, b->entities[i].num_hypernyms);
    }
  }
  for (taxonomy::NodeId id = 0; id < want->num_nodes(); ++id) {
    const std::string name(want->Name(id));
    for (const bool transitive : {false, true}) {
      const auto a = got_api.TryGetConceptResolved(name, transitive);
      const auto b = want_api.TryGetConceptResolved(name, transitive);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->names, b->names) << name << " transitive=" << transitive;
    }
    const auto a = got_api.TryGetEntityResolved(name, SIZE_MAX);
    const auto b = want_api.TryGetEntityResolved(name, SIZE_MAX);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->names, b->names) << name;
  }

  EXPECT_TRUE(got->bytes() == want->bytes());
  EXPECT_TRUE(WrittenBytes(*got) == want->bytes());
}

struct Batch {
  std::vector<kb::EncyclopediaPage> pages;
  std::vector<std::vector<std::string>> corpus;
};

struct Outcome {
  uint64_t rebuilds = 0;
  uint64_t folds = 0;
  size_t publishes = 0;
};

// Applies `batches` to a fresh updater and to the rebuild reference,
// comparing after every batch.
Outcome RunDifferential(const kb::EncyclopediaDump& base,
                         const text::Lexicon* lexicon,
                         const std::vector<std::vector<std::string>>& corpus,
                         const CnProbaseBuilder::Config& config,
                         const std::vector<Batch>& batches) {
  IncrementalUpdater updater(base, lexicon, corpus, config);
  taxonomy::Taxonomy reference = updater.taxonomy().Clone();
  taxonomy::ApiService served(updater.snapshot());
  // The base build's publish folds; batch 0 layers over it.
  updater.Publish(&served);
  EXPECT_EQ(updater.folds(), 1u);
  ExpectSameView(served.CurrentView(),
                 taxonomy::ServingView::Encode(
                     updater.taxonomy(),
                     IncrementalUpdaterTestPeer::Mentions(updater)),
                 updater.taxonomy());
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const size_t first_page = updater.dump().size();
    const Report got = updater.ApplyBatch(batches[b].pages, batches[b].corpus);
    Report want;
    if (got.pages_added > 0) {
      want = RebuildApply(
          IncrementalUpdaterTestPeer::Fresh(updater, first_page),
          IncrementalUpdaterTestPeer::Pipeline(updater), &reference);
    }
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.revoked, want.revoked);

    const taxonomy::Taxonomy& live = updater.taxonomy();
    EXPECT_EQ(Nodes(live), Nodes(reference));
    EXPECT_EQ(Rows(live), Rows(reference));
    EXPECT_EQ(live.num_edges(), reference.num_edges());
    for (int s = 0; s < taxonomy::kNumSources; ++s) {
      const auto source = static_cast<taxonomy::Source>(s);
      EXPECT_EQ(live.NumEdgesFromSource(source),
                reference.NumEdgesFromSource(source));
    }
    const taxonomy::MentionIndex& mentions =
        IncrementalUpdaterTestPeer::Mentions(updater);
    const taxonomy::MentionIndex want_mentions =
        CnProbaseBuilder::BuildMentionIndex(updater.dump(), reference);
    EXPECT_EQ(MentionNames(mentions, live),
              MentionNames(want_mentions, reference));
    // The persistent index is the one a full build would make for the
    // working taxonomy, ids included.
    EXPECT_EQ(mentions,
              CnProbaseBuilder::BuildMentionIndex(updater.dump(), live));

    // Before Publish, which may fold: the layered view over the last fold.
    const auto layered = IncrementalUpdaterTestPeer::Layered(updater);
    const auto folded = taxonomy::ServingView::Encode(live, mentions);
    if (layered != nullptr) {
      SCOPED_TRACE("layered over the last fold");
      EXPECT_TRUE(layered->layered());
      ExpectSameView(layered, folded, live);
    }
    const uint64_t folds_before = updater.folds();
    updater.Publish(&served);
    {
      SCOPED_TRACE("published");
      const auto published = served.CurrentView();
      // Only the first publish and the first after a rebuild must fold.
      if (layered == nullptr) {
        EXPECT_EQ(updater.folds(), folds_before + 1);
      }
      EXPECT_EQ(published->layered(), updater.folds() == folds_before);
      ExpectSameView(published, folded, live);
    }
    const taxonomy::ApiService rebuilt(
        taxonomy::Taxonomy::Freeze(reference.Clone()), want_mentions);
    std::set<std::string> names;
    for (const auto& [name, kind] : Nodes(reference)) names.insert(name);
    names.insert("no-such-node");
    std::set<std::string> surfaces = {"no-such-mention"};
    for (const auto& [mention, ids] : want_mentions) surfaces.insert(mention);
    ExpectSameAnswers(served, rebuilt, names, surfaces);
  }
  EXPECT_LE(updater.max_layer_share(), IncrementalUpdater::kFoldFraction);
  return {updater.rebuilds(), updater.folds(), batches.size() + 1};
}

kb::EncyclopediaPage Page(const std::string& name,
                          std::vector<std::string> tags,
                          std::vector<std::string> aliases = {}) {
  kb::EncyclopediaPage page;
  page.name = name;
  page.mention = name + "_m";
  page.tags = std::move(tags);
  page.aliases = std::move(aliases);
  return page;
}

// A hand-made tag-only world hitting each edge case of the in-place path.
class ControlledWorld : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      base_.AddPage(Page("e" + std::to_string(i), {"goodconcept"}));
    }
    // Not a node yet; its mention is shared with a later page that is.
    kb::EncyclopediaPage old_page = Page("oldpage", {}, {"old_alias"});
    old_page.mention = "shared";
    base_.AddPage(std::move(old_page));
    base_.AddPage(Page("promo", {"goodconcept"}));
    // Tag equal to the page's own name: a self-loop candidate.
    base_.AddPage(Page("loopy", {"loopy", "goodconcept"}));
    kb::EncyclopediaPage later = Page("later", {"goodconcept"});
    later.mention = "shared";
    base_.AddPage(std::move(later));
  }

  CnProbaseBuilder::Config Config() const {
    CnProbaseBuilder::Config config;
    config.neural.epochs = 1;
    config.enable_verification = GetParam();
    config.verification.use_syntax = false;
    config.verification.use_incompatible = false;  // isolate NER
    return config;
  }

  text::Lexicon lexicon_;
  kb::EncyclopediaDump base_;
};

TEST_P(ControlledWorld, MatchesFullRebuildBatchByBatch) {
  std::vector<Batch> batches(5);
  // A new hypernym naming an old page (inserted ahead of "later" under
  // "shared"), an entity promoted to concept, and a fresh self-loop.
  batches[0].pages = {Page("x1", {"oldpage", "promo"}),
                      Page("x2", {"goodconcept", "x2"}, {"shared"})};
  // Hypernym of a hyponym created earlier in the same batch.
  batches[1].pages = {Page("y", {"anotherconcept"}), Page("z", {"y"})};
  // Only already-known pages: a no-op.
  batches[2].pages = {Page("e0", {"goodconcept"})};
  // With verification on, the corpus turns "goodconcept" into a named
  // entity: every edge under it is revoked and the batch rebuilds.
  batches[3].pages = {Page("e_new", {"goodconcept"})};
  batches[3].corpus = {{"位于", "goodconcept"}};
  // Appending again after that rebuild.
  batches[4].pages = {Page("w", {"y", "oldpage"}), Page("v", {"w"})};
  const Outcome outcome =
      RunDifferential(base_, &lexicon_, {}, Config(), batches);
  EXPECT_EQ(outcome.rebuilds, GetParam() ? 1u : 0u);
  // The first publish and, with verification on, the revoking batch fold.
  EXPECT_GE(outcome.folds, 1u + outcome.rebuilds);
}

INSTANTIATE_TEST_SUITE_P(Verification, ControlledWorld, ::testing::Bool());

synth::WorldModel::Config WorldConfig(uint64_t seed) {
  synth::WorldModel::Config world_config;
  world_config.num_entities = 500;
  world_config.seed = seed;
  world_config.ambiguity_rate = 0.2;  // many shared mentions
  return world_config;
}

// A synthetic encyclopedia world: base = first 70% of pages, the rest in
// four interleaved batches.
struct SynthData {
  SynthData(uint64_t seed, bool verify)
      : world(synth::WorldModel::Generate(WorldConfig(seed))), batches(4) {
    synth::EncyclopediaGenerator::Config dump_config;
    dump_config.seed = seed + 100;
    const auto output =
        synth::EncyclopediaGenerator::Generate(world, dump_config);
    // Verification on or off, construction sees the corpus: it seeds the
    // n-gram table the bracket separation's PMI evidence comes from.
    text::Segmenter segmenter(&world.lexicon());
    for (const auto& sentence : synth::CorpusGenerator::Generate(
                                    world, output.dump, segmenter, {})
                                    .sentences) {
      std::vector<std::string> words;
      for (const auto& token : sentence) words.push_back(token.word);
      corpus.push_back(std::move(words));
    }
    const size_t n = output.dump.size();
    for (size_t i = 0; i < n; ++i) {
      kb::EncyclopediaPage page = output.dump.page(i);
      page.page_id = 0;
      if (i < n * 7 / 10) {
        base.AddPage(std::move(page));
      } else {
        batches[i % batches.size()].pages.push_back(std::move(page));
      }
    }
    config.neural.epochs = 1;
    config.neural.max_train_samples = 300;
    config.enable_verification = verify;
    for (const char* word : synth::ThematicWords()) {
      config.verification.syntax.thematic_lexicon.emplace_back(word);
    }
  }

  const synth::WorldModel world;
  kb::EncyclopediaDump base;
  std::vector<Batch> batches;
  std::vector<std::vector<std::string>> corpus;
  CnProbaseBuilder::Config config;
};

// Synthetic encyclopedia worlds: seeds x verification on/off.
class SynthWorld
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(SynthWorld, MatchesFullRebuildBatchByBatch) {
  const auto [seed, verify] = GetParam();
  const SynthData data(seed, verify);
  const Outcome outcome = RunDifferential(
      data.base, &data.world.lexicon(), data.corpus, data.config,
      data.batches);
  if (!verify) {
    EXPECT_EQ(outcome.rebuilds, 0u);
    // Each batch adds ~11% of the base's pages: some publishes layer.
    EXPECT_LT(outcome.folds, outcome.publishes);
  }
}

// The updater's base build is the batch build: the same published bytes
// and the same candidate counts, verification on and off.
class BaseBuild : public ::testing::TestWithParam<bool> {};

TEST_P(BaseBuild, EqualsBatchBuild) {
  const SynthData data(1, GetParam());
  const IncrementalUpdater updater(data.base, &data.world.lexicon(),
                                   data.corpus, data.config);
  CnProbaseBuilder::Report want;
  const taxonomy::Taxonomy built = CnProbaseBuilder::Build(
      data.base, data.world.lexicon(), data.corpus, data.config, &want);
  ASSERT_GT(built.num_edges(), 0u);
  const auto got_view = taxonomy::ServingView::Encode(
      updater.taxonomy(), IncrementalUpdaterTestPeer::Mentions(updater));
  const auto want_view = taxonomy::ServingView::Encode(
      built, CnProbaseBuilder::BuildMentionIndex(data.base, built));
  EXPECT_TRUE(got_view->bytes() == want_view->bytes());

  const CnProbaseBuilder::Report& got = updater.base_report();
  EXPECT_EQ(got.bracket_candidates, want.bracket_candidates);
  EXPECT_EQ(got.abstract_candidates, want.abstract_candidates);
  EXPECT_EQ(got.infobox_candidates, want.infobox_candidates);
  EXPECT_EQ(got.tag_candidates, want.tag_candidates);
  EXPECT_EQ(got.merged_candidates, want.merged_candidates);
  EXPECT_GT(want.abstract_candidates, 0u);
  EXPECT_EQ(got.neural_stats.num_samples, want.neural_stats.num_samples);
  EXPECT_EQ(got.discovery.selected, want.discovery.selected);
}

INSTANTIATE_TEST_SUITE_P(Verification, BaseBuild, ::testing::Bool());

INSTANTIATE_TEST_SUITE_P(
    SeedsAndVerification, SynthWorld,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Bool()));

}  // namespace
}  // namespace cnpb::core
