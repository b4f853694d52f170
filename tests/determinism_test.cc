// Determinism guarantees: the whole pipeline — world synthesis, extraction,
// neural training, verification — is a pure function of its seeds, and of
// its seeds ONLY: the sharded build must serialize byte-identically for
// every CNPB_THREADS value.
#include <gtest/gtest.h>

#include <sstream>

#include "core/builder.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/parallel.h"

namespace cnpb {
namespace {

// Serialises a taxonomy's full edge set into a canonical string.
std::string Fingerprint(const taxonomy::Taxonomy& taxonomy) {
  std::ostringstream out;
  taxonomy.ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    out << taxonomy.Name(edge.hypo) << '\t' << taxonomy.Name(edge.hyper)
        << '\t' << static_cast<int>(edge.source) << '\n';
  });
  return out.str();
}

// Builds the taxonomy for `seed`; `dump` (when non-null) receives the
// encyclopedia dump it was built from.
taxonomy::Taxonomy BuildTaxonomy(uint64_t seed,
                                 kb::EncyclopediaDump* dump = nullptr) {
  synth::WorldModel::Config wc;
  wc.num_entities = 1000;
  wc.seed = seed;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  synth::EncyclopediaGenerator::Config gc;
  gc.seed = seed + 1;
  auto output = synth::EncyclopediaGenerator::Generate(world, gc);
  text::Segmenter segmenter(&world.lexicon());
  synth::CorpusGenerator::Config cc;
  cc.seed = seed + 2;
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, cc);
  std::vector<std::vector<std::string>> corpus_words;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.neural.max_train_samples = 300;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  core::CnProbaseBuilder::Report report;
  taxonomy::Taxonomy taxonomy = core::CnProbaseBuilder::Build(
      output.dump, world.lexicon(), corpus_words, config, &report);
  if (dump != nullptr) *dump = std::move(output.dump);
  return taxonomy;
}

std::string BuildFingerprint(uint64_t seed) {
  return Fingerprint(BuildTaxonomy(seed));
}

// The CNPBSNP bytes (taxonomy + mention index, exact float bits included)
// of a build at `threads` threads — what a snapshot file would hold.
std::string EncodedBytesAt(int threads, uint64_t seed) {
  util::ScopedThreadsOverride override_threads(threads);
  kb::EncyclopediaDump dump;
  const taxonomy::Taxonomy taxonomy = BuildTaxonomy(seed, &dump);
  return std::string(
      taxonomy::ServingView::Encode(
          taxonomy, core::CnProbaseBuilder::BuildMentionIndex(dump, taxonomy))
          ->bytes());
}

TEST(DeterminismTest, SameSeedSameTaxonomy) {
  EXPECT_EQ(BuildFingerprint(7), BuildFingerprint(7));
}

TEST(DeterminismTest, DifferentSeedDifferentTaxonomy) {
  EXPECT_NE(BuildFingerprint(7), BuildFingerprint(8));
}

TEST(DeterminismTest, ByteIdenticalAcrossThreadCounts) {
  // The sharded pipeline's contract: shard partitioning is a pure function
  // of the page count and every merge is order-stable, so the serialized
  // taxonomy must not depend on CNPB_THREADS at all.
  const std::string at_one = EncodedBytesAt(1, 7);
  ASSERT_FALSE(at_one.empty());
  EXPECT_EQ(at_one, EncodedBytesAt(3, 7));
  EXPECT_EQ(at_one, EncodedBytesAt(8, 7));
}

TEST(DeterminismTest, WorldGenerationIsPure) {
  synth::WorldModel::Config wc;
  wc.num_entities = 500;
  wc.seed = 99;
  const auto a = synth::WorldModel::Generate(wc);
  const auto b = synth::WorldModel::Generate(wc);
  ASSERT_EQ(a.entities().size(), b.entities().size());
  for (size_t i = 0; i < a.entities().size(); ++i) {
    EXPECT_EQ(a.entities()[i].mention, b.entities()[i].mention);
    EXPECT_EQ(a.entities()[i].attributes, b.entities()[i].attributes);
  }
  EXPECT_EQ(a.lexicon().size(), b.lexicon().size());
}

}  // namespace
}  // namespace cnpb
