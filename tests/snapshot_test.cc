// Snapshot format round trips (DESIGN.md §10): write -> load -> write is
// byte-identical, serialization is invariant under CNPB_THREADS, and a
// snapshot-backed ApiService answers every query identically to the
// TSV-backed service it was written from — over every mention and every
// node, not a sample.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "taxonomy/serialize.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "text/segmenter.h"
#include "util/atomic_file.h"
#include "util/parallel.h"
#include "util/snapshot.h"

namespace cnpb {
namespace {

struct BuiltWorld {
  kb::EncyclopediaDump dump;
  taxonomy::Taxonomy taxonomy;
};

BuiltWorld BuildWorld(uint64_t seed = 7, size_t entities = 400) {
  synth::WorldModel::Config wc;
  wc.num_entities = entities;
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
  core::CnProbaseBuilder::Report report;
  taxonomy::Taxonomy taxonomy = core::CnProbaseBuilder::Build(
      output.dump, world.lexicon(), corpus_words, config, &report);
  return BuiltWorld{std::move(output.dump), std::move(taxonomy)};
}

// The built world is immutable and expensive; share one across tests.
const BuiltWorld& SharedWorld() {
  static const BuiltWorld* world = new BuiltWorld(BuildWorld());
  return *world;
}

// Borrows the world's taxonomy (it outlives every test) and pairs it with a
// freshly built mention index.
std::shared_ptr<const taxonomy::HeapServingView> HeapViewOf(
    const BuiltWorld& world) {
  return std::make_shared<taxonomy::HeapServingView>(
      util::UnownedSnapshot(&world.taxonomy),
      core::CnProbaseBuilder::BuildMentionIndex(world.dump, world.taxonomy));
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, WriteLoadRewriteIsByteIdentical) {
  const BuiltWorld& world = SharedWorld();
  const auto view = HeapViewOf(world);
  const std::string bytes = taxonomy::SerializeSnapshot(*view);
  ASSERT_GT(bytes.size(), taxonomy::SnapshotPreludeSize());

  const std::string path = TempPath("snapshot_roundtrip.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());

  // WriteSnapshot puts exactly the serialized image on disk — no footer, no
  // framing — which is what makes the mmap load zero-copy.
  auto on_disk = util::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, bytes);

  auto snap = taxonomy::Snapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_nodes(), view->num_nodes());
  EXPECT_EQ((*snap)->num_edges(), view->num_edges());
  EXPECT_EQ((*snap)->num_mentions(), view->num_mentions());
  EXPECT_EQ((*snap)->file_bytes(), bytes.size());

  // Re-serializing the loaded snapshot reproduces the file byte for byte:
  // the format is a fixed point of write -> load -> write.
  EXPECT_EQ(taxonomy::SerializeSnapshot(**snap), bytes);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SerializationInvariantUnderThreadCount) {
  std::string reference;
  for (const int threads : {1, 3, 8}) {
    util::ScopedThreadsOverride override_threads(threads);
    const BuiltWorld world = BuildWorld(/*seed=*/21, /*entities=*/200);
    const auto view = HeapViewOf(world);
    const std::string bytes = taxonomy::SerializeSnapshot(*view);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "snapshot bytes differ at CNPB_THREADS=" << threads;
    }
  }
}

TEST(SnapshotTest, LoadedSnapshotValidatesUnderEveryThreadCount) {
  // The loader's parallel validation must accept the same file and answer
  // identically at any thread count.
  const BuiltWorld& world = SharedWorld();
  const auto view = HeapViewOf(world);
  const std::string path = TempPath("snapshot_threads.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());
  const std::string bytes = taxonomy::SerializeSnapshot(*view);
  for (const int threads : {1, 3, 8}) {
    util::ScopedThreadsOverride override_threads(threads);
    auto snap = taxonomy::Snapshot::Load(path);
    ASSERT_TRUE(snap.ok()) << "threads=" << threads << ": "
                           << snap.status().ToString();
    EXPECT_EQ(taxonomy::SerializeSnapshot(**snap), bytes);
  }
  std::remove(path.c_str());
}

// Compares the two backends over the full query surface. `tsv` serves a
// taxonomy that went through TSV save/load; `snap` serves the mmap file.
void ExpectServicesAnswerIdentically(const taxonomy::ApiService& tsv,
                                     const taxonomy::ApiService& snap,
                                     const taxonomy::ServingView& view) {
  // Every mention: men2ent ids and resolved names.
  view.VisitMentions([&](std::string_view mention, const taxonomy::NodeId*,
                         size_t) -> bool {
    const std::string m(mention);
    SCOPED_TRACE("men2ent(" + m + ")");
    auto tsv_resolved = tsv.TryMen2EntResolved(m);
    auto snap_resolved = snap.TryMen2EntResolved(m);
    EXPECT_TRUE(tsv_resolved.ok());
    EXPECT_TRUE(snap_resolved.ok());
    if (!tsv_resolved.ok() || !snap_resolved.ok()) return true;
    EXPECT_EQ(tsv_resolved->entities.size(), snap_resolved->entities.size());
    const size_t n = std::min(tsv_resolved->entities.size(),
                              snap_resolved->entities.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(tsv_resolved->entities[i].id, snap_resolved->entities[i].id);
      EXPECT_EQ(tsv_resolved->entities[i].name,
                snap_resolved->entities[i].name);
      EXPECT_EQ(tsv_resolved->entities[i].num_hypernyms,
                snap_resolved->entities[i].num_hypernyms);
    }
    return true;
  });
  // Every node name: getConcept (direct and transitive) and getEntity.
  for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
    const std::string name(view.Name(id));
    EXPECT_EQ(tsv.TryGetConceptResolved(name)->names,
              snap.TryGetConceptResolved(name)->names)
        << "getConcept(" << name << ")";
    EXPECT_EQ(tsv.TryGetConceptResolved(name, /*transitive=*/true)->names,
              snap.TryGetConceptResolved(name, /*transitive=*/true)->names)
        << "getConcept+transitive(" << name << ")";
    EXPECT_EQ(tsv.TryGetEntityResolved(name, 50)->names,
              snap.TryGetEntityResolved(name, 50)->names)
        << "getEntity(" << name << ")";
  }
}

TEST(SnapshotTest, SnapshotBackedServiceAnswersIdenticallyToTsvBacked) {
  const BuiltWorld& world = SharedWorld();

  // TSV-backed side: save + reload through the durable text format, exactly
  // the pre-snapshot serving path.
  const std::string tsv_path = TempPath("snapshot_equiv.tsv");
  ASSERT_TRUE(taxonomy::SaveTaxonomy(world.taxonomy, tsv_path).ok());
  auto reloaded = taxonomy::LoadTaxonomy(tsv_path);
  ASSERT_TRUE(reloaded.ok());
  auto frozen = taxonomy::Taxonomy::Freeze(std::move(*reloaded));
  auto tsv_view = std::make_shared<taxonomy::HeapServingView>(
      frozen, core::CnProbaseBuilder::BuildMentionIndex(world.dump, *frozen));
  taxonomy::ApiService tsv_service(tsv_view);

  // Snapshot-backed side: written from the same build, served via mmap.
  const std::string snap_path = TempPath("snapshot_equiv.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*tsv_view, snap_path).ok());
  auto snap = taxonomy::Snapshot::Load(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  taxonomy::ApiService snap_service{
      std::shared_ptr<const taxonomy::ServingView>(*snap)};

  ASSERT_EQ(tsv_view->num_mentions(), (*snap)->num_mentions());
  ExpectServicesAnswerIdentically(tsv_service, snap_service, *tsv_view);

  std::remove(tsv_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, MaterializeTaxonomyMatchesTsvSave) {
  const BuiltWorld& world = SharedWorld();
  const auto view = HeapViewOf(world);
  const std::string snap_path = TempPath("snapshot_materialize.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, snap_path).ok());
  auto snap = taxonomy::Snapshot::Load(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Materializing the snapshot and saving as TSV must produce the same
  // bytes as saving the original taxonomy: the compatibility path back to
  // the durable format loses nothing.
  auto materialized = taxonomy::MaterializeTaxonomy(**snap);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  const std::string a = TempPath("snapshot_materialized.tsv");
  const std::string b = TempPath("snapshot_original.tsv");
  ASSERT_TRUE(taxonomy::SaveTaxonomy(*materialized, a).ok());
  ASSERT_TRUE(taxonomy::SaveTaxonomy(world.taxonomy, b).ok());
  auto bytes_a = util::ReadFileToString(a);
  auto bytes_b = util::ReadFileToString(b);
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());
  EXPECT_EQ(*bytes_a, *bytes_b);
  std::remove(snap_path.c_str());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotTest, EmptyTaxonomyRoundTrips) {
  taxonomy::Taxonomy empty;
  const std::string path = TempPath("snapshot_empty.snap");
  ASSERT_TRUE(
      taxonomy::WriteSnapshot(empty, taxonomy::MentionIndex(), path).ok());
  auto snap = taxonomy::Snapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_nodes(), 0u);
  EXPECT_EQ((*snap)->num_edges(), 0u);
  EXPECT_EQ((*snap)->num_mentions(), 0u);
  EXPECT_EQ((*snap)->Find("anything"), taxonomy::kInvalidNode);
  EXPECT_TRUE((*snap)->MentionCandidates("anything").empty());

  auto on_disk = util::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(taxonomy::SerializeSnapshot(**snap), *on_disk);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FindLocatesEveryNodeAndOnlyThem) {
  const BuiltWorld& world = SharedWorld();
  const auto view = HeapViewOf(world);
  const std::string path = TempPath("snapshot_find.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());
  auto snap = taxonomy::Snapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  for (taxonomy::NodeId id = 0; id < view->num_nodes(); ++id) {
    EXPECT_EQ((*snap)->Find(view->Name(id)), id);
    EXPECT_EQ((*snap)->Kind(id), view->Kind(id));
  }
  EXPECT_EQ((*snap)->Find("__definitely_not_a_node__"),
            taxonomy::kInvalidNode);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cnpb
