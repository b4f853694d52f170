// Snapshot format round trips (DESIGN.md §10): encode -> write -> load is
// byte-identical, encoding is invariant under CNPB_THREADS, the encoded
// view answers exactly what its source Taxonomy and MentionIndex say, and
// a version served from its written file answers every query identically
// to the published one — over every mention and every node, not a sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
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

taxonomy::MentionIndex MentionsOf(const BuiltWorld& world) {
  return core::CnProbaseBuilder::BuildMentionIndex(world.dump, world.taxonomy);
}

std::shared_ptr<const taxonomy::ServingView> EncodeWorld(
    const BuiltWorld& world) {
  return taxonomy::ServingView::Encode(world.taxonomy, MentionsOf(world));
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, WriteLoadRewriteIsByteIdentical) {
  const BuiltWorld& world = SharedWorld();
  const taxonomy::MentionIndex mentions = MentionsOf(world);
  const auto view = taxonomy::ServingView::Encode(world.taxonomy, mentions);
  const std::string bytes(view->bytes());
  ASSERT_GT(bytes.size(), taxonomy::SnapshotPreludeSize());

  const std::string path = TempPath("snapshot_roundtrip.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());

  // WriteSnapshot puts exactly the encoded image on disk — no footer, no
  // framing — which is what makes the mmap load zero-copy.
  auto on_disk = util::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, bytes);

  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_nodes(), view->num_nodes());
  EXPECT_EQ((*snap)->num_edges(), view->num_edges());
  EXPECT_EQ((*snap)->num_mentions(), view->num_mentions());
  EXPECT_EQ((*snap)->bytes(), bytes);

  // Re-encoding the loaded view's taxonomy reproduces the bytes: the format
  // is a fixed point of encode -> write -> load -> materialize -> encode.
  auto materialized = taxonomy::MaterializeTaxonomy(**snap);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(taxonomy::ServingView::Encode(*materialized, mentions)->bytes(),
            bytes);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SerializationInvariantUnderThreadCount) {
  std::string reference;
  for (const int threads : {1, 3, 8}) {
    util::ScopedThreadsOverride override_threads(threads);
    const BuiltWorld world = BuildWorld(/*seed=*/21, /*entities=*/200);
    const std::string bytes(EncodeWorld(world)->bytes());
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
  const auto view = EncodeWorld(world);
  const std::string path = TempPath("snapshot_threads.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());
  for (const int threads : {1, 3, 8}) {
    util::ScopedThreadsOverride override_threads(threads);
    auto snap = taxonomy::ServingView::Load(path);
    ASSERT_TRUE(snap.ok()) << "threads=" << threads << ": "
                           << snap.status().ToString();
    EXPECT_EQ((*snap)->bytes(), view->bytes());
  }
  std::remove(path.c_str());
}

// The encoder oracle: the served view answers exactly what its source
// Taxonomy and MentionIndex say, over every node, edge and mention.
TEST(SnapshotTest, EncodedViewMatchesItsSource) {
  const BuiltWorld& world = SharedWorld();
  const taxonomy::Taxonomy& t = world.taxonomy;
  taxonomy::MentionIndex mentions = MentionsOf(world);
  ASSERT_FALSE(mentions.empty());
  // Ids outside the taxonomy (an index built for another version) must be
  // dropped, keeping the order of the rest.
  const std::string stale_mention = mentions.begin()->first;
  mentions[stale_mention].insert(mentions[stale_mention].begin(),
                                 static_cast<taxonomy::NodeId>(
                                     t.num_nodes() + 3));
  mentions[stale_mention].push_back(taxonomy::kInvalidNode);
  mentions["__only_stale_ids__"] = {
      static_cast<taxonomy::NodeId>(t.num_nodes())};
  const auto view = taxonomy::ServingView::Encode(t, mentions);

  ASSERT_EQ(view->num_nodes(), t.num_nodes());
  ASSERT_EQ(view->num_edges(), t.num_edges());
  for (taxonomy::NodeId id = 0; id < t.num_nodes(); ++id) {
    SCOPED_TRACE("node " + t.Name(id));
    EXPECT_EQ(view->Name(id), t.Name(id));
    EXPECT_EQ(view->Kind(id), t.Kind(id));
    EXPECT_EQ(view->Find(t.Name(id)), id);
    std::vector<taxonomy::IsaEdge> hypers;
    view->VisitHypernyms(id, [&](const taxonomy::HalfEdge& edge) {
      hypers.push_back({id, edge.node, edge.source, edge.score});
      return true;
    });
    const auto& want = t.Hypernyms(id);
    ASSERT_EQ(hypers.size(), want.size());
    EXPECT_EQ(view->NumHypernyms(id), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(hypers[i].hyper, want[i].hyper);
      EXPECT_EQ(hypers[i].source, want[i].source);
      EXPECT_EQ(hypers[i].score, want[i].score);
    }
    // Canonical hyponym order is ascending hyponym id, whatever order the
    // builder inserted the edges in.
    std::vector<taxonomy::NodeId> hypos;
    view->VisitHyponyms(id, [&](const taxonomy::HalfEdge& edge) {
      hypos.push_back(edge.node);
      return true;
    });
    std::vector<taxonomy::NodeId> want_hypos;
    for (const auto& edge : t.Hyponyms(id)) want_hypos.push_back(edge.hypo);
    std::sort(want_hypos.begin(), want_hypos.end());
    EXPECT_EQ(hypos, want_hypos);
    EXPECT_EQ(view->TransitiveHypernyms(id), t.TransitiveHypernyms(id));
  }
  EXPECT_EQ(view->Find("__definitely_not_a_node__"), taxonomy::kInvalidNode);

  ASSERT_EQ(view->num_mentions(), mentions.size());
  std::string previous;
  size_t visited = 0;
  view->VisitMentions([&](std::string_view mention,
                          const taxonomy::NodeId* ids, size_t num_ids) {
    if (visited++ > 0) {
      EXPECT_LT(previous, mention);
    }
    previous = std::string(mention);
    const std::span<const taxonomy::NodeId> candidates =
        view->MentionCandidates(mention);
    EXPECT_EQ(candidates.data(), ids);
    EXPECT_EQ(candidates.size(), num_ids);
    return true;
  });
  EXPECT_EQ(visited, mentions.size());
  for (const auto& [mention, ids] : mentions) {
    std::vector<taxonomy::NodeId> want;
    for (const taxonomy::NodeId id : ids) {
      if (id < t.num_nodes()) want.push_back(id);
    }
    const std::span<const taxonomy::NodeId> got =
        view->MentionCandidates(mention);
    EXPECT_EQ(std::vector<taxonomy::NodeId>(got.begin(), got.end()), want)
        << "mention " << mention;
  }
  EXPECT_TRUE(view->MentionCandidates("__only_stale_ids__").empty());
  EXPECT_TRUE(view->MentionCandidates("__not_a_mention__").empty());
}

// Compares two services over the full query surface.
void ExpectServicesAnswerIdentically(const taxonomy::ApiService& a,
                                     const taxonomy::ApiService& b,
                                     const taxonomy::ServingView& view) {
  // Every mention: men2ent ids and resolved names.
  view.VisitMentions([&](std::string_view mention, const taxonomy::NodeId*,
                         size_t) -> bool {
    const std::string m(mention);
    SCOPED_TRACE("men2ent(" + m + ")");
    auto a_resolved = a.TryMen2EntResolved(m);
    auto b_resolved = b.TryMen2EntResolved(m);
    EXPECT_TRUE(a_resolved.ok());
    EXPECT_TRUE(b_resolved.ok());
    if (!a_resolved.ok() || !b_resolved.ok()) return true;
    EXPECT_EQ(a_resolved->entities.size(), b_resolved->entities.size());
    const size_t n =
        std::min(a_resolved->entities.size(), b_resolved->entities.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a_resolved->entities[i].id, b_resolved->entities[i].id);
      EXPECT_EQ(a_resolved->entities[i].name, b_resolved->entities[i].name);
      EXPECT_EQ(a_resolved->entities[i].num_hypernyms,
                b_resolved->entities[i].num_hypernyms);
    }
    return true;
  });
  // Every node name: getConcept (direct and transitive) and getEntity.
  for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
    const std::string name(view.Name(id));
    EXPECT_EQ(a.TryGetConceptResolved(name)->names,
              b.TryGetConceptResolved(name)->names)
        << "getConcept(" << name << ")";
    EXPECT_EQ(a.TryGetConceptResolved(name, /*transitive=*/true)->names,
              b.TryGetConceptResolved(name, /*transitive=*/true)->names)
        << "getConcept+transitive(" << name << ")";
    EXPECT_EQ(a.TryGetEntityResolved(name, 50)->names,
              b.TryGetEntityResolved(name, 50)->names)
        << "getEntity(" << name << ")";
  }
}

using Row = std::vector<std::tuple<taxonomy::NodeId, int, float>>;

Row HypernymRow(const taxonomy::ServingView& view, taxonomy::NodeId id) {
  Row row;
  view.VisitHypernyms(id, [&](const taxonomy::HalfEdge& edge) {
    row.emplace_back(edge.node, static_cast<int>(edge.source), edge.score);
    return true;
  });
  return row;
}

Row HyponymRow(const taxonomy::ServingView& view, taxonomy::NodeId id) {
  Row row;
  view.VisitHyponyms(id, [&](const taxonomy::HalfEdge& edge) {
    row.emplace_back(edge.node, static_cast<int>(edge.source), edge.score);
    return true;
  });
  return row;
}

std::vector<std::pair<std::string, std::vector<taxonomy::NodeId>>> Mentions(
    const taxonomy::ServingView& view) {
  std::vector<std::pair<std::string, std::vector<taxonomy::NodeId>>> out;
  view.VisitMentions([&](std::string_view mention,
                         const taxonomy::NodeId* ids, size_t num_ids) {
    out.emplace_back(std::string(mention),
                     std::vector<taxonomy::NodeId>(ids, ids + num_ids));
    return true;
  });
  return out;
}

// The built world grown the ways a batch grows it: appended nodes, a base
// entity gaining a hypernym (so a base concept gains a hyponym below its
// newest one), a promoted base entity, a changed and a new mention row.
struct GrownWorld {
  GrownWorld() : taxonomy(SharedWorld().taxonomy.Clone()) {
    mentions = MentionsOf(SharedWorld());
    base = taxonomy::ServingView::Encode(taxonomy, mentions);
    // The hub, the concept with the most hyponyms, and the first entity
    // not under it: the new edge lands in the middle of the hub's row.
    for (taxonomy::NodeId id = 0; id < taxonomy.num_nodes(); ++id) {
      if (hub == taxonomy::kInvalidNode ||
          taxonomy.Hyponyms(id).size() > taxonomy.Hyponyms(hub).size()) {
        hub = id;
      }
    }
    for (taxonomy::NodeId id = 0; id < taxonomy.num_nodes(); ++id) {
      if (taxonomy.Kind(id) == taxonomy::NodeKind::kEntity &&
          !taxonomy.HasIsa(id, hub)) {
        (entity == taxonomy::kInvalidNode ? entity : promoted) = id;
        if (promoted != taxonomy::kInvalidNode) break;
      }
    }
    const std::string concept_name = taxonomy.Name(hub);
    taxonomy.AddIsa("新实体甲", concept_name, taxonomy::Source::kTag, 0.4f);
    EXPECT_TRUE(taxonomy.AddIsa(entity, hub, taxonomy::Source::kInfobox,
                                0.6f));
    taxonomy.PromoteToConcept(promoted);
    taxonomy.AddIsa("新实体乙", taxonomy.Name(promoted),
                    taxonomy::Source::kBracket, 0.3f);
    taxonomy.AddIsa("新实体乙", "新概念", taxonomy::Source::kAbstract, 0.2f);
    changed_mention = mentions.begin()->first;
    mentions[changed_mention].push_back(taxonomy.Find("新实体甲"));
    mentions["新称呼"] = {taxonomy.Find("新实体乙"), entity};
    changes.nodes = {hub, entity, promoted, hub};
    changes.mentions = {&*mentions.find(changed_mention),
                        &*mentions.find("新称呼")};
  }

  std::shared_ptr<const taxonomy::ServingView> Layered(size_t max_bytes) const {
    return taxonomy::ServingView::EncodeLayered(base, taxonomy, mentions,
                                                changes, max_bytes);
  }

  taxonomy::Taxonomy taxonomy;
  taxonomy::MentionIndex mentions;
  std::shared_ptr<const taxonomy::ServingView> base;
  taxonomy::NodeId hub = taxonomy::kInvalidNode;
  taxonomy::NodeId entity = taxonomy::kInvalidNode;
  taxonomy::NodeId promoted = taxonomy::kInvalidNode;
  std::string changed_mention;
  taxonomy::LayerChanges changes;
};

// A layered view reads exactly like the folded encoding of the same pair,
// and persists as that folded image.
TEST(SnapshotTest, LayeredViewReadsLikeItsFoldedEncoding) {
  const GrownWorld world;
  const auto layered = world.Layered(SIZE_MAX);
  const auto folded =
      taxonomy::ServingView::Encode(world.taxonomy, world.mentions);
  ASSERT_TRUE(layered->layered());
  EXPECT_FALSE(folded->layered());
  EXPECT_LT(layered->delta_bytes().size(), world.base->bytes().size() / 8);

  ASSERT_EQ(layered->num_nodes(), folded->num_nodes());
  EXPECT_EQ(layered->num_edges(), folded->num_edges());
  EXPECT_EQ(layered->num_mentions(), folded->num_mentions());
  for (taxonomy::NodeId id = 0; id < folded->num_nodes(); ++id) {
    SCOPED_TRACE("node " + world.taxonomy.Name(id));
    EXPECT_EQ(layered->Name(id), folded->Name(id));
    EXPECT_EQ(layered->Find(folded->Name(id)), id);
    EXPECT_EQ(layered->Kind(id), folded->Kind(id));
    EXPECT_EQ(layered->NumHypernyms(id), folded->NumHypernyms(id));
    EXPECT_EQ(layered->NumHyponyms(id), folded->NumHyponyms(id));
    EXPECT_EQ(HypernymRow(*layered, id), HypernymRow(*folded, id));
    EXPECT_EQ(HyponymRow(*layered, id), HyponymRow(*folded, id));
  }
  EXPECT_EQ(layered->Kind(world.promoted), taxonomy::NodeKind::kConcept);
  EXPECT_EQ(layered->Find("__definitely_not_a_node__"),
            taxonomy::kInvalidNode);
  EXPECT_EQ(Mentions(*layered), Mentions(*folded));
  for (const auto& [mention, ids] : Mentions(*folded)) {
    const auto got = layered->MentionCandidates(mention);
    EXPECT_EQ(std::vector<taxonomy::NodeId>(got.begin(), got.end()), ids);
  }
  EXPECT_TRUE(layered->MentionCandidates("__not_a_mention__").empty());
  ExpectServicesAnswerIdentically(taxonomy::ApiService(layered),
                                  taxonomy::ApiService(folded), *folded);

  // On disk it is the folded image, byte for byte.
  EXPECT_TRUE(layered->bytes() == folded->bytes());
  const std::string path = TempPath("snapshot_layered.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*layered, path).ok());
  auto on_disk = util::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_TRUE(*on_disk == folded->bytes());
  std::remove(path.c_str());

  // A delta past the caller's bound is not laid out.
  EXPECT_EQ(world.Layered(layered->delta_bytes().size() - 1), nullptr);
  EXPECT_NE(world.Layered(layered->delta_bytes().size()), nullptr);
}

// getConcept?transitive walks the view; its order is the taxonomy's, on a
// folded view and on a layered one.
TEST(SnapshotTest, TransitiveHypernymsFollowTheTaxonomyOnEveryView) {
  const GrownWorld world;
  const auto layered = world.Layered(SIZE_MAX);
  const auto folded =
      taxonomy::ServingView::Encode(world.taxonomy, world.mentions);
  size_t multi_step = 0;
  for (taxonomy::NodeId id = 0; id < world.taxonomy.num_nodes(); ++id) {
    const std::vector<taxonomy::NodeId> want =
        world.taxonomy.TransitiveHypernyms(id);
    multi_step += want.size() > world.taxonomy.Hypernyms(id).size();
    EXPECT_EQ(folded->TransitiveHypernyms(id), want);
    EXPECT_EQ(layered->TransitiveHypernyms(id), want);
    EXPECT_EQ(layered->TransitiveHypernyms(id, 2),
              world.taxonomy.TransitiveHypernyms(id, 2));
  }
  EXPECT_GT(multi_step, 0u);
  EXPECT_TRUE(
      layered->TransitiveHypernyms(
          static_cast<taxonomy::NodeId>(layered->num_nodes()))
          .empty());
}

TEST(SnapshotTest, SnapshotBackedServiceAnswersIdenticallyToMaterialized) {
  const BuiltWorld& world = SharedWorld();

  // Snapshot-backed side: written from the builder's taxonomy, served via
  // mmap.
  const std::string snap_path = TempPath("snapshot_equiv.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*EncodeWorld(world), snap_path).ok());
  auto snap = taxonomy::ServingView::Load(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  taxonomy::ApiService snap_service(*snap);

  // Materialized side: the file's taxonomy rebuilt as a mutable Taxonomy,
  // its mention index rebuilt from the dump, then published — what a
  // process that edits a loaded snapshot would serve.
  auto materialized = taxonomy::MaterializeTaxonomy(**snap);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  auto frozen = taxonomy::Taxonomy::Freeze(std::move(*materialized));
  taxonomy::ApiService rebuilt_service(
      frozen, core::CnProbaseBuilder::BuildMentionIndex(world.dump, *frozen));

  ASSERT_EQ(rebuilt_service.num_mentions(), (*snap)->num_mentions());
  EXPECT_EQ(rebuilt_service.CurrentView()->bytes(), (*snap)->bytes());
  ExpectServicesAnswerIdentically(rebuilt_service, snap_service, **snap);

  std::remove(snap_path.c_str());
}

// A builder-built taxonomy (not a materialized one) inserts hyponym edges
// in build order, not canonical order. Publishing it and serving the file
// that version writes must still answer getEntity identically.
TEST(SnapshotTest, PublishedBuilderTaxonomyAnswersLikeItsWrittenFile) {
  const BuiltWorld& world = SharedWorld();
  taxonomy::ApiService published(util::UnownedSnapshot(&world.taxonomy),
                                 MentionsOf(world));
  const std::string path = TempPath("snapshot_published.snap");
  ASSERT_TRUE(
      taxonomy::WriteSnapshot(*published.CurrentView(), path).ok());
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  taxonomy::ApiService mapped(*snap);

  size_t concepts = 0;
  for (taxonomy::NodeId id = 0; id < world.taxonomy.num_nodes(); ++id) {
    if (world.taxonomy.Kind(id) != taxonomy::NodeKind::kConcept) continue;
    ++concepts;
    const std::string& name = world.taxonomy.Name(id);
    EXPECT_EQ(published.TryGetEntityResolved(name, 1000)->names,
              mapped.TryGetEntityResolved(name, 1000)->names)
        << "getEntity(" << name << ")";
  }
  EXPECT_GT(concepts, 0u);
  ExpectServicesAnswerIdentically(published, mapped, **snap);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MaterializeThenEncodeIsByteIdentical) {
  const BuiltWorld& world = SharedWorld();
  const auto view = EncodeWorld(world);
  const std::string snap_path = TempPath("snapshot_materialize.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, snap_path).ok());
  auto snap = taxonomy::ServingView::Load(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Materializing the loaded file and encoding it again must reproduce the
  // file byte for byte — node ids, kinds, edge order, sources and exact
  // score bits: the path back to a mutable Taxonomy loses nothing.
  auto materialized = taxonomy::MaterializeTaxonomy(**snap);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized->num_nodes(), world.taxonomy.num_nodes());
  EXPECT_EQ(materialized->num_edges(), world.taxonomy.num_edges());
  EXPECT_EQ(
      taxonomy::ServingView::Encode(*materialized, MentionsOf(world))->bytes(),
      (*snap)->bytes());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, EmptyTaxonomyRoundTrips) {
  taxonomy::Taxonomy empty;
  const std::string path = TempPath("snapshot_empty.snap");
  const auto encoded = taxonomy::ServingView::Encode(empty, {});
  ASSERT_TRUE(taxonomy::WriteSnapshot(*encoded, path).ok());
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_nodes(), 0u);
  EXPECT_EQ((*snap)->num_edges(), 0u);
  EXPECT_EQ((*snap)->num_mentions(), 0u);
  EXPECT_EQ((*snap)->Find("anything"), taxonomy::kInvalidNode);
  EXPECT_TRUE((*snap)->MentionCandidates("anything").empty());

  auto on_disk = util::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ((*snap)->bytes(), *on_disk);
  EXPECT_EQ(encoded->bytes(), *on_disk);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FindLocatesEveryNodeAndOnlyThem) {
  const BuiltWorld& world = SharedWorld();
  const auto view = EncodeWorld(world);
  const std::string path = TempPath("snapshot_find.snap");
  ASSERT_TRUE(taxonomy::WriteSnapshot(*view, path).ok());
  auto snap = taxonomy::ServingView::Load(path);
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
