// Reasoning engine + service (ISSUE 10 tentpole): bounded transitive isA
// closure with witness paths, depth-tagged ancestor sweeps, LCA with its
// documented tie-break ladder, Jaccard-ranked sibling / expansion queries —
// and the cycle regression (satellite 1): every traversal terminates on a
// deliberately cyclic taxonomy (A → B → C → A reaches serving via synth
// merges; Taxonomy::AddIsa only rejects self-loops). The ReasonService
// layer is held to the cacheable/transient split: unknown names are data
// (known flags + pinned version), only shed/deadline/fault are errors.
#include "reason/engine.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reason/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/fault_injection.h"

namespace cnpb::reason {
namespace {

using taxonomy::NodeId;
using taxonomy::Source;
using taxonomy::Taxonomy;
using taxonomy::kInvalidNode;

std::shared_ptr<const taxonomy::ServingView> MakeView(const Taxonomy& t) {
  return taxonomy::ServingView::Encode(t, taxonomy::MentionIndex{});
}

// ------------------------------------------------------------ isA closure

TEST(IsaClosureTest, SelfAndDirectEdge) {
  Taxonomy t;
  t.AddIsa("e", "c1", Source::kTag, 0.9f);
  auto view = MakeView(t);
  const NodeId e = view->Find("e");
  const NodeId c1 = view->Find("c1");

  const IsaResult self = IsaClosure(*view, e, e, 4);
  EXPECT_TRUE(self.reached);
  EXPECT_EQ(self.depth, 0);
  EXPECT_EQ(self.path, std::vector<NodeId>({e}));

  const IsaResult direct = IsaClosure(*view, e, c1, 4);
  EXPECT_TRUE(direct.reached);
  EXPECT_EQ(direct.depth, 1);
  EXPECT_EQ(direct.path, std::vector<NodeId>({e, c1}));

  // Downward direction is not isA.
  EXPECT_FALSE(IsaClosure(*view, c1, e, 4).reached);
}

TEST(IsaClosureTest, MinimalDepthWinsAndWitnessPathMatchesIt) {
  // e -> c1 -> c2 -> c3 plus the shortcut e -> c2: BFS must report the
  // 2-step route to c3 and its path, not the 3-step chain.
  Taxonomy t;
  t.AddIsa("e", "c1", Source::kTag, 0.9f);
  t.AddIsa("c1", "c2", Source::kTag, 0.8f);
  t.AddIsa("c2", "c3", Source::kTag, 0.7f);
  t.AddIsa("e", "c2", Source::kTag, 0.6f);
  auto view = MakeView(t);
  const NodeId e = view->Find("e");
  const NodeId c2 = view->Find("c2");
  const NodeId c3 = view->Find("c3");

  const IsaResult hop = IsaClosure(*view, e, c2, 8);
  EXPECT_EQ(hop.depth, 1);

  const IsaResult two = IsaClosure(*view, e, c3, 8);
  ASSERT_TRUE(two.reached);
  EXPECT_EQ(two.depth, 2);
  EXPECT_EQ(two.path, std::vector<NodeId>({e, c2, c3}));
}

TEST(IsaClosureTest, MaxDepthBoundsTheSearch) {
  Taxonomy t;
  t.AddIsa("a", "b1", Source::kTag, 0.9f);
  t.AddIsa("b1", "b2", Source::kTag, 0.9f);
  t.AddIsa("b2", "b3", Source::kTag, 0.9f);
  auto view = MakeView(t);
  const NodeId a = view->Find("a");
  const NodeId b3 = view->Find("b3");

  const IsaResult bounded = IsaClosure(*view, a, b3, 2);
  EXPECT_FALSE(bounded.reached);
  EXPECT_EQ(bounded.depth, -1);
  EXPECT_TRUE(bounded.path.empty());

  const IsaResult reached = IsaClosure(*view, a, b3, 3);
  EXPECT_TRUE(reached.reached);
  EXPECT_EQ(reached.depth, 3);
}

TEST(IsaClosureTest, OutOfRangeIdsAreUnreached) {
  Taxonomy t;
  t.AddIsa("e", "c", Source::kTag, 0.9f);
  auto view = MakeView(t);
  const NodeId bogus = static_cast<NodeId>(view->num_nodes() + 7);
  EXPECT_FALSE(IsaClosure(*view, bogus, view->Find("c"), 4).reached);
  EXPECT_FALSE(IsaClosure(*view, view->Find("e"), bogus, 4).reached);
}

// ------------------------------------------------- cyclic graph regression

// Satellite 1: A -> B -> C -> A plus the entity D -> A. Every traversal
// must terminate and keep its depth semantics (minimal distance, first
// touch wins) on the cycle.
TEST(CyclicTaxonomyTest, AllTraversalsTerminateWithMinimalDepths) {
  Taxonomy t;
  t.AddIsa("A", "B", Source::kTag, 0.9f);
  t.AddIsa("B", "C", Source::kTag, 0.8f);
  t.AddIsa("C", "A", Source::kTag, 0.7f);
  t.AddIsa("D", "A", Source::kTag, 0.6f);
  auto view = MakeView(t);
  const NodeId a = view->Find("A");
  const NodeId b = view->Find("B");
  const NodeId c = view->Find("C");
  const NodeId d = view->Find("D");

  // Closure through the cycle entrance.
  const IsaResult up = IsaClosure(*view, d, b, 16);
  ASSERT_TRUE(up.reached);
  EXPECT_EQ(up.depth, 2);
  EXPECT_EQ(up.path, std::vector<NodeId>({d, a, b}));

  // D is below the cycle: no amount of looping may "reach" it upward.
  EXPECT_FALSE(IsaClosure(*view, a, d, 16).reached);

  // Ancestors of D: exactly the three cycle members, each at its minimal
  // distance, despite the unbounded loop above them.
  const std::vector<Ancestor> from_d = Ancestors(*view, d, 16);
  ASSERT_EQ(from_d.size(), 3u);
  EXPECT_EQ(from_d[0].node, a);
  EXPECT_EQ(from_d[0].depth, 1u);
  EXPECT_EQ(from_d[1].node, b);
  EXPECT_EQ(from_d[1].depth, 2u);
  EXPECT_EQ(from_d[2].node, c);
  EXPECT_EQ(from_d[2].depth, 3u);

  // A cycle member is not its own ancestor: the visited set pinned A at
  // depth 0 before the loop could rediscover it.
  const std::vector<Ancestor> from_a = Ancestors(*view, a, 16);
  ASSERT_EQ(from_a.size(), 2u);
  EXPECT_EQ(from_a[0].node, b);
  EXPECT_EQ(from_a[1].node, c);

  // LCA on the cycle: B is an ancestor of both at (1, 0) — the minimal
  // depth sum among {A:(0,2), B:(1,0), C:(2,1)}.
  const LcaResult lca = LowestCommonAncestor(*view, a, b, 16);
  EXPECT_EQ(lca.node, b);
  EXPECT_EQ(lca.depth_a, 1u);
  EXPECT_EQ(lca.depth_b, 0u);

  // Ranking queries terminate too. D's only co-hyponym under A is C.
  const std::vector<Scored> similar = SimilarEntities(*view, d, 5);
  ASSERT_EQ(similar.size(), 1u);
  EXPECT_EQ(similar[0].node, c);

  (void)ExpandConcept(*view, a, 5);  // termination is the assertion

  // The serving-path transitive closure shares the same guard.
  const std::vector<NodeId> closure = view->TransitiveHypernyms(a);
  EXPECT_EQ(closure, std::vector<NodeId>({b, c}));
}

// ------------------------------------------------------------- ancestors

TEST(AncestorsTest, DepthTagsLevelOrderAndLimit) {
  // Diamond: x -> {l, r} -> t. Level order within a level follows the
  // canonical edge order (insertion order here).
  Taxonomy t;
  t.AddIsa("x", "l", Source::kTag, 0.9f);
  t.AddIsa("x", "r", Source::kTag, 0.8f);
  t.AddIsa("l", "t", Source::kTag, 0.7f);
  t.AddIsa("r", "t", Source::kTag, 0.6f);
  auto view = MakeView(t);
  const NodeId x = view->Find("x");

  const std::vector<Ancestor> all = Ancestors(*view, x, 8);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].node, view->Find("l"));
  EXPECT_EQ(all[0].depth, 1u);
  EXPECT_EQ(all[1].node, view->Find("r"));
  EXPECT_EQ(all[1].depth, 1u);
  EXPECT_EQ(all[2].node, view->Find("t"));
  EXPECT_EQ(all[2].depth, 2u);  // via the diamond: minimal, counted once

  const std::vector<Ancestor> capped = Ancestors(*view, x, 8, 2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[1].node, view->Find("r"));

  EXPECT_TRUE(Ancestors(*view, x, 0).empty());
}

// ------------------------------------------------------------------- LCA

TEST(LcaTest, SelfParentAndSiblings) {
  Taxonomy t;
  t.AddIsa("child", "parent", Source::kTag, 0.9f);
  t.AddIsa("s1", "p", Source::kTag, 0.9f);
  t.AddIsa("s2", "p", Source::kTag, 0.9f);
  t.AddIsa("p", "g", Source::kTag, 0.9f);
  auto view = MakeView(t);

  const LcaResult self =
      LowestCommonAncestor(*view, view->Find("child"), view->Find("child"), 8);
  EXPECT_EQ(self.node, view->Find("child"));
  EXPECT_EQ(self.depth_a, 0u);
  EXPECT_EQ(self.depth_b, 0u);

  const LcaResult parent = LowestCommonAncestor(*view, view->Find("child"),
                                                view->Find("parent"), 8);
  EXPECT_EQ(parent.node, view->Find("parent"));
  EXPECT_EQ(parent.depth_a, 1u);
  EXPECT_EQ(parent.depth_b, 0u);

  const LcaResult siblings =
      LowestCommonAncestor(*view, view->Find("s1"), view->Find("s2"), 8);
  EXPECT_EQ(siblings.node, view->Find("p"));  // p, not the deeper g
  EXPECT_EQ(siblings.depth_a, 1u);
  EXPECT_EQ(siblings.depth_b, 1u);
}

TEST(LcaTest, TieBreaksOnSmallestIdAndRespectsMaxDepth) {
  Taxonomy t;
  // Two equally-near common parents: p1 gets the smaller node id.
  t.AddIsa("s1", "p1", Source::kTag, 0.9f);
  t.AddIsa("s1", "p2", Source::kTag, 0.9f);
  t.AddIsa("s2", "p1", Source::kTag, 0.9f);
  t.AddIsa("s2", "p2", Source::kTag, 0.9f);
  // A 2-up meeting point for the depth-bound check.
  t.AddIsa("a", "ca", Source::kTag, 0.9f);
  t.AddIsa("b", "cb", Source::kTag, 0.9f);
  t.AddIsa("ca", "r", Source::kTag, 0.9f);
  t.AddIsa("cb", "r", Source::kTag, 0.9f);
  t.AddNode("loner", taxonomy::NodeKind::kEntity);
  auto view = MakeView(t);

  const LcaResult tie =
      LowestCommonAncestor(*view, view->Find("s1"), view->Find("s2"), 8);
  EXPECT_EQ(tie.node, view->Find("p1"));
  EXPECT_LT(view->Find("p1"), view->Find("p2"));

  const LcaResult bounded =
      LowestCommonAncestor(*view, view->Find("a"), view->Find("b"), 1);
  EXPECT_EQ(bounded.node, kInvalidNode);
  const LcaResult met =
      LowestCommonAncestor(*view, view->Find("a"), view->Find("b"), 2);
  EXPECT_EQ(met.node, view->Find("r"));
  EXPECT_EQ(met.depth_a, 2u);
  EXPECT_EQ(met.depth_b, 2u);

  const LcaResult none =
      LowestCommonAncestor(*view, view->Find("s1"), view->Find("loner"), 8);
  EXPECT_EQ(none.node, kInvalidNode);
}

// --------------------------------------------------------------- similar

TEST(SimilarEntitiesTest, JaccardRankingWithEdgeScoreTieBreak) {
  Taxonomy t;
  t.AddIsa("e", "c1", Source::kTag, 0.9f);
  t.AddIsa("e", "c2", Source::kTag, 0.8f);
  // twin shares both hypernyms: Jaccard 2/2 = 1.
  t.AddIsa("twin", "c1", Source::kTag, 0.5f);
  t.AddIsa("twin", "c2", Source::kTag, 0.5f);
  // half shares {c1} of union {c1, c2, c3}: 1/3.
  t.AddIsa("half", "c1", Source::kTag, 0.7f);
  t.AddIsa("half", "c3", Source::kTag, 0.4f);
  // ta and tb both score 1/2 ({c1} over {c1, c2}); the shared-edge
  // (CopyNet) score 0.9 vs 0.3 orders ta first.
  t.AddIsa("ta", "c1", Source::kTag, 0.9f);
  t.AddIsa("tb", "c1", Source::kTag, 0.3f);
  // stranger shares nothing with e and must not appear.
  t.AddIsa("stranger", "c3", Source::kTag, 0.9f);
  auto view = MakeView(t);
  const NodeId e = view->Find("e");

  const std::vector<Scored> ranked = SimilarEntities(*view, e, 10);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].node, view->Find("twin"));
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
  EXPECT_EQ(ranked[1].node, view->Find("ta"));
  EXPECT_DOUBLE_EQ(ranked[1].score, 0.5);
  EXPECT_FLOAT_EQ(ranked[1].tie, 0.9f);
  EXPECT_EQ(ranked[2].node, view->Find("tb"));
  EXPECT_DOUBLE_EQ(ranked[2].score, 0.5);
  EXPECT_EQ(ranked[3].node, view->Find("half"));
  EXPECT_DOUBLE_EQ(ranked[3].score, 1.0 / 3.0);
  for (const Scored& s : ranked) EXPECT_NE(s.node, e);  // never itself

  // k truncates after ranking.
  const std::vector<Scored> top2 = SimilarEntities(*view, e, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[1].node, view->Find("ta"));

  // A node with no hypernyms has no siblings.
  EXPECT_TRUE(SimilarEntities(*view, view->Find("c3"), 5).empty());
}

// ---------------------------------------------------------------- expand

TEST(ExpandConceptTest, RanksCandidatesByChildHypernymProfile) {
  Taxonomy t;
  // Seed P has children x, y; both also live under Q, w only under P.
  t.AddIsa("x", "P", Source::kTag, 0.9f);
  t.AddIsa("y", "P", Source::kTag, 0.9f);
  t.AddIsa("w", "P", Source::kTag, 0.9f);
  t.AddIsa("x", "Q", Source::kTag, 0.8f);
  t.AddIsa("y", "Q", Source::kTag, 0.8f);
  // z is the expansion candidate: under Q but not yet under P.
  t.AddIsa("z", "Q", Source::kTag, 0.7f);
  auto view = MakeView(t);

  const std::vector<Scored> ranked = ExpandConcept(*view, view->Find("P"), 10);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].node, view->Find("z"));
  // Profile weight of Q is 2/3 of P's children; z's hypernym set is {Q},
  // so the normalised overlap is (2/3) / |{Q}| = 2/3.
  EXPECT_DOUBLE_EQ(ranked[0].score, 2.0 / 3.0);
  EXPECT_FLOAT_EQ(ranked[0].tie, 0.7f);
}

TEST(ExpandConceptTest, ChildlessSeedFallsBackToItsOwnHypernyms) {
  Taxonomy t;
  t.AddIsa("C", "G", Source::kTag, 0.9f);
  t.AddIsa("S", "G", Source::kTag, 0.8f);
  auto view = MakeView(t);
  // C has no children: the profile degrades to C's own hypernyms {G} and
  // ranks C's sibling S instead of returning nothing.
  const std::vector<Scored> ranked = ExpandConcept(*view, view->Find("C"), 10);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].node, view->Find("S"));
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
}

// --------------------------------------------------------- ReasonService

Taxonomy MakeServiceTaxonomy() {
  Taxonomy t;
  t.AddIsa("刘备", "君主", Source::kTag, 0.9f);
  t.AddIsa("曹操", "君主", Source::kTag, 0.8f);
  t.AddIsa("君主", "人物", Source::kTag, 0.7f);
  return t;
}

TEST(ReasonServiceTest, StampsPinnedVersionAndKnownFlags) {
  const Taxonomy taxonomy = MakeServiceTaxonomy();
  taxonomy::ApiService api(util::UnownedSnapshot(&taxonomy));
  ReasonService service(&api);

  const auto isa = service.TryIsa("刘备", "人物", 4);
  ASSERT_TRUE(isa.ok());
  EXPECT_EQ(isa->version, api.version());
  EXPECT_TRUE(isa->entity_known);
  EXPECT_TRUE(isa->concept_known);
  EXPECT_TRUE(isa->isa);
  EXPECT_EQ(isa->depth, 2);
  EXPECT_EQ(isa->path,
            std::vector<std::string>({"刘备", "君主", "人物"}));

  // Unknown names are data, not errors: the known flags plus the pinned
  // version make the HTTP layer's 404 cacheable.
  const auto unknown = service.TryIsa("nobody", "人物", 4);
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->entity_known);
  EXPECT_TRUE(unknown->concept_known);
  EXPECT_FALSE(unknown->isa);
  EXPECT_EQ(unknown->version, api.version());

  const auto lca = service.TryLca("刘备", "曹操", 8);
  ASSERT_TRUE(lca.ok());
  EXPECT_TRUE(lca->found);
  EXPECT_EQ(lca->lca, "君主");
  EXPECT_EQ(lca->depth_a, 1u);
  EXPECT_EQ(lca->depth_b, 1u);

  const auto similar = service.TrySimilar("刘备", 5);
  ASSERT_TRUE(similar.ok());
  EXPECT_TRUE(similar->known);
  ASSERT_EQ(similar->results.size(), 1u);
  EXPECT_EQ(similar->results[0].name, "曹操");

  const auto expand = service.TryExpand("君主", 5);
  ASSERT_TRUE(expand.ok());
  EXPECT_TRUE(expand->known);

  const ReasonService::UsageStats usage = service.usage();
  EXPECT_EQ(usage.isa_calls, 2u);
  EXPECT_EQ(usage.lca_calls, 1u);
  EXPECT_EQ(usage.similar_calls, 1u);
  EXPECT_EQ(usage.expand_calls, 1u);
  EXPECT_EQ(usage.total(), 5u);
}

TEST(ReasonServiceTest, LimitsCapDepthAndK) {
  const Taxonomy taxonomy = MakeServiceTaxonomy();
  taxonomy::ApiService api(util::UnownedSnapshot(&taxonomy));
  ReasonService::Limits limits;
  limits.max_depth_cap = 1;
  limits.max_k = 1;
  ReasonService service(&api, limits);

  // 刘备 -> 人物 needs two hops; the cap clamps the caller's max_depth.
  const auto isa = service.TryIsa("刘备", "人物", 8);
  ASSERT_TRUE(isa.ok());
  EXPECT_TRUE(isa->entity_known);
  EXPECT_FALSE(isa->isa);

  const auto similar = service.TrySimilar("刘备", 50);
  ASSERT_TRUE(similar.ok());
  EXPECT_LE(similar->results.size(), 1u);
}

TEST(ReasonServiceTest, TransientFaultsSurfaceAsErrors) {
  const Taxonomy taxonomy = MakeServiceTaxonomy();
  taxonomy::ApiService api(util::UnownedSnapshot(&taxonomy));
  ReasonService service(&api);
  util::ScopedFaultInjection scoped("api.query=1", 11);
  const auto isa = service.TryIsa("刘备", "人物", 4);
  EXPECT_FALSE(isa.ok());
}

}  // namespace
}  // namespace cnpb::reason
