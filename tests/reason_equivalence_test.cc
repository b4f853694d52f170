// Reasoning oracle: every reasoning API over a served view answers what a
// direct computation over the source Taxonomy defines — reachability and
// minimal depths by BFS, LCA by its tie-break ladder, similar/expand
// rankings by their scoring formulas — with scores compared to the bit.
// The rankings are totally ordered (score, tie-break, node id, engine.h),
// so the oracle needs no knowledge of discovery order. The service layer
// must also answer identically from a published version and from the file
// that version writes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "reason/engine.h"
#include "reason/service.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"

namespace cnpb::reason {
namespace {

using taxonomy::NodeId;
using taxonomy::kInvalidNode;
using taxonomy::ServingView;
using taxonomy::Source;
using taxonomy::Taxonomy;

// A moderately rich world: 36 entities fanned over 6 overlapping leaf
// concepts plus 4 "extra" facets, a 3-level concept hierarchy, and a
// deliberate cycle through the top — so the sweeps, rankings, and
// tie-breaks all have real work to do.
Taxonomy MakeWorld() {
  Taxonomy t;
  for (int i = 0; i < 36; ++i) {
    const std::string entity = "ent" + std::to_string(i);
    t.AddIsa(entity, "cat" + std::to_string(i % 6), Source::kTag,
             0.30f + 0.015f * static_cast<float>(i));
    if (i % 3 == 0) {
      t.AddIsa(entity, "cat" + std::to_string((i + 1) % 6), Source::kTag,
               0.55f + 0.01f * static_cast<float>(i % 7));
    }
    if (i % 5 == 0) {
      t.AddIsa(entity, "extra" + std::to_string(i % 4), Source::kTag,
               0.42f + 0.02f * static_cast<float>(i % 5));
    }
  }
  for (int c = 0; c < 6; ++c) {
    t.AddIsa("cat" + std::to_string(c), "mid" + std::to_string(c % 2),
             Source::kTag, 0.7f);
  }
  t.AddIsa("extra0", "mid0", Source::kTag, 0.65f);
  t.AddIsa("extra1", "mid1", Source::kTag, 0.6f);
  t.AddIsa("mid0", "top", Source::kTag, 0.8f);
  t.AddIsa("mid1", "top", Source::kTag, 0.8f);
  // The cycle: top isA cat0 closes a loop through mid0 and back.
  t.AddIsa("top", "cat0", Source::kTag, 0.5f);
  return t;
}

class ReasonEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new Taxonomy(MakeWorld());
    taxonomy::MentionIndex mentions;
    mentions["e0"].push_back(world_->Find("ent0"));
    view_ = new std::shared_ptr<const ServingView>(
        ServingView::Encode(*world_, mentions));
  }

  static void TearDownTestSuite() {
    delete view_;
    delete world_;
    view_ = nullptr;
    world_ = nullptr;
  }

  static const Taxonomy& World() { return *world_; }
  static const ServingView& View() { return **view_; }

  static Taxonomy* world_;
  static std::shared_ptr<const ServingView>* view_;
};

Taxonomy* ReasonEquivalenceTest::world_ = nullptr;
std::shared_ptr<const ServingView>* ReasonEquivalenceTest::view_ = nullptr;

// Minimal isA distance from `from` to every node within `max_depth`
// upward steps; -1 when unreachable.
std::vector<int> Distances(const Taxonomy& t, NodeId from, size_t max_depth) {
  std::vector<int> dist(t.num_nodes(), -1);
  dist[from] = 0;
  std::vector<NodeId> frontier{from};
  for (int d = 1; d <= static_cast<int>(max_depth) && !frontier.empty();
       ++d) {
    std::vector<NodeId> next;
    for (const NodeId u : frontier) {
      for (const auto& edge : t.Hypernyms(u)) {
        if (dist[edge.hyper] < 0) {
          dist[edge.hyper] = d;
          next.push_back(edge.hyper);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::set<NodeId> HypernymSet(const Taxonomy& t, NodeId id) {
  std::set<NodeId> out;
  for (const auto& edge : t.Hypernyms(id)) out.insert(edge.hyper);
  return out;
}

void SortTopK(std::vector<Scored>* scored, size_t k) {
  std::sort(scored->begin(), scored->end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.tie != b.tie) return a.tie > b.tie;
              return a.node < b.node;
            });
  if (scored->size() > k) scored->resize(k);
}

// Co-hyponyms of `id` ranked by Jaccard overlap of direct-hypernym sets;
// tie = best edge score from the candidate to a shared hypernym.
std::vector<Scored> ReferenceSimilar(const Taxonomy& t, NodeId id, size_t k) {
  const std::set<NodeId> hypers = HypernymSet(t, id);
  std::set<NodeId> candidates;
  for (const NodeId h : hypers) {
    for (const auto& edge : t.Hyponyms(h)) {
      if (edge.hypo != id) candidates.insert(edge.hypo);
    }
  }
  std::vector<Scored> scored;
  for (const NodeId c : candidates) {
    size_t shared = 0;
    float tie = 0.0f;
    for (const auto& edge : t.Hypernyms(c)) {
      if (hypers.count(edge.hyper) > 0) {
        ++shared;
        tie = std::max(tie, edge.score);
      }
    }
    const double unions =
        static_cast<double>(hypers.size() + t.Hypernyms(c).size() - shared);
    scored.push_back({c, static_cast<double>(shared) / unions, tie});
  }
  SortTopK(&scored, k);
  return scored;
}

// Candidate children of `id` scored against the hypernym profile of its
// existing children (or of `id` itself when childless).
std::vector<Scored> ReferenceExpand(const Taxonomy& t, NodeId id, size_t k) {
  std::set<NodeId> children;
  for (const auto& edge : t.Hyponyms(id)) children.insert(edge.hypo);
  std::map<NodeId, double> profile;
  if (!children.empty()) {
    for (const NodeId c : children) {
      for (const auto& edge : t.Hypernyms(c)) {
        if (edge.hyper != id) profile[edge.hyper] += 1.0;
      }
    }
    for (auto& [h, weight] : profile) {
      weight /= static_cast<double>(children.size());
    }
  } else {
    for (const auto& edge : t.Hypernyms(id)) profile[edge.hyper] = 1.0;
  }
  std::set<NodeId> candidates;
  for (const auto& [h, weight] : profile) {
    for (const auto& edge : t.Hyponyms(h)) {
      if (edge.hypo != id && children.count(edge.hypo) == 0) {
        candidates.insert(edge.hypo);
      }
    }
  }
  std::vector<Scored> scored;
  for (const NodeId c : candidates) {
    size_t total = 0;
    size_t matched = 0;
    double weight_sum = 0.0;  // summed in hypernym row order, as served
    float tie = 0.0f;
    for (const auto& edge : t.Hypernyms(c)) {
      if (edge.hyper == id) continue;
      ++total;
      const auto it = profile.find(edge.hyper);
      if (it != profile.end()) {
        ++matched;
        weight_sum += it->second;
        tie = std::max(tie, edge.score);
      }
    }
    if (matched == 0) continue;
    const double unions =
        static_cast<double>(profile.size() + total - matched);
    scored.push_back({c, weight_sum / unions, tie});
  }
  SortTopK(&scored, k);
  return scored;
}

TEST_F(ReasonEquivalenceTest, NodeIdsAndNamesRoundTrip) {
  ASSERT_EQ(View().num_nodes(), World().num_nodes());
  ASSERT_EQ(View().num_edges(), World().num_edges());
  for (NodeId id = 0; id < World().num_nodes(); ++id) {
    EXPECT_EQ(View().Name(id), World().Name(id));
    EXPECT_EQ(View().Find(World().Name(id)), id);
  }
}

TEST_F(ReasonEquivalenceTest, IsaClosureIsIdenticalForAllPairs) {
  const size_t n = World().num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    const std::vector<int> dist = Distances(World(), a, 4);
    for (NodeId b = 0; b < n; ++b) {
      const IsaResult r = IsaClosure(View(), a, b, 4);
      ASSERT_EQ(r.reached, dist[b] >= 0) << "pair " << a << "," << b;
      ASSERT_EQ(r.depth, dist[b]) << "pair " << a << "," << b;
      if (!r.reached) {
        ASSERT_TRUE(r.path.empty());
        continue;
      }
      // The witness is a real isA chain of minimal length.
      ASSERT_EQ(r.path.size(), static_cast<size_t>(dist[b]) + 1);
      ASSERT_EQ(r.path.front(), a);
      ASSERT_EQ(r.path.back(), b);
      for (size_t i = 0; i + 1 < r.path.size(); ++i) {
        ASSERT_TRUE(World().HasIsa(r.path[i], r.path[i + 1]))
            << "pair " << a << "," << b << " step " << i;
      }
    }
  }
}

TEST_F(ReasonEquivalenceTest, AncestorsAreIdenticalForAllNodes) {
  for (NodeId id = 0; id < World().num_nodes(); ++id) {
    const std::vector<int> dist = Distances(World(), id, 6);
    const size_t want = static_cast<size_t>(
        std::count_if(dist.begin(), dist.end(), [](int d) { return d > 0; }));
    const std::vector<Ancestor> got = Ancestors(View(), id, 6);
    ASSERT_EQ(got.size(), want) << "node " << id;
    std::set<NodeId> seen;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(static_cast<int>(got[i].depth), dist[got[i].node])
          << "node " << id << " rank " << i;
      ASSERT_TRUE(seen.insert(got[i].node).second);
      if (i > 0) {
        ASSERT_LE(got[i - 1].depth, got[i].depth);  // BFS level order
      }
    }
  }
}

TEST_F(ReasonEquivalenceTest, LcaIsIdenticalForAllPairs) {
  const size_t n = World().num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    const std::vector<int> da = Distances(World(), a, 6);
    for (NodeId b = 0; b < n; ++b) {
      const std::vector<int> db = Distances(World(), b, 6);
      // Minimal depth_a + depth_b, then minimal max, then smallest id.
      LcaResult want;
      for (NodeId v = 0; v < n; ++v) {
        if (da[v] < 0 || db[v] < 0) continue;
        const auto key = [](int x, int y, NodeId node) {
          return std::make_tuple(x + y, std::max(x, y), node);
        };
        if (want.node == kInvalidNode ||
            key(da[v], db[v], v) <
                key(static_cast<int>(want.depth_a),
                    static_cast<int>(want.depth_b), want.node)) {
          want = {v, static_cast<uint32_t>(da[v]),
                  static_cast<uint32_t>(db[v])};
        }
      }
      const LcaResult got = LowestCommonAncestor(View(), a, b, 6);
      ASSERT_EQ(got.node, want.node) << "pair " << a << "," << b;
      ASSERT_EQ(got.depth_a, want.depth_a) << "pair " << a << "," << b;
      ASSERT_EQ(got.depth_b, want.depth_b) << "pair " << a << "," << b;
    }
  }
}

// Rankings must agree to the bit: same candidates, same double scores,
// same float tie-breaks, same order and truncation.
void ExpectSameRanking(const std::vector<Scored>& want,
                       const std::vector<Scored>& got, NodeId id) {
  ASSERT_EQ(want.size(), got.size()) << "node " << id;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].node, got[i].node) << "node " << id << " rank " << i;
    ASSERT_EQ(want[i].score, got[i].score) << "node " << id << " rank " << i;
    ASSERT_EQ(want[i].tie, got[i].tie) << "node " << id << " rank " << i;
  }
}

TEST_F(ReasonEquivalenceTest, SimilarEntitiesRankIdentically) {
  for (NodeId id = 0; id < World().num_nodes(); ++id) {
    ExpectSameRanking(ReferenceSimilar(World(), id, 10),
                      SimilarEntities(View(), id, 10), id);
  }
}

TEST_F(ReasonEquivalenceTest, ExpandConceptRanksIdentically) {
  for (NodeId id = 0; id < World().num_nodes(); ++id) {
    ExpectSameRanking(ReferenceExpand(World(), id, 10),
                      ExpandConcept(View(), id, 10), id);
  }
}

// The service layer over a published version and over the file that
// version writes: same names, same versions, same resolved payloads.
TEST_F(ReasonEquivalenceTest, ReasonServiceAgreesAcrossPublishAndLoad) {
  const std::string path =
      ::testing::TempDir() + "/reason_equivalence_snapshot.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(taxonomy::WriteSnapshot(View(), path).ok());
  auto loaded = ServingView::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  taxonomy::ApiService published_api(*view_);
  taxonomy::ApiService loaded_api(*loaded);
  ReasonService published(&published_api);
  ReasonService mapped(&loaded_api);

  const auto p_isa = published.TryIsa("ent0", "top", 4);
  const auto m_isa = mapped.TryIsa("ent0", "top", 4);
  ASSERT_TRUE(p_isa.ok());
  ASSERT_TRUE(m_isa.ok());
  EXPECT_TRUE(p_isa->isa);
  EXPECT_EQ(p_isa->isa, m_isa->isa);
  EXPECT_EQ(p_isa->depth, m_isa->depth);
  EXPECT_EQ(p_isa->path, m_isa->path);

  const auto p_lca = published.TryLca("ent1", "ent2", 6);
  const auto m_lca = mapped.TryLca("ent1", "ent2", 6);
  ASSERT_TRUE(p_lca.ok());
  ASSERT_TRUE(m_lca.ok());
  EXPECT_EQ(p_lca->found, m_lca->found);
  EXPECT_EQ(p_lca->lca, m_lca->lca);

  const auto p_sim = published.TrySimilar("ent0", 8);
  const auto m_sim = mapped.TrySimilar("ent0", 8);
  ASSERT_TRUE(p_sim.ok());
  ASSERT_TRUE(m_sim.ok());
  ASSERT_FALSE(p_sim->results.empty());
  ASSERT_EQ(p_sim->results.size(), m_sim->results.size());
  for (size_t i = 0; i < p_sim->results.size(); ++i) {
    EXPECT_EQ(p_sim->results[i].name, m_sim->results[i].name);
    EXPECT_EQ(p_sim->results[i].score, m_sim->results[i].score);
  }

  const auto p_exp = published.TryExpand("cat0", 8);
  const auto m_exp = mapped.TryExpand("cat0", 8);
  ASSERT_TRUE(p_exp.ok());
  ASSERT_TRUE(m_exp.ok());
  ASSERT_EQ(p_exp->results.size(), m_exp->results.size());
  for (size_t i = 0; i < p_exp->results.size(); ++i) {
    EXPECT_EQ(p_exp->results[i].name, m_exp->results[i].name);
    EXPECT_EQ(p_exp->results[i].score, m_exp->results[i].score);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cnpb::reason
