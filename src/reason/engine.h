#ifndef CNPROBASE_REASON_ENGINE_H_
#define CNPROBASE_REASON_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "taxonomy/view.h"

namespace cnpb::reason {

// Pure graph reasoning over one pinned ServingView (DESIGN.md §14). Every
// function here is stateless and reads only the view it is handed, so the
// caller owns version coherence: pin a view, run the query, stamp the
// result with that view's version.
//
// Cycle-safety contract: every traversal in this file carries an explicit
// visited set and terminates on arbitrary isA graphs. Taxonomy::AddIsa only
// rejects self-loops — multi-node cycles can and do reach serving (synth
// worlds emit them via merge), so termination must never rely on the graph
// being a DAG. A node is expanded at most once per traversal; BFS order
// makes the first touch the minimal isA distance, which is what the depth
// tags below mean even on cyclic graphs.
//
// Determinism contract: discovery follows the view's canonical edge order
// (see view.h) and every ranking is totally ordered — score, then
// tie-break score, then node id — so a version answers bit-identically
// whether it was published in memory or mmap'd from its written file, and
// a ranking is fixed by its scoring formula alone
// (tests/reason_equivalence_test.cc checks both against the source
// Taxonomy). Edge targets are always < num_nodes() in a served view
// (view.h); only caller-supplied ids are range-checked here.

struct IsaResult {
  bool reached = false;
  // Minimal number of isA steps from entity to concept when reached
  // (0 == same node), -1 otherwise.
  int depth = -1;
  // Witness path entity..concept inclusive when reached, empty otherwise.
  std::vector<taxonomy::NodeId> path;
};

// Bounded transitive isA: is `concept_id` reachable from `entity_id` by at
// most `max_depth` upward (hypernym) steps? Iterative BFS; the visited map
// doubles as the parent map for witness-path reconstruction, so cost is
// proportional to the explored subgraph, not the taxonomy.
IsaResult IsaClosure(const taxonomy::ServingView& view,
                     taxonomy::NodeId entity_id, taxonomy::NodeId concept_id,
                     size_t max_depth);

struct Ancestor {
  taxonomy::NodeId node = taxonomy::kInvalidNode;
  uint32_t depth = 0;  // minimal isA distance from the start node
};

// Every ancestor reachable in [1, max_depth] steps, depth-tagged, in BFS
// level order (canonical edge order within a level), excluding the start
// node. Capped at `limit` nodes.
std::vector<Ancestor> Ancestors(const taxonomy::ServingView& view,
                                taxonomy::NodeId id, size_t max_depth,
                                size_t limit = 10000);

struct LcaResult {
  taxonomy::NodeId node = taxonomy::kInvalidNode;  // kInvalidNode: none
  uint32_t depth_a = 0;  // minimal isA distance from a
  uint32_t depth_b = 0;  // minimal isA distance from b
};

// Lowest common ancestor via two depth-tagged upward sweeps bounded by
// `max_depth` each. A node is its own ancestor at depth 0, so
// LCA(x, x) == x and LCA(child, parent) == parent. Tie-breaking among
// common ancestors: minimal depth_a + depth_b, then minimal
// max(depth_a, depth_b), then smallest node id.
LcaResult LowestCommonAncestor(const taxonomy::ServingView& view,
                               taxonomy::NodeId a, taxonomy::NodeId b,
                               size_t max_depth);

struct Scored {
  taxonomy::NodeId node = taxonomy::kInvalidNode;
  double score = 0.0;  // Jaccard / weighted overlap, in (0, 1]
  float tie = 0.0f;    // best shared-edge (CopyNet) score, the tie-breaker
};

// Sibling / similar-entity query: candidates are co-hyponyms (nodes
// sharing at least one direct hypernym with `id`), ranked by Jaccard
// overlap of direct-hypernym sets; ties broken by the candidate's best
// edge score to a shared hypernym (CopyNet confidence where the edge came
// from the generation stage), then node id. At most `max_candidates`
// distinct candidates are examined, in canonical discovery order.
std::vector<Scored> SimilarEntities(const taxonomy::ServingView& view,
                                    taxonomy::NodeId id, size_t k,
                                    size_t max_candidates = 4096);

// Concept expansion: ranks candidate children for seed concept `id`
// (HiExpan-style tree growth). A hypernym profile is built from the seed's
// existing children — each co-occurring hypernym weighted by the fraction
// of children carrying it — and candidates (hyponyms of profile concepts,
// minus the seed and its existing children) are scored by the weighted
// overlap between their own hypernym set and the profile, normalised
// Jaccard-style by the union size. Childless seeds fall back to a profile
// of the seed's own hypernyms, which ranks the seed's siblings' style of
// node instead of returning nothing.
std::vector<Scored> ExpandConcept(const taxonomy::ServingView& view,
                                  taxonomy::NodeId id, size_t k,
                                  size_t max_candidates = 4096);

}  // namespace cnpb::reason

#endif  // CNPROBASE_REASON_ENGINE_H_
