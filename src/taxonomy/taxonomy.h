#ifndef CNPROBASE_TAXONOMY_TAXONOMY_H_
#define CNPROBASE_TAXONOMY_TAXONOMY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace cnpb::taxonomy {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

// Where an isA relation came from; drives the per-source precision
// experiment and provenance-aware verification.
enum class Source : uint8_t {
  kBracket = 0,   // separation algorithm on the disambiguation bracket
  kAbstract,      // neural generation (CopyNet) over the abstract
  kInfobox,       // predicate discovery over SPO triples
  kTag,           // direct extraction from tags
  kTranslation,   // Probase-Tran baseline
  kImported,      // other baselines / gold
};
inline constexpr int kNumSources = 6;

const char* SourceName(Source source);

enum class NodeKind : uint8_t {
  kEntity = 0,  // disambiguated instance, e.g. 刘德华（中国香港男演员、歌手）
  kConcept,     // hypernym word/phrase, e.g. 演员
};

// One hypernym-hyponym edge: isA(hypo, hyper).
struct IsaEdge {
  NodeId hypo = kInvalidNode;
  NodeId hyper = kInvalidNode;
  Source source = Source::kImported;
  float score = 1.0f;
};

// The conceptual taxonomy: interned nodes (entities and concepts) plus isA
// edges with bidirectional adjacency indexes. This is the structure the
// paper reports sizes for (15M entities / 270k concepts / 33M isA) and that
// backs the three public APIs.
class Taxonomy {
 public:
  Taxonomy() = default;

  // Moves are fine; copies are expensive and deleted to avoid accidents.
  // Clone() is the explicit deep copy.
  Taxonomy(const Taxonomy&) = delete;
  Taxonomy& operator=(const Taxonomy&) = delete;
  Taxonomy(Taxonomy&&) = default;
  Taxonomy& operator=(Taxonomy&&) = default;

  // Freezes a fully-built taxonomy into an immutable, shareable snapshot.
  // After freezing, nothing may mutate the object: all const queries are
  // then safe from any number of threads, and the snapshot can be published
  // to a live ApiService (see util::SnapshotHolder and DESIGN.md §6).
  static std::shared_ptr<const Taxonomy> Freeze(Taxonomy&& taxonomy) {
    return std::make_shared<const Taxonomy>(std::move(taxonomy));
  }

  // A deep copy: same names, ids, kinds, edges (row order included) and
  // source counts, sharing nothing with this object.
  Taxonomy Clone() const;

  // Interns a node; returns the existing id when (name) is already present.
  // A name keeps the kind it was first added with; adding the same name with
  // a different kind returns the existing node unchanged (entities and
  // concepts live in one namespace, as in the paper where a concept string
  // can also be an encyclopedia entity).
  NodeId AddNode(std::string_view name, NodeKind kind);

  // Turns an entity into a concept, e.g. once it is seen as a hypernym. The
  // node keeps its id, name and edges; a concept is left as it is.
  void PromoteToConcept(NodeId id);

  // Adds isA(hypo, hyper); deduplicates exact (hypo, hyper) pairs. Returns
  // true if the edge was new. Self-loops are rejected (returns false).
  bool AddIsa(NodeId hypo, NodeId hyper, Source source, float score = 1.0f);

  // Convenience: interns both names and adds the edge. `hypo_kind` defaults
  // to entity and the hypernym side is always a concept.
  bool AddIsa(std::string_view hypo, std::string_view hyper, Source source,
              float score = 1.0f, NodeKind hypo_kind = NodeKind::kEntity);

  // Removes an edge; returns true if it existed.
  bool RemoveIsa(NodeId hypo, NodeId hyper);

  NodeId Find(std::string_view name) const;  // kInvalidNode if absent
  bool HasNode(std::string_view name) const { return Find(name) != kInvalidNode; }
  bool HasIsa(NodeId hypo, NodeId hyper) const;

  const std::string& Name(NodeId id) const;
  NodeKind Kind(NodeId id) const;

  size_t num_nodes() const { return names_.size(); }
  size_t num_edges() const { return num_edges_; }
  size_t NumEntities() const;
  size_t NumConcepts() const;
  // Entity->concept edge count vs concept->concept edge count.
  size_t NumEntityConceptEdges() const;
  size_t NumSubconceptEdges() const;
  size_t NumEdgesFromSource(Source source) const;

  // Direct hypernyms of `id` (edges id -> hyper).
  const std::vector<IsaEdge>& Hypernyms(NodeId id) const;
  // Direct hyponyms of `id` (edges hypo -> id).
  const std::vector<IsaEdge>& Hyponyms(NodeId id) const;

  // All hypernyms reachable by >= 1 isA step (BFS; capped at `limit`).
  std::vector<NodeId> TransitiveHypernyms(NodeId id, size_t limit = 10000) const;

  // True if adding hypo->hyper would create a cycle through existing edges.
  bool WouldCreateCycle(NodeId hypo, NodeId hyper) const;

  // Verifies no directed cycle exists among concept-concept edges.
  bool IsAcyclic() const;

  // Iterates every edge (by value snapshot order: grouped by hyponym).
  void ForEachEdge(const std::function<void(const IsaEdge&)>& fn) const;

  // All node ids of the given kind.
  std::vector<NodeId> NodesOfKind(NodeKind kind) const;

 private:
  static const std::vector<IsaEdge>& EmptyEdges();

  // deque gives stable element addresses, so index_ can key string_views
  // into names_ without copies.
  std::deque<std::string> names_;
  std::vector<NodeKind> kinds_;
  std::unordered_map<std::string_view, NodeId> index_;  // views into names_
  // Adjacency: per-node outgoing (hypernyms) and incoming (hyponyms) edges.
  std::unordered_map<NodeId, std::vector<IsaEdge>> hypernyms_;
  std::unordered_map<NodeId, std::vector<IsaEdge>> hyponyms_;
  size_t num_edges_ = 0;
  size_t source_counts_[kNumSources] = {0, 0, 0, 0, 0, 0};
};

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_TAXONOMY_H_
