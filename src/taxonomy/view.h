#ifndef CNPROBASE_TAXONOMY_VIEW_H_
#define CNPROBASE_TAXONOMY_VIEW_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "taxonomy/taxonomy.h"

namespace cnpb::taxonomy {

// mention -> candidate entity nodes, as built for one taxonomy version.
// (Alias kept on ApiService for existing callers.)
using MentionIndex = std::unordered_map<std::string, std::vector<NodeId>>;

// One isA edge as seen from a fixed endpoint: `node` is the other endpoint
// (the hypernym when visiting hypernyms, the hyponym when visiting
// hyponyms).
struct HalfEdge {
  NodeId node = kInvalidNode;
  Source source = Source::kImported;
  float score = 1.0f;
};

// The read surface one published ApiService version serves from: node and
// edge queries plus mention resolution, over an immutable taxonomy. Two
// implementations exist — HeapServingView (a frozen Taxonomy plus a
// MentionIndex hash map, the classic TSV-loaded path) and Snapshot (the
// zero-copy mmap-backed binary format, see snapshot.h). ApiService queries
// are written against this interface so the two are interchangeable and
// must answer identically (tests/snapshot_test.cc holds them to that).
//
// Everything reachable from a ServingView must be immutable once the view
// is published: all methods are const and safe from any number of threads.
//
// Determinism contract: edge visitation order is the canonical
// serialization order — hypernym rows in node-id order with per-row
// insertion order preserved, hyponym rows replaying that same global edge
// sequence — and VisitMentions iterates mentions in lexicographic byte
// order. This is what makes snapshot round-trips byte-identical and
// query results order-stable across backends.
class ServingView {
 public:
  virtual ~ServingView() = default;

  virtual size_t num_nodes() const = 0;
  virtual size_t num_edges() const = 0;

  // kInvalidNode when absent.
  virtual NodeId Find(std::string_view name) const = 0;
  // `id` must be < num_nodes(). The view owns the bytes.
  virtual std::string_view Name(NodeId id) const = 0;
  virtual NodeKind Kind(NodeId id) const = 0;

  // Out-of-range ids (e.g. from a caller-supplied MentionIndex built for a
  // different taxonomy) report zero edges rather than failing.
  virtual size_t NumHypernyms(NodeId id) const = 0;
  virtual size_t NumHyponyms(NodeId id) const = 0;
  // Visits edges adjacent to `id` in canonical order; `fn` returns false to
  // stop early.
  virtual void VisitHypernyms(
      NodeId id, const std::function<bool(const HalfEdge&)>& fn) const = 0;
  virtual void VisitHyponyms(
      NodeId id, const std::function<bool(const HalfEdge&)>& fn) const = 0;

  virtual size_t num_mentions() const = 0;
  virtual bool HasMention(std::string_view mention) const = 0;
  // Candidate entities for `mention` in index order (empty when unknown).
  virtual std::vector<NodeId> MentionCandidates(
      std::string_view mention) const = 0;
  // Visits (mention, candidate ids) pairs in lexicographic mention order;
  // `fn` returns false to stop early.
  virtual void VisitMentions(
      const std::function<bool(std::string_view, const NodeId* ids,
                               size_t num_ids)>& fn) const = 0;

  // All hypernyms reachable by >= 1 isA step. Shared BFS over
  // VisitHypernyms so every backend yields the same order (mirrors
  // Taxonomy::TransitiveHypernyms).
  std::vector<NodeId> TransitiveHypernyms(NodeId id,
                                          size_t limit = 10000) const;
};

// The classic serving backend: a frozen Taxonomy plus its rebuilt mention
// index, both heap-owned.
class HeapServingView final : public ServingView {
 public:
  HeapServingView(std::shared_ptr<const Taxonomy> taxonomy,
                  MentionIndex mentions);

  size_t num_nodes() const override { return taxonomy_->num_nodes(); }
  size_t num_edges() const override { return taxonomy_->num_edges(); }
  NodeId Find(std::string_view name) const override {
    return taxonomy_->Find(name);
  }
  std::string_view Name(NodeId id) const override {
    return taxonomy_->Name(id);
  }
  NodeKind Kind(NodeId id) const override { return taxonomy_->Kind(id); }
  size_t NumHypernyms(NodeId id) const override {
    return taxonomy_->Hypernyms(id).size();
  }
  size_t NumHyponyms(NodeId id) const override {
    return taxonomy_->Hyponyms(id).size();
  }
  void VisitHypernyms(
      NodeId id,
      const std::function<bool(const HalfEdge&)>& fn) const override;
  void VisitHyponyms(
      NodeId id,
      const std::function<bool(const HalfEdge&)>& fn) const override;

  size_t num_mentions() const override { return mentions_.size(); }
  bool HasMention(std::string_view mention) const override;
  std::vector<NodeId> MentionCandidates(
      std::string_view mention) const override;
  void VisitMentions(
      const std::function<bool(std::string_view, const NodeId*, size_t)>& fn)
      const override;

 private:
  std::shared_ptr<const Taxonomy> taxonomy_;
  MentionIndex mentions_;
};

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_VIEW_H_
