#ifndef CNPROBASE_TAXONOMY_VIEW_H_
#define CNPROBASE_TAXONOMY_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/status.h"

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
// edge queries plus mention resolution over one immutable CNPBSNP image
// (the format is specified in snapshot.h and DESIGN.md §10). The bytes are
// either owned — Encode() lays them out in an 8-byte-aligned buffer, which
// is what ApiService::Publish does with a (Taxonomy, MentionIndex) pair —
// or mmap'd from a file by Load(). Both run the same validation, so every
// published version satisfies the same invariants: edge targets and
// mention candidates are < num_nodes(), names and mentions are unique, and
// both hash tables reach every key.
//
// Lookups are array indexing plus one open-addressed hash probe for Find
// and MentionCandidates; nothing is copied out of the bytes except the
// TransitiveHypernyms result. All methods are const and safe from any
// number of threads.
//
// Determinism contract: edge visitation order is the canonical
// serialization order — hypernym rows in node-id order with per-row
// insertion order preserved, hyponym rows replaying that same global edge
// sequence bucketed by hypernym (so a hyponym row lists hyponyms in
// ascending id order) — and VisitMentions iterates mentions in
// lexicographic byte order. Encoding a builder-built taxonomy and a copy
// materialized from its view therefore yields identical bytes and identical
// answers, result order included.
class ServingView {
 public:
  // Encodes `taxonomy` and `mentions` into owned CNPBSNP bytes. Candidate
  // ids >= taxonomy.num_nodes() (an index built for another taxonomy) are
  // dropped; candidate order within a mention is kept.
  static std::shared_ptr<const ServingView> Encode(
      const Taxonomy& taxonomy, const MentionIndex& mentions);

  // mmaps `path` and validates it (see snapshot.h). Errors:
  //   kNotFound         `path` does not exist
  //   kIoError          unreadable/unmappable file (or injected
  //                     snapshot.load.read fault)
  //   kInvalidArgument  not structurally a snapshot
  //   kDataLoss         integrity failure (truncated, corrupt, trailing
  //                     bytes)
  static util::Result<std::shared_ptr<const ServingView>> Load(
      const std::string& path);

  ServingView(const ServingView&) = delete;
  ServingView& operator=(const ServingView&) = delete;

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }
  size_t num_mentions() const { return num_mentions_; }

  // kInvalidNode when absent. One probe sequence; Init guarantees every
  // table has an empty slot and reaches every key along its own chain.
  NodeId Find(std::string_view name) const {
    for (uint64_t slot = util::Fnv1a64(name) & name_mask_;;
         slot = (slot + 1) & name_mask_) {
      const NodeId id = name_slots_[slot];
      if (id == kInvalidNode || NameAt(id) == name) return id;
    }
  }
  // `id` must be < num_nodes(). The view owns the bytes.
  std::string_view Name(NodeId id) const {
    CNPB_CHECK(id < num_nodes_);
    return NameAt(id);
  }
  NodeKind Kind(NodeId id) const {
    CNPB_CHECK(id < num_nodes_);
    return static_cast<NodeKind>(kinds_[id]);
  }

  // Caller-supplied out-of-range ids report zero edges rather than failing.
  size_t NumHypernyms(NodeId id) const { return Degree(hyper_, id); }
  size_t NumHyponyms(NodeId id) const { return Degree(hypo_, id); }
  // Calls fn(const HalfEdge&) for each edge adjacent to `id` in canonical
  // order; `fn` returns false to stop early.
  template <typename Fn>
  void VisitHypernyms(NodeId id, Fn&& fn) const {
    VisitRow(hyper_, id, fn);
  }
  template <typename Fn>
  void VisitHyponyms(NodeId id, Fn&& fn) const {
    VisitRow(hypo_, id, fn);
  }

  // Candidate entities for `mention` in index order (empty when unknown).
  // The span points into the view's bytes and lives as long as the view.
  std::span<const NodeId> MentionCandidates(std::string_view mention) const {
    for (uint64_t slot = util::Fnv1a64(mention) & mention_mask_;;
         slot = (slot + 1) & mention_mask_) {
      const uint32_t index = mention_slots_[slot];
      if (index == kInvalidNode) return {};
      if (MentionAt(index) == mention) {
        return {mention_ids_ + mention_rows_[index],
                mention_ids_ + mention_rows_[index + 1]};
      }
    }
  }
  // Calls fn(std::string_view mention, const NodeId* ids, size_t num_ids)
  // in lexicographic mention order; `fn` returns false to stop early.
  template <typename Fn>
  void VisitMentions(Fn&& fn) const {
    for (uint32_t i = 0; i < num_mentions_; ++i) {
      const uint64_t begin = mention_rows_[i];
      if (!fn(MentionAt(i), mention_ids_ + begin,
              static_cast<size_t>(mention_rows_[i + 1] - begin))) {
        return;
      }
    }
  }

  // All hypernyms reachable by >= 1 isA step, in the order
  // Taxonomy::TransitiveHypernyms yields for the source taxonomy.
  std::vector<NodeId> TransitiveHypernyms(NodeId id,
                                          size_t limit = 10000) const;

  // The CNPBSNP image this view serves from; WriteSnapshot persists it.
  std::string_view bytes() const {
    return {reinterpret_cast<const char*>(base_), size_};
  }

 private:
  // One edge direction: CSR row starts plus parallel per-edge arrays.
  struct Csr {
    const uint64_t* rows = nullptr;  // num_nodes + 1 entries
    const uint32_t* targets = nullptr;
    const uint8_t* sources = nullptr;
    const float* scores = nullptr;
  };

  ServingView() = default;

  // Validates [base_, base_ + size_) and resolves the section pointers
  // (snapshot.cc), fanning the checks out over the thread pool when
  // `parallel`. `origin_` names the bytes in error messages.
  util::Status Init(bool parallel);

  std::string_view NameAt(NodeId id) const {
    const uint64_t begin = name_offsets_[id];
    return {name_bytes_ + begin, name_offsets_[id + 1] - begin};
  }
  std::string_view MentionAt(uint32_t index) const {
    const uint64_t begin = mention_offsets_[index];
    return {mention_bytes_ + begin, mention_offsets_[index + 1] - begin};
  }
  size_t Degree(const Csr& csr, NodeId id) const {
    return id < num_nodes_ ? csr.rows[id + 1] - csr.rows[id] : 0;
  }
  template <typename Fn>
  void VisitRow(const Csr& csr, NodeId id, Fn& fn) const {
    if (id >= num_nodes_) return;
    const uint64_t end = csr.rows[id + 1];
    for (uint64_t k = csr.rows[id]; k < end; ++k) {
      if (!fn(HalfEdge{csr.targets[k], static_cast<Source>(csr.sources[k]),
                       csr.scores[k]})) {
        return;
      }
    }
  }

  // Exactly one of these holds the bytes that base_/size_ describe. The
  // owned array is of unsigned char so the typed section arrays may live
  // in it; new[] aligns it for any fundamental type.
  std::unique_ptr<unsigned char[]> owned_;
  util::MmapFile file_;
  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  std::string origin_;

  uint32_t num_nodes_ = 0;
  uint32_t num_mentions_ = 0;
  uint64_t num_edges_ = 0;
  const uint8_t* kinds_ = nullptr;
  const uint64_t* name_offsets_ = nullptr;
  const char* name_bytes_ = nullptr;
  const uint32_t* name_slots_ = nullptr;
  uint64_t name_mask_ = 0;
  Csr hyper_;
  Csr hypo_;
  const uint64_t* mention_offsets_ = nullptr;
  const char* mention_bytes_ = nullptr;
  const uint64_t* mention_rows_ = nullptr;
  const uint32_t* mention_ids_ = nullptr;
  const uint32_t* mention_slots_ = nullptr;
  uint64_t mention_mask_ = 0;
};

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_VIEW_H_
