#ifndef CNPROBASE_TAXONOMY_VIEW_H_
#define CNPROBASE_TAXONOMY_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
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

// What changed in a (Taxonomy, MentionIndex) pair since a base view was
// encoded from it, given that in between nodes and edges were only added
// (ServingView::EncodeLayered). Nodes with ids >= the base's num_nodes()
// are appended and need no entry.
struct LayerChanges {
  // Base nodes that were promoted or whose hypernym or hyponym rows gained
  // edges. Any order; duplicates are allowed.
  std::vector<NodeId> nodes;
  // Entries of the mention index whose candidate rows were added or
  // changed. Any order; duplicates are allowed.
  std::vector<const MentionIndex::value_type*> mentions;
};

// The read surface one published ApiService version serves from: node and
// edge queries plus mention resolution over immutable CNPBSNP bytes (the
// format is specified in snapshot.h and DESIGN.md §10).
//
// A view is either folded or layered:
//   - folded: one whole image, either owned — Encode() lays it out in an
//     8-byte-aligned buffer, which is what ApiService::Publish does with a
//     (Taxonomy, MentionIndex) pair — or mmap'd from a file by Load();
//   - layered: a shared folded base plus a small owned delta image that
//     holds only what changed since the base was encoded: the appended
//     nodes, the appended edges of base rows, the promoted kinds and the
//     added or changed mention rows (EncodeLayered). The base is immutable
//     and shared by every version layered on it.
// Every image runs the same validation before it is served, and a delta is
// also checked against its base, so every published version satisfies the
// same invariants: edge targets and mention candidates are < num_nodes(),
// names and mentions are unique, and every hash table reaches every key.
// A layered view answers every query exactly as the folded encoding of
// the same taxonomy would, result order included, and bytes() is that
// folded image; the delta image never leaves memory.
//
// Lookups are array indexing plus one open-addressed hash probe per image
// for Find and MentionCandidates; nothing is copied out of the bytes except
// the TransitiveHypernyms result. A folded view pays one predictable branch
// per call for the layering. All methods are const and safe from any number
// of threads.
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

  // Layers `taxonomy` and `mentions` over `base`, a folded view encoded
  // from an earlier state of the same pair: lays out a delta image of what
  // `changes` names plus every node appended since, validates it on its
  // own and against `base`, and returns a view that answers like
  // Encode(taxonomy, mentions). Costs O(delta), never O(base). Returns
  // null, laying nothing out, when the delta image would exceed
  // `max_delta_bytes`.
  static std::shared_ptr<const ServingView> EncodeLayered(
      std::shared_ptr<const ServingView> base, const Taxonomy& taxonomy,
      const MentionIndex& mentions, const LayerChanges& changes,
      size_t max_delta_bytes);

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

  // kInvalidNode when absent. One probe sequence per image; Init guarantees
  // every table has an empty slot and reaches every key along its own
  // chain.
  NodeId Find(std::string_view name) const {
    const NodeId id = image_.FindName(name);
    if (!layered() || id != kInvalidNode) [[likely]] return id;
    return FindAppended(name);
  }
  // `id` must be < num_nodes(). The view owns the bytes.
  std::string_view Name(NodeId id) const {
    CNPB_CHECK(id < num_nodes_);
    if (id < image_.num_names) [[likely]] return image_.NameAt(id);
    return delta_.NameAt(id - image_.num_names);
  }
  NodeKind Kind(NodeId id) const {
    CNPB_CHECK(id < num_nodes_);
    if (!layered()) [[likely]] return static_cast<NodeKind>(image_.kinds[id]);
    return LayeredKind(id);
  }

  // Caller-supplied out-of-range ids report zero edges rather than failing.
  size_t NumHypernyms(NodeId id) const { return Degree(&Image::hyper, id); }
  size_t NumHyponyms(NodeId id) const { return Degree(&Image::hypo, id); }
  // Calls fn(const HalfEdge&) for each edge adjacent to `id` in canonical
  // order; `fn` returns false to stop early. A layered hypernym row is the
  // base row followed by the appended edges; a layered hyponym row merges
  // the two by ascending hyponym id.
  template <typename Fn>
  void VisitHypernyms(NodeId id, Fn&& fn) const {
    if (!layered()) [[likely]] {
      image_.VisitRow(image_.hyper, id, fn);
      return;
    }
    VisitLayeredHypernyms(id, fn);
  }
  template <typename Fn>
  void VisitHyponyms(NodeId id, Fn&& fn) const {
    if (!layered()) [[likely]] {
      image_.VisitRow(image_.hypo, id, fn);
      return;
    }
    VisitLayeredHyponyms(id, fn);
  }

  // Candidate entities for `mention` in index order (empty when unknown).
  // The span points into the view's bytes and lives as long as the view. A
  // layered view probes the delta first: it holds changed rows whole.
  std::span<const NodeId> MentionCandidates(std::string_view mention) const {
    if (layered()) [[unlikely]] {
      const uint32_t index = delta_.FindMention(mention);
      if (index != kInvalidNode) return delta_.Candidates(index);
    }
    const uint32_t index = image_.FindMention(mention);
    return index == kInvalidNode ? std::span<const NodeId>()
                                 : image_.Candidates(index);
  }
  // Calls fn(std::string_view mention, const NodeId* ids, size_t num_ids)
  // in lexicographic mention order; `fn` returns false to stop early. A
  // layered view merges the two images, a delta row replacing the base row
  // of the same mention.
  template <typename Fn>
  void VisitMentions(Fn&& fn) const {
    if (!layered()) [[likely]] {
      for (uint32_t i = 0; i < image_.num_mentions; ++i) {
        const std::span<const NodeId> ids = image_.Candidates(i);
        if (!fn(image_.MentionAt(i), ids.data(), ids.size())) return;
      }
      return;
    }
    VisitLayeredMentions(fn);
  }

  // All hypernyms reachable by >= 1 isA step, in the order
  // Taxonomy::TransitiveHypernyms yields for the source taxonomy. Costs
  // what the walk reaches, not num_nodes().
  std::vector<NodeId> TransitiveHypernyms(NodeId id,
                                          size_t limit = 10000) const;

  // The folded CNPBSNP image of this view; WriteSnapshot persists it. For a
  // layered view it is encoded from the view on the first call (O(N)) and
  // kept, byte-identical to Encode of the taxonomy the view serves.
  std::string_view bytes() const {
    if (!layered()) [[likely]] {
      return {reinterpret_cast<const char*>(data_), size_};
    }
    return Folded().bytes();
  }

  // Whether this view is a delta over a shared folded base.
  bool layered() const { return base_ != nullptr; }
  // The delta image a layered view laid out (empty for a folded view).
  std::string_view delta_bytes() const {
    return layered() ? std::string_view(
                           reinterpret_cast<const char*>(data_), size_)
                     : std::string_view();
  }

 private:
  // Lays out and validates images (snapshot.cc).
  friend class SnapshotCodec;

  // One edge direction: CSR row starts plus parallel per-edge arrays.
  struct Csr {
    const uint64_t* rows = nullptr;  // num_rows + 1 entries
    const uint32_t* targets = nullptr;
    const uint8_t* sources = nullptr;
    const float* scores = nullptr;

    HalfEdge Edge(uint64_t k) const {
      return {targets[k], static_cast<Source>(sources[k]), scores[k]};
    }
  };

  // The resolved sections of one validated image. A folded image has one
  // row per node, row i being node i. A delta image's rows are its patched
  // base nodes (ascending ids, listed in row_ids) followed by its appended
  // nodes, whose names it holds: appended name i is node base + i.
  struct Image {
    uint32_t num_names = 0;
    uint32_t num_rows = 0;
    uint32_t num_patched = 0;
    uint32_t num_mentions = 0;
    uint64_t num_edges = 0;
    const uint32_t* row_ids = nullptr;  // num_patched entries
    const uint8_t* kinds = nullptr;     // num_rows entries
    const uint64_t* name_offsets = nullptr;
    const char* name_bytes = nullptr;
    const uint32_t* name_slots = nullptr;
    uint64_t name_mask = 0;
    Csr hyper;
    Csr hypo;
    const uint64_t* mention_offsets = nullptr;
    const char* mention_bytes = nullptr;
    const uint64_t* mention_rows = nullptr;
    const uint32_t* mention_ids = nullptr;
    const uint32_t* mention_slots = nullptr;
    uint64_t mention_mask = 0;
    // Per delta mention: 1 when it replaces the base row of that mention.
    const uint8_t* replaces = nullptr;

    std::string_view NameAt(uint32_t index) const {
      const uint64_t begin = name_offsets[index];
      return {name_bytes + begin, name_offsets[index + 1] - begin};
    }
    std::string_view MentionAt(uint32_t index) const {
      const uint64_t begin = mention_offsets[index];
      return {mention_bytes + begin, mention_offsets[index + 1] - begin};
    }
    std::span<const NodeId> Candidates(uint32_t index) const {
      return {mention_ids + mention_rows[index],
              mention_ids + mention_rows[index + 1]};
    }
    // Name index (or kInvalidNode) by one probe sequence.
    uint32_t FindName(std::string_view name) const {
      for (uint64_t slot = util::Fnv1a64(name) & name_mask;;
           slot = (slot + 1) & name_mask) {
        const uint32_t index = name_slots[slot];
        if (index == kInvalidNode || NameAt(index) == name) return index;
      }
    }
    uint32_t FindMention(std::string_view mention) const {
      for (uint64_t slot = util::Fnv1a64(mention) & mention_mask;;
           slot = (slot + 1) & mention_mask) {
        const uint32_t index = mention_slots[slot];
        if (index == kInvalidNode || MentionAt(index) == mention) {
          return index;
        }
      }
    }
    size_t Degree(const Csr& csr, uint32_t row) const {
      return row < num_rows ? csr.rows[row + 1] - csr.rows[row] : 0;
    }
    // Returns false when `fn` stopped the visit; a row out of range is
    // empty.
    template <typename Fn>
    bool VisitRow(const Csr& csr, uint32_t row, Fn& fn) const {
      if (row >= num_rows) return true;
      const uint64_t end = csr.rows[row + 1];
      for (uint64_t k = csr.rows[row]; k < end; ++k) {
        if (!fn(csr.Edge(k))) return false;
      }
      return true;
    }
  };

  ServingView() = default;

  // Validates [data_, data_ + size_) and resolves its sections (snapshot.cc)
  // into image_, or, for a layered view, into delta_ after copying image_
  // from base_ and checking the delta against it. Fans the checks out over
  // the thread pool when `parallel`. `origin_` names the bytes in error
  // messages.
  util::Status Init(bool parallel);

  // The delta row of node `id` of a layered view, or kInvalidNode when the
  // delta holds nothing for it.
  uint32_t DeltaRow(NodeId id) const;
  size_t Degree(Csr Image::*csr, NodeId id) const {
    const size_t base = image_.Degree(image_.*csr, id);
    if (!layered()) [[likely]] return base;
    return base + delta_.Degree(delta_.*csr, DeltaRow(id));
  }
  // The layered paths, kept out of line so the folded fast paths above
  // stay small enough to inline into callers' loops.
  NodeId FindAppended(std::string_view name) const;
  NodeKind LayeredKind(NodeId id) const;
  template <typename Fn>
  [[gnu::noinline]] void VisitLayeredHypernyms(NodeId id, Fn& fn) const {
    if (image_.VisitRow(image_.hyper, id, fn)) {
      delta_.VisitRow(delta_.hyper, DeltaRow(id), fn);
    }
  }
  template <typename Fn>
  [[gnu::noinline]] void VisitLayeredHyponyms(NodeId id, Fn& fn) const {
    const Csr& base = image_.hypo;
    const Csr& delta = delta_.hypo;
    uint64_t b = 0, b_end = 0, d = 0, d_end = 0;
    if (id < image_.num_rows) b = base.rows[id], b_end = base.rows[id + 1];
    if (const uint32_t row = DeltaRow(id); row != kInvalidNode) {
      d = delta.rows[row], d_end = delta.rows[row + 1];
    }
    while (b < b_end || d < d_end) {
      const bool from_base =
          d == d_end || (b < b_end && base.targets[b] < delta.targets[d]);
      const Csr& csr = from_base ? base : delta;
      const uint64_t k = from_base ? b++ : d++;
      if (!fn(csr.Edge(k))) return;
    }
  }
  template <typename Fn>
  [[gnu::noinline]] void VisitLayeredMentions(Fn& fn) const {
    const uint32_t base_end = image_.num_mentions;
    const uint32_t delta_end = delta_.num_mentions;
    for (uint32_t b = 0, d = 0; b < base_end || d < delta_end;) {
      const std::string_view base_key =
          b < base_end ? image_.MentionAt(b) : std::string_view();
      const std::string_view delta_key =
          d < delta_end ? delta_.MentionAt(d) : std::string_view();
      const bool from_base =
          d == delta_end || (b < base_end && base_key < delta_key);
      if (!from_base && b < base_end && base_key == delta_key) ++b;
      const Image& image = from_base ? image_ : delta_;
      const std::span<const NodeId> ids = image.Candidates(from_base ? b++
                                                                     : d++);
      if (!fn(from_base ? base_key : delta_key, ids.data(), ids.size())) {
        return;
      }
    }
  }

  // The folded encoding of a layered view, made on first use.
  const ServingView& Folded() const;

  // Exactly one of these holds the bytes that data_/size_ describe: the
  // folded image, or a layered view's delta image. The owned array is of
  // unsigned char so the typed section arrays may live in it; new[] aligns
  // it for any fundamental type.
  std::unique_ptr<unsigned char[]> owned_;
  util::MmapFile file_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string origin_;

  // A layered view's folded base; image_ points into its bytes.
  std::shared_ptr<const ServingView> base_;
  Image image_;  // the folded image (this view's own, or base_'s)
  Image delta_;  // a layered view's delta image
  // Totals over both images.
  uint32_t num_nodes_ = 0;
  uint32_t num_mentions_ = 0;
  uint64_t num_edges_ = 0;

  // bytes() of a layered view.
  mutable std::once_flag fold_once_;
  mutable std::shared_ptr<const ServingView> folded_;
};

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_VIEW_H_
