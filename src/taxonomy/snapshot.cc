#include "taxonomy/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"

namespace cnpb::taxonomy {

namespace {

// Fixed header field offsets (bytes from the start of the file).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffSectionCount = 12;
constexpr size_t kOffNumNodes = 16;
constexpr size_t kOffNumMentions = 20;
constexpr size_t kOffNumEdges = 24;
constexpr size_t kOffTotalSize = 32;
constexpr size_t kOffHeaderCrc = 40;
// Delta images only: the node count of the base they layer over.
constexpr size_t kOffBaseNodes = 44;

// Section ids, in file order. A delta image appends the last two.
enum SectionId : uint32_t {
  kKinds = 0,
  kNameOffsets,
  kNameBytes,
  kNameHash,
  kHyperRows,
  kHyperTargets,
  kHyperSources,
  kHyperScores,
  kHypoRows,
  kHypoTargets,
  kHypoSources,
  kHypoScores,
  kMentionOffsets,
  kMentionBytes,
  kMentionRows,
  kMentionIds,
  kMentionHash,
  kRowIds,
  kMentionReplaces,
};

using SectionSizes = std::array<uint64_t, kSnapshotDeltaSectionCount>;

constexpr size_t Align8(size_t x) { return (x + 7) & ~size_t{7}; }

constexpr size_t PreludeSize(uint32_t sections) {
  return kSnapshotHeaderSize + sections * kSnapshotSectionEntrySize;
}

// The size of every section, given the counts and the three arena sizes.
// A folded image has one row per name and no patched rows; a delta image
// has `patched` base rows before the rows of its `names` appended nodes.
// The writer lays sections out with it and the loader requires it.
SectionSizes ExpectedSectionSizes(uint64_t names, uint64_t patched,
                                  uint64_t e, uint64_t m, uint64_t name_bytes,
                                  uint64_t mention_bytes,
                                  uint64_t candidates) {
  const uint64_t rows = patched + names;
  return {
      rows,                                // kinds
      8 * (names + 1),                     // name offsets
      name_bytes,                          // name arena
      4 * SnapshotHashSlots(names),        // name hash
      8 * (rows + 1), 4 * e, e, 4 * e,     // hyper rows/targets/sources/scores
      8 * (rows + 1), 4 * e, e, 4 * e,     // hypo rows/targets/sources/scores
      8 * (m + 1),                         // mention offsets
      mention_bytes,                       // mention arena
      8 * (m + 1),                         // mention rows
      4 * candidates,                      // mention ids
      4 * SnapshotHashSlots(m),            // mention hash
      4 * patched,                         // row ids (delta)
      m,                                   // mention replaces (delta)
  };
}

template <typename T>
void PutPod(void* p, T value) {
  std::memcpy(p, &value, sizeof(T));
}

template <typename T>
T GetPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Fills a hash section: keys 0..num_keys-1 inserted in index order by
// linear probing from their FNV-1a home slot.
template <typename KeyAt>
void FillHashSection(uint32_t* slots, uint64_t num_slots, uint64_t num_keys,
                     const KeyAt& key_at) {
  std::fill(slots, slots + num_slots, kInvalidNode);
  const uint64_t mask = num_slots - 1;
  for (uint64_t i = 0; i < num_keys; ++i) {
    uint64_t slot = util::Fnv1a64(key_at(i)) & mask;
    while (slots[slot] != kInvalidNode) slot = (slot + 1) & mask;
    slots[slot] = static_cast<uint32_t>(i);
  }
}

// Header CRC over the prelude with the CRC field taken as zero.
uint32_t PreludeCrc(const uint8_t* base, uint32_t sections) {
  std::array<char, PreludeSize(kSnapshotDeltaSectionCount)> prelude;
  const size_t size = PreludeSize(sections);
  std::memcpy(prelude.data(), base, size);
  PutPod<uint32_t>(prelude.data() + kOffHeaderCrc, 0);
  return util::Crc32c(std::string_view(prelude.data(), size));
}

// The section count an image with this magic has; 0 for neither magic.
uint32_t SectionCountOf(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderSize) return 0;
  const std::string_view magic = bytes.substr(0, kSnapshotMagic.size());
  if (magic == kSnapshotMagic) return kSnapshotSectionCount;
  if (magic == kSnapshotDeltaMagic) return kSnapshotDeltaSectionCount;
  return 0;
}

}  // namespace

// Lays out folded and delta images; ServingView::Init validates them.
class SnapshotCodec {
 public:
  // An image's bytes, in an owned buffer new[] aligns for the typed
  // sections.
  struct Buffer {
    std::unique_ptr<unsigned char[]> bytes;
    size_t size = 0;
  };

  // The folded image of (taxonomy, mentions) when `base` is null; else the
  // delta image of what `changes` names, plus every appended node, over
  // the folded `base`. Empty when it would exceed `max_bytes`.
  static Buffer LayOut(const Taxonomy& taxonomy, const MentionIndex& mentions,
                       const ServingView* base, const LayerChanges* changes,
                       size_t max_bytes);

  // Validates `image` (over `base` when not null) and serves it.
  static util::Result<std::shared_ptr<const ServingView>> Serve(
      Buffer image, std::shared_ptr<const ServingView> base) {
    std::shared_ptr<ServingView> view(new ServingView());
    view->owned_ = std::move(image.bytes);
    view->data_ = view->owned_.get();
    view->size_ = image.size;
    view->base_ = std::move(base);
    view->origin_ = view->layered() ? "<delta>" : "<encoded>";
    // Validated inline: a publish shares the machine with the readers it
    // serves, and at publish sizes fanning out onto their cores costs more
    // than the checks.
    CNPB_RETURN_IF_ERROR(view->Init(/*parallel=*/false));
    return std::shared_ptr<const ServingView>(std::move(view));
  }
};

SnapshotCodec::Buffer SnapshotCodec::LayOut(const Taxonomy& taxonomy,
                                            const MentionIndex& mentions,
                                            const ServingView* base,
                                            const LayerChanges* changes,
                                            size_t max_bytes) {
  const bool delta = base != nullptr;
  CNPB_CHECK(!delta || !base->layered()) << "a delta layers over a folded base";
  const uint64_t base_nodes = delta ? base->num_nodes() : 0;
  const uint64_t total_nodes = taxonomy.num_nodes();
  CNPB_CHECK(total_nodes < kInvalidNode) << "taxonomy too large to encode";
  CNPB_CHECK(total_nodes >= base_nodes) << "taxonomy lost nodes since its base";
  // Rows: the patched base nodes in ascending id order, then one per node
  // from base_nodes on. A folded image has no patched rows, so row i is
  // node i.
  std::vector<NodeId> patched;
  if (delta) {
    patched = changes->nodes;
    std::sort(patched.begin(), patched.end());
    patched.erase(std::unique(patched.begin(), patched.end()), patched.end());
    CNPB_CHECK(patched.empty() || patched.back() < base_nodes)
        << "a patched node is not a base node";
  }
  const uint64_t p = patched.size();
  const uint64_t n = total_nodes - base_nodes;  // names this image holds
  const uint64_t rows = p + n;
  const auto node_of = [&](uint64_t row) -> NodeId {
    return static_cast<NodeId>(row < p ? patched[row] : base_nodes + row - p);
  };
  const auto row_of = [&](NodeId id) -> uint64_t {
    if (id >= base_nodes) return p + (id - base_nodes);
    const auto it = std::lower_bound(patched.begin(), patched.end(), id);
    CNPB_CHECK(it != patched.end() && *it == id)
        << "an appended edge ends at an unlisted base node";
    return static_cast<uint64_t>(it - patched.begin());
  };
  // Edges only append between folds, so a delta holds exactly the edges
  // its base lacks.
  const uint64_t e = taxonomy.num_edges() - (delta ? base->num_edges() : 0);
  // Mentions in byte order: the arena order VisitMentions promises. Each
  // entry carries its first 8 bytes as a big-endian integer, so most
  // comparisons settle without touching the scattered key strings (this
  // sort was the largest part of a publish).
  struct MentionEntry {
    uint64_t prefix = 0;
    std::string_view mention;
    const std::vector<NodeId>* ids = nullptr;
  };
  std::vector<MentionEntry> sorted;
  const auto add_mention = [&](const MentionIndex::value_type& indexed) {
    const std::string& mention = indexed.first;
    MentionEntry entry{0, mention, &indexed.second};
    for (size_t i = 0; i < 8; ++i) {
      entry.prefix = entry.prefix << 8 |
                     (i < mention.size()
                          ? static_cast<unsigned char>(mention[i])
                          : 0u);
    }
    sorted.push_back(entry);
  };
  if (delta) {
    sorted.reserve(changes->mentions.size());
    for (const MentionIndex::value_type* indexed : changes->mentions) {
      add_mention(*indexed);
    }
  } else {
    sorted.reserve(mentions.size());
    for (const MentionIndex::value_type& indexed : mentions) {
      add_mention(indexed);
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const MentionEntry& a, const MentionEntry& b) {
              return a.prefix != b.prefix ? a.prefix < b.prefix
                                          : a.mention < b.mention;
            });
  if (delta) {  // a mention index has unique keys; a change list may not
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const MentionEntry& a, const MentionEntry& b) {
                               return a.mention == b.mention;
                             }),
                 sorted.end());
  }
  const uint64_t m = sorted.size();
  CNPB_CHECK(m < kInvalidNode) << "mention index too large to encode";
  uint64_t name_bytes = 0;
  for (uint64_t i = 0; i < n; ++i) {
    name_bytes += taxonomy.Name(static_cast<NodeId>(base_nodes + i)).size();
  }
  uint64_t mention_bytes = 0;
  uint64_t candidates = 0;
  for (const MentionEntry& entry : sorted) {
    mention_bytes += entry.mention.size();
    for (const NodeId id : *entry.ids) candidates += id < total_nodes ? 1 : 0;
  }

  const uint32_t section_count =
      delta ? kSnapshotDeltaSectionCount : kSnapshotSectionCount;
  const SectionSizes sizes = ExpectedSectionSizes(
      n, p, e, m, name_bytes, mention_bytes, candidates);
  SectionSizes offsets{};
  uint64_t total = PreludeSize(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    total = Align8(total);
    offsets[i] = total;
    total += sizes[i];
  }
  if (total > max_bytes) return {};
  // Value-initialised, so the padding between sections is zero.
  Buffer image{std::make_unique<unsigned char[]>(total), total};
  uint8_t* const bytes = image.bytes.get();
  CNPB_CHECK(reinterpret_cast<uintptr_t>(bytes) % 8 == 0);
  const auto u64 = [&](SectionId id) {
    return reinterpret_cast<uint64_t*>(bytes + offsets[id]);
  };
  const auto u32 = [&](SectionId id) {
    return reinterpret_cast<uint32_t*>(bytes + offsets[id]);
  };
  const auto f32 = [&](SectionId id) {
    return reinterpret_cast<float*>(bytes + offsets[id]);
  };
  const auto chars = [&](SectionId id) {
    return reinterpret_cast<char*>(bytes + offsets[id]);
  };

  // Nodes: kinds per row, the name arena with its offset index, the name
  // hash.
  for (uint64_t row = 0; row < rows; ++row) {
    bytes[offsets[kKinds] + row] =
        static_cast<uint8_t>(taxonomy.Kind(node_of(row)));
  }
  uint64_t* const name_offsets = u64(kNameOffsets);
  uint64_t cursor = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const std::string& name =
        taxonomy.Name(static_cast<NodeId>(base_nodes + i));
    std::memcpy(chars(kNameBytes) + cursor, name.data(), name.size());
    name_offsets[i] = cursor;
    cursor += name.size();
  }
  name_offsets[n] = cursor;
  FillHashSection(u32(kNameHash), sizes[kNameHash] / 4, n,
                  [&](uint64_t i) -> std::string_view {
                    return taxonomy.Name(static_cast<NodeId>(base_nodes + i));
                  });

  // Canonical edge sequence (see snapshot.h): the hypernym CSR is the
  // sequence itself; the hyponym CSR replays it bucketed by hypernym. Rows
  // run in ascending node order, so each hyponym row ascends too. A patched
  // row holds only the edges appended after its base row.
  uint64_t* const hyper_rows = u64(kHyperRows);
  uint32_t* const hyper_targets = u32(kHyperTargets);
  uint8_t* const hyper_sources = bytes + offsets[kHyperSources];
  float* const hyper_scores = f32(kHyperScores);
  uint64_t k = 0;
  for (uint64_t row = 0; row < rows; ++row) {
    const NodeId id = node_of(row);
    const std::vector<IsaEdge>& edges = taxonomy.Hypernyms(id);
    const size_t skip = row < p ? base->NumHypernyms(id) : 0;
    CNPB_CHECK(skip <= edges.size()) << "a base row lost edges";
    for (size_t i = skip; i < edges.size(); ++i) {
      CNPB_CHECK(k < e) << "taxonomy edge count disagrees with its rows";
      hyper_targets[k] = edges[i].hyper;
      hyper_sources[k] = static_cast<uint8_t>(edges[i].source);
      hyper_scores[k] = edges[i].score;
      ++k;
    }
    hyper_rows[row + 1] = k;
  }
  CNPB_CHECK(k == e) << "taxonomy edge count disagrees with its rows";
  uint64_t* const hypo_rows = u64(kHypoRows);
  for (uint64_t i = 0; i < e; ++i) ++hypo_rows[row_of(hyper_targets[i]) + 1];
  for (uint64_t i = 1; i <= rows; ++i) hypo_rows[i] += hypo_rows[i - 1];
  std::vector<uint64_t> next(hypo_rows, hypo_rows + rows);
  uint32_t* const hypo_targets = u32(kHypoTargets);
  uint8_t* const hypo_sources = bytes + offsets[kHypoSources];
  float* const hypo_scores = f32(kHypoScores);
  for (uint64_t row = 0; row < rows; ++row) {
    const NodeId id = node_of(row);
    for (uint64_t i = hyper_rows[row]; i < hyper_rows[row + 1]; ++i) {
      const uint64_t pos = next[row_of(hyper_targets[i])]++;
      hypo_targets[pos] = id;
      hypo_sources[pos] = hyper_sources[i];
      hypo_scores[pos] = hyper_scores[i];
    }
  }

  // Mentions: sorted arena, candidate CSR without out-of-range ids, hash.
  uint64_t* const mention_offsets = u64(kMentionOffsets);
  uint64_t* const mention_rows = u64(kMentionRows);
  uint32_t* const mention_ids = u32(kMentionIds);
  cursor = 0;
  uint64_t ids = 0;
  for (uint64_t i = 0; i < m; ++i) {
    const std::string_view mention = sorted[i].mention;
    std::memcpy(chars(kMentionBytes) + cursor, mention.data(), mention.size());
    cursor += mention.size();
    mention_offsets[i + 1] = cursor;
    for (const NodeId id : *sorted[i].ids) {
      if (id < total_nodes) mention_ids[ids++] = id;
    }
    mention_rows[i + 1] = ids;
  }
  FillHashSection(u32(kMentionHash), sizes[kMentionHash] / 4, m,
                  [&](uint64_t i) -> std::string_view {
                    return sorted[i].mention;
                  });

  if (delta) {
    std::copy(patched.begin(), patched.end(), u32(kRowIds));
    uint8_t* const replaces = bytes + offsets[kMentionReplaces];
    for (uint64_t i = 0; i < m; ++i) {
      replaces[i] =
          base->image_.FindMention(sorted[i].mention) != kInvalidNode;
    }
  }

  const std::string_view magic = delta ? kSnapshotDeltaMagic : kSnapshotMagic;
  std::memcpy(bytes + kOffMagic, magic.data(), magic.size());
  PutPod<uint32_t>(bytes + kOffVersion, kSnapshotFormatVersion);
  PutPod<uint32_t>(bytes + kOffSectionCount, section_count);
  PutPod<uint32_t>(bytes + kOffNumNodes, static_cast<uint32_t>(n));
  PutPod<uint32_t>(bytes + kOffNumMentions, static_cast<uint32_t>(m));
  PutPod<uint64_t>(bytes + kOffNumEdges, e);
  PutPod<uint64_t>(bytes + kOffTotalSize, total);
  if (delta) {
    PutPod<uint32_t>(bytes + kOffBaseNodes, static_cast<uint32_t>(base_nodes));
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    uint8_t* const entry =
        bytes + kSnapshotHeaderSize + i * kSnapshotSectionEntrySize;
    PutPod<uint32_t>(entry, i);
    PutPod<uint32_t>(entry + 4,
                     util::Crc32c(std::string_view(
                         reinterpret_cast<const char*>(bytes + offsets[i]),
                         sizes[i])));
    PutPod<uint64_t>(entry + 8, offsets[i]);
    PutPod<uint64_t>(entry + 16, sizes[i]);
  }
  PutPod<uint32_t>(bytes + kOffHeaderCrc, PreludeCrc(bytes, section_count));
  return image;
}

std::shared_ptr<const ServingView> ServingView::Encode(
    const Taxonomy& taxonomy, const MentionIndex& mentions) {
  auto view = SnapshotCodec::Serve(
      SnapshotCodec::LayOut(taxonomy, mentions, nullptr, nullptr, SIZE_MAX),
      nullptr);
  CNPB_CHECK_OK(view.status());
  return std::move(view).value();
}

std::shared_ptr<const ServingView> ServingView::EncodeLayered(
    std::shared_ptr<const ServingView> base, const Taxonomy& taxonomy,
    const MentionIndex& mentions, const LayerChanges& changes,
    size_t max_delta_bytes) {
  SnapshotCodec::Buffer image = SnapshotCodec::LayOut(
      taxonomy, mentions, base.get(), &changes, max_delta_bytes);
  if (image.bytes == nullptr) return nullptr;
  auto view = SnapshotCodec::Serve(std::move(image), std::move(base));
  CNPB_CHECK_OK(view.status());
  return std::move(view).value();
}

const ServingView& ServingView::Folded() const {
  std::call_once(fold_once_, [this] {
    util::Result<Taxonomy> taxonomy = MaterializeTaxonomy(*this);
    CNPB_CHECK_OK(taxonomy.status());
    MentionIndex mentions;
    mentions.reserve(num_mentions_);
    VisitMentions([&](std::string_view mention, const NodeId* ids,
                      size_t num_ids) {
      mentions.emplace(std::string(mention),
                       std::vector<NodeId>(ids, ids + num_ids));
      return true;
    });
    folded_ = Encode(*taxonomy, mentions);
  });
  return *folded_;
}

util::Result<std::shared_ptr<const ServingView>> ServingView::Load(
    const std::string& path) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::ScopedTimer timer(registry.histogram("snapshot.load.seconds"));
  auto fail = [&registry](util::Status status) {
    registry.counter("snapshot.load.error")->Increment();
    return status;
  };
  if (util::Status fault = util::CheckFault("snapshot.load.read"); !fault.ok()) {
    return fail(std::move(fault));
  }
  util::Result<util::MmapFile> file = util::MmapFile::Open(path);
  if (!file.ok()) return fail(file.status());
  std::shared_ptr<ServingView> view(new ServingView());
  view->file_ = std::move(file).value();
  view->data_ = view->file_.data();
  view->size_ = view->file_.size();
  view->origin_ = path;
  if (util::Status status = view->Init(/*parallel=*/true); !status.ok()) {
    return fail(std::move(status));
  }
  registry.counter("snapshot.load.ok")->Increment();
  return std::shared_ptr<const ServingView>(std::move(view));
}

util::Status ServingView::Init(bool parallel) {
  // The checks below are independent tasks that write their verdicts into
  // their own slots; `parallel` fans them out over the process-wide pool.
  const auto run = [parallel](size_t count,
                              const std::function<void(size_t)>& task) {
    if (parallel) {
      util::ParallelFor(count, task);
    } else {
      for (size_t i = 0; i < count; ++i) task(i);
    }
  };
  const uint8_t* data = data_;
  const size_t file_size = size_;
  const char* origin = origin_.c_str();
  // A delta image is checked as a folded one is, plus against its base.
  const ServingView* const base = base_.get();
  const bool delta = base != nullptr;
  const std::string_view magic = delta ? kSnapshotDeltaMagic : kSnapshotMagic;
  const uint32_t section_count =
      delta ? kSnapshotDeltaSectionCount : kSnapshotSectionCount;
  if (file_size == 0) {
    return util::InvalidArgumentError("empty snapshot file: " + origin_);
  }
  if (file_size < kSnapshotHeaderSize ||
      std::memcmp(data + kOffMagic, magic.data(), magic.size()) != 0) {
    return util::InvalidArgumentError("not a snapshot file (bad magic): " +
                                      origin_);
  }
  const uint32_t version = GetPod<uint32_t>(data + kOffVersion);
  if (version != kSnapshotFormatVersion) {
    return util::InvalidArgumentError(util::StrFormat(
        "unsupported snapshot format version %u: %s", version, origin));
  }
  if (GetPod<uint32_t>(data + kOffSectionCount) != section_count) {
    return util::InvalidArgumentError("bad snapshot section count: " +
                                      origin_);
  }
  if (file_size < PreludeSize(section_count)) {
    return util::DataLossError("snapshot truncated inside section table: " +
                               origin_);
  }
  // The header CRC seals the counts and the whole section table, so every
  // offset/size/section-CRC used below is integrity-checked before use.
  if (PreludeCrc(data, section_count) !=
      GetPod<uint32_t>(data + kOffHeaderCrc)) {
    return util::DataLossError("snapshot header crc mismatch: " + origin_);
  }
  const uint64_t stated_size = GetPod<uint64_t>(data + kOffTotalSize);
  if (stated_size != file_size) {
    return util::DataLossError(
        util::StrFormat("snapshot size mismatch (header says %llu, file has "
                        "%zu bytes): %s",
                        static_cast<unsigned long long>(stated_size),
                        file_size, origin));
  }
  // Bound the counts before using them in size arithmetic: every node needs
  // a kind byte and every edge a source byte, so anything larger than the
  // file is structurally impossible (and keeps the multiplications below far
  // from uint64 overflow).
  const uint64_t n = GetPod<uint32_t>(data + kOffNumNodes);
  const uint64_t m = GetPod<uint32_t>(data + kOffNumMentions);
  const uint64_t e = GetPod<uint64_t>(data + kOffNumEdges);
  if (n > file_size || e > file_size || m > file_size) {
    return util::InvalidArgumentError("snapshot counts exceed file size: " +
                                      origin_);
  }
  // Node ids run over the base's nodes, then this image's names.
  const uint64_t base_nodes = delta ? base->num_nodes_ : 0;
  if (delta && GetPod<uint32_t>(data + kOffBaseNodes) != base_nodes) {
    return util::InvalidArgumentError(
        "snapshot delta was laid out over another base: " + origin_);
  }
  const uint64_t total_nodes = base_nodes + n;
  if (total_nodes >= kInvalidNode) {
    return util::InvalidArgumentError("snapshot node count out of range: " +
                                      origin_);
  }

  std::array<SnapshotSectionInfo, kSnapshotDeltaSectionCount> table;
  uint64_t prev_end = PreludeSize(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* entry =
        data + kSnapshotHeaderSize + i * kSnapshotSectionEntrySize;
    table[i].id = GetPod<uint32_t>(entry);
    table[i].crc = GetPod<uint32_t>(entry + 4);
    table[i].offset = GetPod<uint64_t>(entry + 8);
    table[i].size = GetPod<uint64_t>(entry + 16);
    if (table[i].id != i) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot section %u out of order: %s", i, origin));
    }
    // Overflow-safe bounds: offset and size are each checked against what
    // remains, never summed first.
    if (table[i].offset % 8 != 0 || table[i].offset < prev_end ||
        table[i].offset > file_size ||
        table[i].size > file_size - table[i].offset) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot section %u out of bounds: %s", i, origin));
    }
    prev_end = table[i].offset + table[i].size;
  }
  if (table[kMentionIds].size % 4 != 0) {
    return util::InvalidArgumentError(
        "snapshot mention-id section misaligned: " + origin_);
  }
  if (delta && table[kRowIds].size % 4 != 0) {
    return util::InvalidArgumentError(
        "snapshot row-id section misaligned: " + origin_);
  }
  const uint64_t candidates = table[kMentionIds].size / 4;
  const uint64_t p = delta ? table[kRowIds].size / 4 : 0;
  const uint64_t rows = p + n;
  const SectionSizes expected_sizes =
      ExpectedSectionSizes(n, p, e, m, table[kNameBytes].size,
                           table[kMentionBytes].size, candidates);
  for (uint32_t i = 0; i < section_count; ++i) {
    if (table[i].size != expected_sizes[i]) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot section %u has size %llu, expected %llu: %s", i,
          static_cast<unsigned long long>(table[i].size),
          static_cast<unsigned long long>(expected_sizes[i]), origin));
    }
  }
  // Section CRCs are independent tasks. Each writes its verdict into its
  // own slot and the first failure in slot order wins, making the outcome
  // (and its message) identical for every CNPB_THREADS value.
  {
    std::array<util::Status, kSnapshotDeltaSectionCount> crc_status;
    run(section_count, [&](size_t i) {
      const std::string_view payload(
          reinterpret_cast<const char*>(data + table[i].offset),
          table[i].size);
      if (util::Crc32c(payload) != table[i].crc) {
        crc_status[i] = util::DataLossError(util::StrFormat(
            "snapshot section %u crc mismatch: %s", static_cast<uint32_t>(i),
            origin));
      }
    });
    for (const util::Status& status : crc_status) {
      CNPB_RETURN_IF_ERROR(status);
    }
  }

  // All bytes verified; resolve typed pointers (sections are 8-aligned and
  // both the owned buffer and mmap bases are 8-aligned, so the casts are
  // alignment-safe).
  const auto u64_at = [&](SectionId id) {
    return reinterpret_cast<const uint64_t*>(data + table[id].offset);
  };
  const auto u32_at = [&](SectionId id) {
    return reinterpret_cast<const uint32_t*>(data + table[id].offset);
  };
  Image& out = delta ? delta_ : image_;
  out.num_names = static_cast<uint32_t>(n);
  out.num_rows = static_cast<uint32_t>(rows);
  out.num_patched = static_cast<uint32_t>(p);
  out.num_mentions = static_cast<uint32_t>(m);
  out.num_edges = e;
  out.kinds = data + table[kKinds].offset;
  out.name_offsets = u64_at(kNameOffsets);
  out.name_bytes =
      reinterpret_cast<const char*>(data + table[kNameBytes].offset);
  out.name_slots = u32_at(kNameHash);
  out.name_mask = SnapshotHashSlots(n) - 1;
  out.hyper = {u64_at(kHyperRows), u32_at(kHyperTargets),
               data + table[kHyperSources].offset,
               reinterpret_cast<const float*>(data + table[kHyperScores].offset)};
  out.hypo = {u64_at(kHypoRows), u32_at(kHypoTargets),
              data + table[kHypoSources].offset,
              reinterpret_cast<const float*>(data + table[kHypoScores].offset)};
  out.mention_offsets = u64_at(kMentionOffsets);
  out.mention_bytes =
      reinterpret_cast<const char*>(data + table[kMentionBytes].offset);
  out.mention_rows = u64_at(kMentionRows);
  out.mention_ids = u32_at(kMentionIds);
  out.mention_slots = u32_at(kMentionHash);
  out.mention_mask = SnapshotHashSlots(m) - 1;
  if (delta) {
    out.row_ids = u32_at(kRowIds);
    out.replaces = data + table[kMentionReplaces].offset;
  }
  const Image* const image = &out;

  // Structural validation: every index the query paths will ever follow is
  // checked once here, so serving needs no per-query bounds checks beyond
  // the public id range.
  const auto check_arena =
      [&](const uint64_t* offsets, uint64_t count, uint64_t arena_size,
          const char* what) -> util::Status {
    if (offsets[0] != 0) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot %s offsets do not start at 0: %s", what, origin));
    }
    // Branchless accumulation: these whole-array scans are the hot part of
    // a load, and without the early exit the compiler vectorizes them.
    bool non_monotonic = false;
    for (uint64_t i = 0; i < count; ++i) {
      non_monotonic |= offsets[i + 1] < offsets[i];
    }
    if (non_monotonic) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot %s offsets not monotonic: %s", what, origin));
    }
    if (offsets[count] != arena_size) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot %s offsets do not cover the arena: %s", what, origin));
    }
    return util::Status::Ok();
  };
  CNPB_RETURN_IF_ERROR(
      check_arena(out.name_offsets, n, table[kNameBytes].size, "name"));
  CNPB_RETURN_IF_ERROR(check_arena(out.mention_offsets, m,
                                   table[kMentionBytes].size, "mention"));

  // The remaining whole-array scans are tasks too: each returns a Status
  // into its own slot, first failure in slot order wins (the same ladder
  // order as a serial pass). Reference captures are safe — `run` is
  // synchronous, so every task finishes inside this frame.
  // Per-key scans are sharded; shard boundaries are fixed fractions of the
  // key count, never of the thread count, keeping the task list
  // deterministic.
  std::vector<std::function<util::Status()>> checks;
  constexpr uint64_t kShards = 8;
  const auto for_shards = [&](uint64_t first, uint64_t count, auto make) {
    for (uint64_t s = 0; s < kShards && count > 0; ++s) {
      const uint64_t begin = first + count * s / kShards;
      const uint64_t end = first + count * (s + 1) / kShards;
      if (begin < end) checks.push_back(make(begin, end));
    }
  };
  // A hash section over `keys` keys: every slot is empty or names a key,
  // exactly `keys` slots are filled (so an empty slot ends every probe),
  // and each key is found along its own probe chain before an empty slot.
  // A key passed on that chain with equal bytes is a duplicate. The shard
  // probes re-check slot ranges themselves and stop after one lap, so a
  // corrupt table is refused without an out-of-bounds read or an endless
  // probe whichever task runs first.
  const auto check_hash = [&](const uint32_t* slots, uint64_t mask,
                              uint64_t keys, auto key_at, const char* what) {
    checks.push_back([=]() -> util::Status {
      uint64_t filled = 0;
      bool out_of_range = false;
      for (uint64_t s = 0; s <= mask; ++s) {
        filled += slots[s] != kInvalidNode;
        out_of_range |= slots[s] != kInvalidNode && slots[s] >= keys;
      }
      if (out_of_range) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s hash slot out of range: %s", what, origin));
      }
      if (filled != keys) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s hash holds %llu keys, expected %llu: %s", what,
            static_cast<unsigned long long>(filled),
            static_cast<unsigned long long>(keys), origin));
      }
      return util::Status::Ok();
    });
    for_shards(0, keys, [=](uint64_t begin, uint64_t end) {
      return [=]() -> util::Status {
        for (uint64_t key = begin; key < end; ++key) {
          const std::string_view bytes = key_at(key);
          uint64_t slot = util::Fnv1a64(bytes) & mask;
          for (uint64_t step = 0;; ++step, slot = (slot + 1) & mask) {
            const uint32_t other = slots[slot];
            if (other == key) break;
            if (step > mask || other >= keys) {
              return util::InvalidArgumentError(util::StrFormat(
                  "snapshot %s hash does not reach key %llu: %s", what,
                  static_cast<unsigned long long>(key), origin));
            }
            if (key_at(other) == bytes) {
              return util::InvalidArgumentError(util::StrFormat(
                  "snapshot %s hash holds duplicate keys: %s", what, origin));
            }
          }
        }
        return util::Status::Ok();
      };
    });
  };
  check_hash(out.name_slots, out.name_mask, n,
             [image](uint64_t i) {
               return image->NameAt(static_cast<uint32_t>(i));
             },
             "name");
  const auto check_csr = [&](const Csr& csr, const char* what) {
    checks.push_back([=]() -> util::Status {
      if (csr.rows[0] != 0 || csr.rows[rows] != e) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s rows do not cover the edges: %s", what, origin));
      }
      bool non_monotonic = false;
      for (uint64_t i = 0; i < rows; ++i) {
        non_monotonic |= csr.rows[i + 1] < csr.rows[i];
      }
      if (non_monotonic) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s rows not monotonic: %s", what, origin));
      }
      bool target_oor = false;
      for (uint64_t k = 0; k < e; ++k) {
        target_oor |= csr.targets[k] >= total_nodes;
      }
      if (target_oor) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s target out of range: %s", what, origin));
      }
      bool source_oor = false;
      for (uint64_t k = 0; k < e; ++k) {
        source_oor |= csr.sources[k] >= kNumSources;
      }
      if (source_oor) {
        return util::InvalidArgumentError(util::StrFormat(
            "snapshot %s edge source out of range: %s", what, origin));
      }
      return util::Status::Ok();
    });
  };
  check_csr(out.hyper, "hypernym");
  check_csr(out.hypo, "hyponym");
  // Strictly increasing mentions: the arena order VisitMentions promises,
  // and uniqueness for the mention hash.
  if (m > 1) {
    for_shards(1, m - 1, [=](uint64_t begin, uint64_t end) {
      return [=]() -> util::Status {
        for (uint64_t i = begin; i < end; ++i) {
          if (image->MentionAt(static_cast<uint32_t>(i - 1)) >=
              image->MentionAt(static_cast<uint32_t>(i))) {
            return util::InvalidArgumentError(util::StrFormat(
                "snapshot mentions not sorted: %s", origin));
          }
        }
        return util::Status::Ok();
      };
    });
  }
  checks.push_back([=]() -> util::Status {
    if (image->mention_rows[0] != 0 || image->mention_rows[m] != candidates) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot mention rows do not cover the candidate ids: %s",
          origin));
    }
    bool rows_non_monotonic = false;
    for (uint64_t i = 0; i < m; ++i) {
      rows_non_monotonic |= image->mention_rows[i + 1] < image->mention_rows[i];
    }
    if (rows_non_monotonic) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot mention rows not monotonic: %s", origin));
    }
    bool candidate_oor = false;
    for (uint64_t k = 0; k < candidates; ++k) {
      candidate_oor |= image->mention_ids[k] >= total_nodes;
    }
    if (candidate_oor) {
      return util::InvalidArgumentError(util::StrFormat(
          "snapshot mention candidate id out of range: %s", origin));
    }
    return util::Status::Ok();
  });
  check_hash(out.mention_slots, out.mention_mask, m,
             [image](uint64_t i) {
               return image->MentionAt(static_cast<uint32_t>(i));
             },
             "mention");
  // A delta against its base, in O(delta) probes: patched rows name base
  // nodes in ascending order, appended names are new to the base, and each
  // mention's replace mark says whether the base holds that mention.
  uint64_t replaced = 0;
  if (delta) {
    checks.push_back([=]() -> util::Status {
      for (uint64_t i = 0; i < p; ++i) {
        if (image->row_ids[i] >= base_nodes ||
            (i > 0 && image->row_ids[i] <= image->row_ids[i - 1])) {
          return util::InvalidArgumentError(util::StrFormat(
              "snapshot delta patches a row that is not a base node: %s",
              origin));
        }
      }
      return util::Status::Ok();
    });
    checks.push_back([=]() -> util::Status {
      for (uint32_t i = 0; i < n; ++i) {
        if (base->image_.FindName(image->NameAt(i)) != kInvalidNode) {
          return util::InvalidArgumentError(util::StrFormat(
              "snapshot delta names a base node again: %s", origin));
        }
      }
      return util::Status::Ok();
    });
    checks.push_back([=, &replaced]() -> util::Status {
      for (uint32_t i = 0; i < m; ++i) {
        const bool in_base =
            base->image_.FindMention(image->MentionAt(i)) != kInvalidNode;
        if (image->replaces[i] != static_cast<uint8_t>(in_base)) {
          return util::InvalidArgumentError(util::StrFormat(
              "snapshot delta mention replace mark disagrees with its "
              "base: %s",
              origin));
        }
        replaced += in_base;
      }
      return util::Status::Ok();
    });
  }
  std::vector<util::Status> verdicts(checks.size());
  run(checks.size(), [&](size_t i) { verdicts[i] = checks[i](); });
  for (const util::Status& status : verdicts) {
    CNPB_RETURN_IF_ERROR(status);
  }
  if (delta) image_ = base->image_;
  num_nodes_ = static_cast<uint32_t>(total_nodes);
  num_edges_ = image_.num_edges + (delta ? e : 0);
  num_mentions_ =
      static_cast<uint32_t>(image_.num_mentions + (delta ? m - replaced : 0));
  return util::Status::Ok();
}

util::Status WriteSnapshot(const ServingView& view, const std::string& path) {
  util::AtomicWriteOptions options;
  options.checksum_footer = false;  // per-section CRCs supersede the footer
  options.fault_prefix = "snapshot";
  util::AtomicFileWriter writer(path, options);
  writer.Append(view.bytes());
  return writer.Commit();
}

util::Status WriteSnapshotWithBackup(const ServingView& view,
                                     const std::string& path) {
  // Preserve the current file first: if the write below fails at any point,
  // `path` still holds the previous snapshot, and if a later load finds
  // `path` corrupted out-of-band, `.bak` survives. The bytes carry their own
  // CRCs, so they are copied verbatim.
  auto current = util::ReadFileToString(path);
  if (current.ok()) {
    const util::Status status = util::WriteFileAtomic(
        path + ".bak", *current,
        {.checksum_footer = false, .fault_prefix = "snapshot.backup"});
    if (!status.ok()) {
      CNPB_LOG(Warning) << "could not refresh last-good snapshot " << path
                        << ".bak: " << status.ToString();
    }
  }
  return WriteSnapshot(view, path);
}

util::Result<std::shared_ptr<const ServingView>> LoadSnapshotWithFallback(
    const std::string& path) {
  // Which file served the load is operationally significant (a fallback
  // means the primary is damaged), so every outcome is counted.
  auto& registry = obs::MetricsRegistry::Global();
  auto primary = ServingView::Load(path);
  if (primary.ok()) {
    registry.counter("kb.load.taxonomy.primary")->Increment();
    return primary;
  }
  // An absent primary is missing data, not corruption: no fallback.
  if (primary.status().code() != util::StatusCode::kNotFound) {
    auto fallback = ServingView::Load(path + ".bak");
    if (fallback.ok()) {
      registry.counter("kb.load.taxonomy.fallback")->Increment();
      CNPB_LOG(Warning) << "loaded last-good snapshot " << path
                        << ".bak after: " << primary.status().ToString();
      return fallback;
    }
  }
  registry.counter("kb.load.taxonomy.failed")->Increment();
  return primary.status();
}

util::Result<Taxonomy> MaterializeTaxonomy(const ServingView& view) {
  Taxonomy taxonomy;
  const size_t n = view.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    if (taxonomy.AddNode(view.Name(id), view.Kind(id)) != id) {
      return util::InternalError(
          "serving view contains duplicate node names; cannot materialize");
    }
  }
  // Replaying the canonical sequence reproduces the adjacency structure the
  // view was encoded from.
  for (NodeId id = 0; id < n; ++id) {
    view.VisitHypernyms(id, [&](const HalfEdge& edge) {
      taxonomy.AddIsa(id, edge.node, edge.source, edge.score);
      return true;
    });
  }
  return taxonomy;
}

std::string EncodeDeltaImage(const ServingView& base, const Taxonomy& taxonomy,
                             const MentionIndex& mentions,
                             const LayerChanges& changes) {
  const SnapshotCodec::Buffer image =
      SnapshotCodec::LayOut(taxonomy, mentions, &base, &changes, SIZE_MAX);
  return std::string(reinterpret_cast<const char*>(image.bytes.get()),
                     image.size);
}

util::Result<std::shared_ptr<const ServingView>> LayerDeltaImage(
    std::shared_ptr<const ServingView> base, std::string_view bytes) {
  if (base == nullptr || base->layered()) {
    return util::InvalidArgumentError("a delta layers over a folded base");
  }
  SnapshotCodec::Buffer image{
      std::make_unique<unsigned char[]>(bytes.size()), bytes.size()};
  std::memcpy(image.bytes.get(), bytes.data(), bytes.size());
  return SnapshotCodec::Serve(std::move(image), std::move(base));
}

util::Result<std::vector<SnapshotSectionInfo>> ReadSnapshotSections(
    std::string_view bytes) {
  const uint32_t count = SectionCountOf(bytes);
  if (count == 0 || bytes.size() < PreludeSize(count)) {
    return util::InvalidArgumentError(
        "bytes do not contain a snapshot prelude");
  }
  std::vector<SnapshotSectionInfo> sections(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* entry = reinterpret_cast<const uint8_t*>(bytes.data()) +
                           kSnapshotHeaderSize + i * kSnapshotSectionEntrySize;
    sections[i].id = GetPod<uint32_t>(entry);
    sections[i].crc = GetPod<uint32_t>(entry + 4);
    sections[i].offset = GetPod<uint64_t>(entry + 8);
    sections[i].size = GetPod<uint64_t>(entry + 16);
  }
  return sections;
}

util::Status ResealSnapshotHeader(std::string* bytes) {
  // Bytes of neither magic (a test may have patched it) reseal as a
  // folded snapshot.
  const uint32_t count =
      SectionCountOf(*bytes) == kSnapshotDeltaSectionCount
          ? kSnapshotDeltaSectionCount
          : kSnapshotSectionCount;
  if (bytes->size() < PreludeSize(count)) {
    return util::InvalidArgumentError("bytes too short to reseal");
  }
  uint8_t* const base = reinterpret_cast<uint8_t*>(bytes->data());
  PutPod<uint32_t>(base + kOffHeaderCrc, PreludeCrc(base, count));
  return util::Status::Ok();
}

util::Status ResealSnapshotSection(std::string* bytes, uint32_t id) {
  CNPB_RETURN_IF_ERROR(ResealSnapshotHeader(bytes));  // validates the prelude
  util::Result<std::vector<SnapshotSectionInfo>> sections =
      ReadSnapshotSections(*bytes);
  CNPB_RETURN_IF_ERROR(sections.status());
  if (id >= sections->size()) {
    return util::InvalidArgumentError("no such snapshot section");
  }
  const SnapshotSectionInfo& info = sections.value()[id];
  if (info.offset > bytes->size() ||
      info.size > bytes->size() - info.offset) {
    return util::InvalidArgumentError(
        "section out of bounds; cannot reseal");
  }
  const uint32_t crc = util::Crc32c(
      std::string_view(bytes->data() + info.offset, info.size));
  PutPod<uint32_t>(
      bytes->data() + kSnapshotHeaderSize + id * kSnapshotSectionEntrySize + 4,
      crc);
  return ResealSnapshotHeader(bytes);
}

}  // namespace cnpb::taxonomy
