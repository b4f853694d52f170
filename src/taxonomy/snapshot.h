#ifndef CNPROBASE_TAXONOMY_SNAPSHOT_H_
#define CNPROBASE_TAXONOMY_SNAPSHOT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/status.h"

namespace cnpb::taxonomy {

// The CNPBSNP binary format (DESIGN.md §10): the one representation every
// published ServingView serves from, whether encoded in memory at publish
// time (ServingView::Encode) or mmap'd from disk (ServingView::Load), and
// the one taxonomy file format: a layered view's delta image (below) stays
// in memory.
//
// A snapshot holds node kinds, an offset-indexed string arena,
// structure-of-arrays CSR adjacency for both edge directions, a sorted
// mention arena with CSR candidate lists, and two open-addressed hash
// tables (names, mentions). Loading is one mmap plus header/CRC/structure
// validation — no per-row parsing, no hash-map rebuild — and queries run by
// one hash probe and array indexing straight off the bytes.
//
// Layout (all integers in host byte order; a foreign-endian file fails the
// format-version check):
//
//   [0,48)    fixed header: magic "CNPBSNP1", format version, section
//             count, num_nodes, num_mentions, num_edges, total file size,
//             header CRC-32C (computed with the CRC field zeroed, covering
//             header + section table)
//   [48,456)  section table: 17 entries of {id u32, crc32c u32, offset u64,
//             size u64}, in id order
//   [456,..)  sections, each at an 8-byte-aligned offset, zero-padded
//             between, laid out in id order:
//
//   id  section             contents
//    0  kinds               u8[num_nodes]            NodeKind per node
//    1  name offsets        u64[num_nodes+1]         into the name arena
//    2  name bytes          string arena (node names, id order)
//    3  name hash           u32[SnapshotHashSlots(num_nodes)]   node ids
//    4  hypernym rows       u64[num_nodes+1]         CSR row starts
//    5  hypernym targets    u32[num_edges]
//    6  hypernym sources    u8[num_edges]
//    7  hypernym scores     f32[num_edges]
//    8  hyponym rows        u64[num_nodes+1]
//    9  hyponym targets     u32[num_edges]
//   10  hyponym sources     u8[num_edges]
//   11  hyponym scores      f32[num_edges]
//   12  mention offsets     u64[num_mentions+1]      into the mention arena
//   13  mention bytes       string arena (mentions, sorted byte order)
//   14  mention rows        u64[num_mentions+1]      CSR into candidate ids
//   15  mention ids         u32[total candidates]    each < num_nodes
//   16  mention hash        u32[SnapshotHashSlots(num_mentions)] mention
//                           indices
//
// Hash sections: a power-of-two slot count of at least twice the key
// count; a key's home slot is util::Fnv1a64(key) & (slots - 1), collisions
// probe linearly, and kInvalidNode marks an empty slot. The writer inserts
// keys in index order, so the table is a pure function of the keys.
//
// Edges are stored in canonical serialization order: the global sequence is
// hypernym rows in node-id order with per-row order preserved, and the
// hyponym CSR replays that same sequence bucketed by hypernym — exactly the
// structure MaterializeTaxonomy rebuilds, so a freshly built taxonomy and
// its materialized copy encode to identical bytes.
//
// Delta images: a layered ServingView (view.h) serves a folded image plus
// an in-memory delta image with magic "CNPBDLT1", which is never written
// to disk. It has the same header (num_nodes counts the appended nodes it
// names, and the 4 bytes at offset 44 hold its base's num_nodes) and the
// same 17 sections, followed by two more:
//
//   17  row ids             u32[patched]             patched base nodes,
//                                                    ascending
//   18  mention replaces    u8[num_mentions]         1 when the base holds
//                                                    the mention
//
// Its rows are the patched base nodes, then its appended nodes (ids base
// num_nodes + i), so the kinds and both CSR row arrays have patched +
// num_nodes entries. A patched row holds the edges appended to that base
// row, and the kind it has now. Edge targets and mention candidates are
// node ids below base + appended nodes. Mention rows are whole and replace
// the base's row of the same mention. A delta passes every check below on
// its own sections, plus O(delta) checks against its base: the base node
// count matches, patched ids are ascending base ids, appended names are
// absent from the base, and every replace mark matches the base.
//
// Integrity: a load validates magic/version/counts, the header CRC (which
// seals the section table, so a corrupted offset or stored section CRC is
// caught), per-section CRC-32C over every payload, and full structure
// (monotonic offset arrays, edge targets and mention candidates <
// num_nodes, sources < kNumSources, strictly sorted mentions, hash slots in
// range with exactly one slot per key, every key reachable along its own
// probe chain, unique names). Verdicts: kInvalidArgument for bytes that
// are not structurally a snapshot (bad magic/version/layout), kDataLoss for
// integrity failures (truncation, trailing bytes, CRC mismatch). A corrupt
// snapshot is never served and never read out of bounds
// (tests/snapshot_robustness_test.cc holds every corruption to that).

inline constexpr std::string_view kSnapshotMagic = "CNPBSNP1";
inline constexpr uint32_t kSnapshotFormatVersion = 2;
inline constexpr uint32_t kSnapshotSectionCount = 17;
inline constexpr std::string_view kSnapshotDeltaMagic = "CNPBDLT1";
inline constexpr uint32_t kSnapshotDeltaSectionCount = 19;
inline constexpr size_t kSnapshotHeaderSize = 48;
inline constexpr size_t kSnapshotSectionEntrySize = 24;

// Header + section table bytes (sections start here, 8-aligned).
constexpr size_t SnapshotPreludeSize() {
  return kSnapshotHeaderSize +
         kSnapshotSectionCount * kSnapshotSectionEntrySize;
}

// Slot count of a hash section over `keys` keys.
constexpr uint64_t SnapshotHashSlots(uint64_t keys) {
  return std::bit_ceil(std::max<uint64_t>(2 * keys, 1));
}

// One parsed section-table entry (format tooling / corruption tests).
struct SnapshotSectionInfo {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
};

// Writes view.bytes() — the folded image, also for a layered view — via
// util::AtomicFileWriter: the destination only
// ever holds a previous complete snapshot or the new complete one, never a
// torn prefix. Fault points: snapshot.write / snapshot.fsync /
// snapshot.rename.
util::Status WriteSnapshot(const ServingView& view, const std::string& path);

// WriteSnapshot that first copies the current file at `path` (when there is
// one) to `path`.bak — the last-good copy LoadSnapshotWithFallback recovers
// from. The copy is atomic too (fault points snapshot.backup.{write,fsync,
// rename}); failing to refresh it is logged, not fatal, so `path` still
// advances.
util::Status WriteSnapshotWithBackup(const ServingView& view,
                                     const std::string& path);

// ServingView::Load with last-good fallback: when `path` exists but fails
// to load (corrupt, unreadable), serves `path`.bak instead and logs the
// recovery. An absent `path` is kNotFound and `.bak` is not read: missing
// data is not corruption. When both fail, the primary's error is returned.
util::Result<std::shared_ptr<const ServingView>> LoadSnapshotWithFallback(
    const std::string& path);

// Rebuilds a mutable Taxonomy from a serving view (stats tooling). Encoding
// the result with the view's mentions reproduces the view's bytes.
util::Result<Taxonomy> MaterializeTaxonomy(const ServingView& view);

// --- Format tooling (used by the corruption tests and snapshot tools) ---

// Lays out the delta image ServingView::EncodeLayered would validate and
// serve, without validating it.
std::string EncodeDeltaImage(const ServingView& base, const Taxonomy& taxonomy,
                             const MentionIndex& mentions,
                             const LayerChanges& changes);

// Validates `bytes` as a delta image over the folded `base`, as
// EncodeLayered does, and serves it layered (the bytes are copied). Errors:
// kInvalidArgument / kDataLoss as ServingView::Load's.
util::Result<std::shared_ptr<const ServingView>> LayerDeltaImage(
    std::shared_ptr<const ServingView> base, std::string_view bytes);

// Parses the section table (of a snapshot or a delta image) without
// verifying checksums. Fails only when `bytes` is too short to contain a
// prelude or the magic is wrong.
util::Result<std::vector<SnapshotSectionInfo>> ReadSnapshotSections(
    std::string_view bytes);

// Recomputes the header CRC over the (possibly patched) header + section
// table. Stored section CRCs are left untouched.
util::Status ResealSnapshotHeader(std::string* bytes);

// Recomputes section `id`'s stored CRC from its current payload bytes, then
// reseals the header. Lets a test patch payload bytes and keep the file
// checksum-consistent so structural validation is what rejects it.
util::Status ResealSnapshotSection(std::string* bytes, uint32_t id);

}  // namespace cnpb::taxonomy

#endif  // CNPROBASE_TAXONOMY_SNAPSHOT_H_
