// Corruption corpus for the snapshot loader (DESIGN.md §10): every way a
// snapshot file can be damaged or hand-crafted wrong — truncation at every
// section boundary, flipped payload bytes, flipped CRCs, bad magic,
// oversized offsets, zero-length files, trailing garbage, out-of-range
// indices, malformed hash sections — must yield a clean kDataLoss /
// kInvalidArgument status, never a crash, an endless probe or an
// out-of-bounds read (the asan CI job holds the loader to that).
// Torn-write injection at the end proves a failed WriteSnapshot never
// leaves a loadable-but-wrong file behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/atomic_file.h"
#include "util/hash.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace cnpb {
namespace {

// A small but fully populated world: several nodes, edges from more than
// one source, multi-candidate mentions — every section non-empty.
std::string ValidSnapshotBytes() {
  taxonomy::Taxonomy t;
  t.AddIsa("刘德华", "演员", taxonomy::Source::kInfobox, 0.9f);
  t.AddIsa("刘德华", "歌手", taxonomy::Source::kTag, 0.8f);
  t.AddIsa("演员", "人物", taxonomy::Source::kBracket, 0.7f);
  t.AddIsa("歌手", "人物", taxonomy::Source::kAbstract, 0.6f);
  t.AddIsa("周杰伦", "歌手", taxonomy::Source::kInfobox, 0.9f);
  taxonomy::MentionIndex mentions;
  mentions["华仔"] = {t.Find("刘德华")};
  mentions["歌手"] = {t.Find("刘德华"), t.Find("周杰伦")};
  return std::string(taxonomy::ServingView::Encode(t, mentions)->bytes());
}

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

// Loads `bytes` from disk and requires a clean structural/integrity
// rejection: kInvalidArgument or kDataLoss, never OK, never a crash. Under
// asan this doubles as an out-of-bounds probe.
void ExpectRejected(const std::string& name, const std::string& bytes) {
  const std::string path = WriteBytes(name, bytes);
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_FALSE(snap.ok()) << name << " loaded successfully";
  const util::StatusCode code = snap.status().code();
  EXPECT_TRUE(code == util::StatusCode::kInvalidArgument ||
              code == util::StatusCode::kDataLoss)
      << name << " rejected with unexpected status: "
      << snap.status().ToString();
  std::remove(path.c_str());
}

void ExpectRejectedWith(const std::string& name, const std::string& bytes,
                        util::StatusCode want) {
  const std::string path = WriteBytes(name, bytes);
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_FALSE(snap.ok()) << name << " loaded successfully";
  EXPECT_EQ(snap.status().code(), want)
      << name << ": " << snap.status().ToString();
  std::remove(path.c_str());
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

TEST(SnapshotRobustnessTest, ValidFileLoads) {
  const std::string bytes = ValidSnapshotBytes();
  const std::string path = WriteBytes("valid.snap", bytes);
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_nodes(), 5u);
  EXPECT_EQ((*snap)->num_edges(), 5u);
  std::remove(path.c_str());
}

TEST(SnapshotRobustnessTest, MissingFileIsNotFound) {
  auto snap = taxonomy::ServingView::Load(::testing::TempDir() +
                                          "/does_not_exist.snap");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), util::StatusCode::kNotFound);
}

TEST(SnapshotRobustnessTest, ZeroLengthFileRejected) {
  ExpectRejectedWith("zero.snap", "", util::StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustnessTest, BadMagicRejected) {
  std::string bytes = ValidSnapshotBytes();
  bytes[0] = 'X';
  ExpectRejectedWith("badmagic.snap", bytes,
                     util::StatusCode::kInvalidArgument);
  ExpectRejectedWith("textfile.snap", "entity\tconcept\t1\t0.9\n",
                     util::StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustnessTest, UnsupportedVersionRejected) {
  // Version 1 files (binary-searched names, no hash sections) are refused
  // by the version gate, as is any future version.
  ASSERT_EQ(taxonomy::kSnapshotFormatVersion, 2u);
  for (const uint32_t version : {1u, taxonomy::kSnapshotFormatVersion + 1}) {
    std::string bytes = ValidSnapshotBytes();
    Patch<uint32_t>(&bytes, 8, version);
    ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
    ExpectRejectedWith("version" + std::to_string(version) + ".snap", bytes,
                       util::StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotRobustnessTest, BadSectionCountRejected) {
  std::string bytes = ValidSnapshotBytes();
  Patch<uint32_t>(&bytes, 12, taxonomy::kSnapshotSectionCount - 1);
  ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
  ExpectRejected("sectioncount.snap", bytes);
}

TEST(SnapshotRobustnessTest, TruncationAtEveryBoundaryRejected) {
  const std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());

  std::vector<size_t> cuts = {1, 7, taxonomy::kSnapshotHeaderSize - 1,
                              taxonomy::kSnapshotHeaderSize,
                              taxonomy::SnapshotPreludeSize() - 1,
                              taxonomy::SnapshotPreludeSize(),
                              bytes.size() - 1};
  for (const auto& section : *sections) {
    cuts.push_back(section.offset);            // section start
    cuts.push_back(section.offset + section.size);  // section end
    if (section.size > 1) cuts.push_back(section.offset + section.size / 2);
  }
  for (const size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    ExpectRejected("truncated_at_" + std::to_string(cut) + ".snap",
                   bytes.substr(0, cut));
  }
}

TEST(SnapshotRobustnessTest, FlippedPayloadByteInEverySectionIsDataLoss) {
  const std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  for (const auto& section : *sections) {
    if (section.size == 0) continue;
    std::string corrupt = bytes;
    corrupt[section.offset + section.size / 2] ^= 0x40;
    ExpectRejectedWith("flip_section_" + std::to_string(section.id) + ".snap",
                       corrupt, util::StatusCode::kDataLoss);
  }
}

TEST(SnapshotRobustnessTest, FlippedStoredCrcIsDataLoss) {
  const std::string bytes = ValidSnapshotBytes();
  for (uint32_t id = 0; id < taxonomy::kSnapshotSectionCount; ++id) {
    std::string corrupt = bytes;
    const size_t entry =
        taxonomy::kSnapshotHeaderSize + id * taxonomy::kSnapshotSectionEntrySize;
    corrupt[entry + 4] ^= 0xFF;  // stored section CRC
    // Without resealing, the header CRC catches the tampered table.
    ExpectRejectedWith("flipcrc_raw_" + std::to_string(id) + ".snap", corrupt,
                       util::StatusCode::kDataLoss);
    // With a resealed header, the per-section CRC check catches it.
    ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&corrupt).ok());
    ExpectRejectedWith("flipcrc_resealed_" + std::to_string(id) + ".snap",
                       corrupt, util::StatusCode::kDataLoss);
  }
}

TEST(SnapshotRobustnessTest, FlippedHeaderCrcIsDataLoss) {
  std::string bytes = ValidSnapshotBytes();
  bytes[40] ^= 0xFF;
  ExpectRejectedWith("headercrc.snap", bytes, util::StatusCode::kDataLoss);
}

TEST(SnapshotRobustnessTest, OversizedSectionOffsetsRejected) {
  const std::string valid = ValidSnapshotBytes();
  for (const uint64_t evil :
       {static_cast<uint64_t>(valid.size()), ~uint64_t{0},
        ~uint64_t{0} - 64, static_cast<uint64_t>(valid.size()) * 2}) {
    std::string bytes = valid;
    // Section 3 (name hash): point it past the end / at overflow bait.
    const size_t entry = taxonomy::kSnapshotHeaderSize +
                         3 * taxonomy::kSnapshotSectionEntrySize;
    Patch<uint64_t>(&bytes, entry + 8, evil);
    ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
    ExpectRejected("offset_" + std::to_string(evil % 1000) + ".snap", bytes);
  }
}

TEST(SnapshotRobustnessTest, MisalignedSectionOffsetRejected) {
  std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  const size_t entry = taxonomy::kSnapshotHeaderSize +
                       1 * taxonomy::kSnapshotSectionEntrySize;
  Patch<uint64_t>(&bytes, entry + 8, (*sections)[1].offset + 1);
  ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
  ExpectRejectedWith("misaligned.snap", bytes,
                     util::StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustnessTest, TrailingGarbageIsDataLoss) {
  std::string bytes = ValidSnapshotBytes();
  bytes += "garbage after the last section";
  ExpectRejectedWith("trailing.snap", bytes, util::StatusCode::kDataLoss);
}

TEST(SnapshotRobustnessTest, InflatedCountsRejected) {
  // Counts far beyond the file size must be rejected before any
  // count-derived allocation or offset arithmetic happens.
  for (const size_t off : {16u, 20u, 24u}) {
    std::string bytes = ValidSnapshotBytes();
    Patch<uint32_t>(&bytes, off, 0x7FFFFFFFu);
    ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
    ExpectRejected("count_" + std::to_string(off) + ".snap", bytes);
  }
}

TEST(SnapshotRobustnessTest, OutOfRangeEdgeTargetRejected) {
  std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Section 5 is hypernym targets: u32 node ids.
  Patch<uint32_t>(&bytes, (*sections)[5].offset, 0x00FFFFFFu);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 5).ok());
  ExpectRejectedWith("badtarget.snap", bytes,
                     util::StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustnessTest, OutOfRangeMentionCandidateRejected) {
  std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Section 15 is mention candidate ids.
  Patch<uint32_t>(&bytes, (*sections)[15].offset, 0x00FFFFFFu);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 15).ok());
  ExpectRejectedWith("badcandidate.snap", bytes,
                     util::StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustnessTest, NonMonotonicNameOffsetsRejected) {
  std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Section 1 is name offsets: u64[n+1]. Swap the middle two.
  const size_t base = (*sections)[1].offset;
  uint64_t a, b;
  std::memcpy(&a, bytes.data() + base + 8, 8);
  std::memcpy(&b, bytes.data() + base + 16, 8);
  Patch<uint64_t>(&bytes, base + 8, b);
  Patch<uint64_t>(&bytes, base + 16, a);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 1).ok());
  ExpectRejectedWith("nameoffsets.snap", bytes,
                     util::StatusCode::kInvalidArgument);
}

// --- Hash sections (3: names, 16: mentions) ---------------------------------

constexpr uint32_t kNameHash = 3;
constexpr uint32_t kMentionHash = 16;

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t value;
  std::memcpy(&value, bytes.data() + offset, 4);
  return value;
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t value;
  std::memcpy(&value, bytes.data() + offset, 8);
  return value;
}

// The keys a hash section indexes, read from the current arena bytes:
// node names (sections 1/2) or mentions (sections 12/13).
std::vector<std::string> HashKeys(const std::string& bytes, uint32_t hash) {
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  const bool names = hash == kNameHash;
  const uint32_t count = ReadU32(bytes, names ? 16 : 20);
  const uint64_t offsets = (*sections)[names ? 1 : 12].offset;
  const uint64_t arena = (*sections)[names ? 2 : 13].offset;
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t begin = ReadU64(bytes, offsets + 8 * i);
    const uint64_t end = ReadU64(bytes, offsets + 8 * (i + 1));
    keys.push_back(bytes.substr(arena + begin, end - begin));
  }
  return keys;
}

// Rewrites hash section `hash` the way the writer lays it out, over the
// keys now in the arena, and reseals it: after patching key bytes, the
// table is then consistent with them and only the key check can refuse.
void RebuildHash(std::string* bytes, uint32_t hash) {
  const std::vector<std::string> keys = HashKeys(*bytes, hash);
  const taxonomy::SnapshotSectionInfo info =
      (*taxonomy::ReadSnapshotSections(*bytes))[hash];
  const uint64_t num_slots = info.size / 4;
  ASSERT_EQ(num_slots, taxonomy::SnapshotHashSlots(keys.size()));
  std::vector<uint32_t> slots(num_slots, taxonomy::kInvalidNode);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    uint64_t slot = util::Fnv1a64(keys[i]) & (num_slots - 1);
    while (slots[slot] != taxonomy::kInvalidNode) {
      slot = (slot + 1) & (num_slots - 1);
    }
    slots[slot] = i;
  }
  std::memcpy(bytes->data() + info.offset, slots.data(), info.size);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(bytes, hash).ok());
}

// Loads `bytes` and requires kInvalidArgument with `why` in the message, so
// a case proves the check it targets refused it.
void ExpectRefusedBecause(const std::string& name, const std::string& bytes,
                          const std::string& why) {
  const std::string path = WriteBytes(name, bytes);
  auto snap = taxonomy::ServingView::Load(path);
  ASSERT_FALSE(snap.ok()) << name << " loaded successfully";
  EXPECT_EQ(snap.status().code(), util::StatusCode::kInvalidArgument)
      << name << ": " << snap.status().ToString();
  EXPECT_NE(snap.status().message().find(why), std::string::npos)
      << name << ": " << snap.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotRobustnessTest, HashSlotOutOfRangeRejected) {
  for (const uint32_t hash : {kNameHash, kMentionHash}) {
    std::string bytes = ValidSnapshotBytes();
    const auto info = (*taxonomy::ReadSnapshotSections(bytes))[hash];
    const uint32_t keys = static_cast<uint32_t>(HashKeys(bytes, hash).size());
    // Overwrite the first empty slot with the first id past the keys.
    size_t slot = 0;
    while (ReadU32(bytes, info.offset + 4 * slot) != taxonomy::kInvalidNode) {
      ++slot;
    }
    Patch<uint32_t>(&bytes, info.offset + 4 * slot, keys);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, hash).ok());
    ExpectRefusedBecause("hash_oor_" + std::to_string(hash) + ".snap", bytes,
                         "hash slot out of range");
  }
}

TEST(SnapshotRobustnessTest, KeyOffItsProbeChainRejected) {
  for (const uint32_t hash : {kNameHash, kMentionHash}) {
    std::string bytes = ValidSnapshotBytes();
    const auto info = (*taxonomy::ReadSnapshotSections(bytes))[hash];
    const size_t num_slots = info.size / 4;
    // Move the first stored key into an empty slot. Every slot between its
    // home and its old slot stays filled and the old slot is now empty, so
    // its own probe chain ends before reaching it.
    size_t from = 0;
    while (ReadU32(bytes, info.offset + 4 * from) == taxonomy::kInvalidNode) {
      ++from;
    }
    size_t to = 0;
    while (to == from ||
           ReadU32(bytes, info.offset + 4 * to) != taxonomy::kInvalidNode) {
      ASSERT_LT(++to, num_slots);
    }
    const uint32_t key = ReadU32(bytes, info.offset + 4 * from);
    Patch<uint32_t>(&bytes, info.offset + 4 * to, key);
    Patch<uint32_t>(&bytes, info.offset + 4 * from, taxonomy::kInvalidNode);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, hash).ok());
    ExpectRefusedBecause("hash_unreachable_" + std::to_string(hash) + ".snap",
                         bytes, "hash does not reach key");
  }
}

TEST(SnapshotRobustnessTest, DuplicateNamesRejected) {
  std::string bytes = ValidSnapshotBytes();
  const std::vector<std::string> names = HashKeys(bytes, kNameHash);
  // 演员 and 歌手 have equal byte lengths: copy the first over the second
  // in the name arena, then rebuild the name hash over the patched names so
  // both sit on one probe chain and the duplicate check is what refuses.
  const auto sections = *taxonomy::ReadSnapshotSections(bytes);
  const uint32_t actor = 1;
  const uint32_t singer = 2;
  ASSERT_EQ(names[actor], "演员");
  ASSERT_EQ(names[singer], "歌手");
  const uint64_t singer_begin = ReadU64(bytes, sections[1].offset + 8 * singer);
  bytes.replace(sections[2].offset + singer_begin, names[actor].size(),
                names[actor]);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 2).ok());
  RebuildHash(&bytes, kNameHash);
  ExpectRefusedBecause("dupnames.snap", bytes, "duplicate keys");
}

TEST(SnapshotRobustnessTest, DuplicateMentionsRejected) {
  std::string bytes = ValidSnapshotBytes();
  const std::vector<std::string> mentions = HashKeys(bytes, kMentionHash);
  ASSERT_EQ(mentions.size(), 2u);
  ASSERT_EQ(mentions[0].size(), mentions[1].size());
  const auto sections = *taxonomy::ReadSnapshotSections(bytes);
  const uint64_t second_begin = ReadU64(bytes, sections[12].offset + 8);
  bytes.replace(sections[13].offset + second_begin, mentions[0].size(),
                mentions[0]);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 13).ok());
  RebuildHash(&bytes, kMentionHash);
  // Equal adjacent mentions break the strict arena order first.
  ExpectRefusedBecause("dupmentions.snap", bytes, "mentions not sorted");
}

TEST(SnapshotRobustnessTest, HashWithNoEmptySlotRejected) {
  // A full table would make a probe for an absent key spin forever; the
  // loader must refuse it (and terminate doing so).
  for (const uint32_t hash : {kNameHash, kMentionHash}) {
    std::string bytes = ValidSnapshotBytes();
    const auto info = (*taxonomy::ReadSnapshotSections(bytes))[hash];
    for (size_t slot = 0; slot < info.size / 4; ++slot) {
      if (ReadU32(bytes, info.offset + 4 * slot) == taxonomy::kInvalidNode) {
        Patch<uint32_t>(&bytes, info.offset + 4 * slot, 0u);
      }
    }
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, hash).ok());
    ExpectRefusedBecause("hash_full_" + std::to_string(hash) + ".snap", bytes,
                         "hash holds");
  }
}

TEST(SnapshotRobustnessTest, NonPowerOfTwoSlotCountRejected) {
  for (const uint32_t hash : {kNameHash, kMentionHash}) {
    std::string bytes = ValidSnapshotBytes();
    const auto info = (*taxonomy::ReadSnapshotSections(bytes))[hash];
    ASSERT_GE(info.size, 8u);
    // One slot fewer: the table still fits the file, but its slot count is
    // no longer a power of two.
    const size_t entry = taxonomy::kSnapshotHeaderSize +
                         hash * taxonomy::kSnapshotSectionEntrySize;
    Patch<uint64_t>(&bytes, entry + 16, info.size - 4);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, hash).ok());
    ExpectRefusedBecause("hash_slots_" + std::to_string(hash) + ".snap", bytes,
                         "has size");
  }
}

TEST(SnapshotRobustnessTest, UnsortedMentionsRejected) {
  std::string bytes = ValidSnapshotBytes();
  auto sections = taxonomy::ReadSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Section 13 is the mention arena (sorted byte order). Corrupting its
  // first byte to 0xFF makes the first mention sort after the second; the
  // mention hash is rebuilt so the order check is what refuses it.
  bytes[(*sections)[13].offset] = static_cast<char>(0xFF);
  ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 13).ok());
  RebuildHash(&bytes, kMentionHash);
  ExpectRefusedBecause("unsortedmentions.snap", bytes, "mentions not sorted");
}

TEST(SnapshotRobustnessTest, TornWritesNeverLeaveLoadableCorruption) {
  // With write/fsync/rename faults armed, every WriteSnapshot either
  // succeeds or leaves the destination as it was: absent, or the previous
  // complete generation. A load after each attempt must never see torn or
  // corrupt bytes.
  taxonomy::Taxonomy t;
  t.AddIsa("实体", "概念", taxonomy::Source::kInfobox, 0.9f);
  const auto view = taxonomy::ServingView::Encode(t, taxonomy::MentionIndex());

  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::string path = ::testing::TempDir() + "/torn_" +
                             std::to_string(seed) + ".snap";
    std::remove(path.c_str());
    int successes = 0;
    {
      util::ScopedFaultInjection faults(
          "snapshot.write=0.4;snapshot.fsync=0.3;snapshot.rename=0.4", seed);
      for (int attempt = 0; attempt < 8; ++attempt) {
        const util::Status status = taxonomy::WriteSnapshot(*view, path);
        if (status.ok()) ++successes;
        auto snap = taxonomy::ServingView::Load(path);
        if (snap.ok()) {
          // Whatever is on disk is a complete snapshot of this view.
          EXPECT_EQ((*snap)->bytes(), view->bytes());
        } else {
          // Only "no complete file yet" is acceptable — never corruption.
          EXPECT_EQ(snap.status().code(), util::StatusCode::kNotFound)
              << "seed " << seed << " attempt " << attempt << ": "
              << snap.status().ToString();
        }
      }
    }
    // Once a write succeeded the file persists; later failed attempts
    // cannot take it away.
    if (successes > 0) {
      auto snap = taxonomy::ServingView::Load(path);
      EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotRobustnessTest, InjectedReadFaultIsIoError) {
  const std::string path =
      WriteBytes("readfault.snap", ValidSnapshotBytes());
  {
    util::ScopedFaultInjection faults("snapshot.load.read=1", 3);
    auto snap = taxonomy::ServingView::Load(path);
    ASSERT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), util::StatusCode::kIoError);
  }
  auto snap = taxonomy::ServingView::Load(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  std::remove(path.c_str());
}

// --- Delta images (layered views): never on disk, validated in memory ---

// A folded base of two nodes, a -> c, and the pair it grows into: b -> c
// appends node b and patches base row c, and mention "m" is added.
struct DeltaWorld {
  DeltaWorld() {
    before.AddIsa("a", "c", taxonomy::Source::kTag, 0.5f);
    base = taxonomy::ServingView::Encode(before, {});
    after = before.Clone();
    after.AddIsa("b", "c", taxonomy::Source::kInfobox, 0.7f);
    mentions["m"] = {after.Find("b")};
    changes.nodes = {after.Find("c")};
    changes.mentions = {&*mentions.find("m")};
  }
  std::string Bytes() const {
    return taxonomy::EncodeDeltaImage(*base, after, mentions, changes);
  }

  taxonomy::Taxonomy before;
  std::shared_ptr<const taxonomy::ServingView> base;
  taxonomy::Taxonomy after;
  taxonomy::MentionIndex mentions;
  taxonomy::LayerChanges changes;
};

// Layers `bytes` over `base` and requires a clean refusal with `why` in
// the message.
void ExpectDeltaRefused(const std::shared_ptr<const taxonomy::ServingView>& base,
                        const std::string& bytes, util::StatusCode want,
                        const std::string& why) {
  auto layered = taxonomy::LayerDeltaImage(base, bytes);
  ASSERT_FALSE(layered.ok()) << why << ": layered successfully";
  EXPECT_EQ(layered.status().code(), want) << layered.status().ToString();
  EXPECT_NE(layered.status().message().find(why), std::string::npos)
      << layered.status().ToString();
}

TEST(SnapshotRobustnessTest, ValidDeltaLayers) {
  const DeltaWorld world;
  auto layered = taxonomy::LayerDeltaImage(world.base, world.Bytes());
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  EXPECT_TRUE((*layered)->layered());
  EXPECT_EQ((*layered)->num_nodes(), 3u);
  EXPECT_EQ((*layered)->num_edges(), 2u);
  EXPECT_EQ((*layered)->bytes(),
            taxonomy::ServingView::Encode(world.after, world.mentions)
                ->bytes());
}

TEST(SnapshotRobustnessTest, DeltaNamingABaseNodeAgainRefused) {
  // A pair whose appended id range holds a name the base already has.
  const DeltaWorld world;
  taxonomy::Taxonomy renamed;
  renamed.AddNode("a", taxonomy::NodeKind::kEntity);
  renamed.AddNode("x", taxonomy::NodeKind::kConcept);
  renamed.AddNode("c", taxonomy::NodeKind::kConcept);
  renamed.AddIsa(0, 2, taxonomy::Source::kTag, 0.5f);
  ExpectDeltaRefused(
      world.base,
      taxonomy::EncodeDeltaImage(*world.base, renamed, {}, {}),
      util::StatusCode::kInvalidArgument, "names a base node again");
}

TEST(SnapshotRobustnessTest, DeltaTargetPastTotalNodesRefused) {
  // Sections 5 and 9 are the hypernym and hyponym targets; the layered
  // view has 3 nodes, so target 3 is one past the end.
  const DeltaWorld world;
  for (const uint32_t id : {5u, 9u}) {
    std::string bytes = world.Bytes();
    const auto sections = taxonomy::ReadSnapshotSections(bytes);
    ASSERT_TRUE(sections.ok());
    ASSERT_EQ(sections->size(), taxonomy::kSnapshotDeltaSectionCount);
    Patch<uint32_t>(&bytes, (*sections)[id].offset, 3u);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, id).ok());
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kInvalidArgument,
                       "target out of range");
  }
}

TEST(SnapshotRobustnessTest, DeltaCrossChecksAgainstItsBase) {
  const DeltaWorld world;
  const std::string valid = world.Bytes();
  const auto sections = *taxonomy::ReadSnapshotSections(valid);
  {
    // Mention candidate ids (section 15) stop below the total too.
    std::string bytes = valid;
    Patch<uint32_t>(&bytes, sections[15].offset, 3u);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 15).ok());
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kInvalidArgument,
                       "candidate id out of range");
  }
  {
    // Row ids (section 17) must be base nodes: the base has 2.
    std::string bytes = valid;
    Patch<uint32_t>(&bytes, sections[17].offset, 2u);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 17).ok());
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kInvalidArgument,
                       "not a base node");
  }
  {
    // "m" is new to the base, so its replace mark (section 18) must be 0.
    std::string bytes = valid;
    Patch<uint8_t>(&bytes, sections[18].offset, 1);
    ASSERT_TRUE(taxonomy::ResealSnapshotSection(&bytes, 18).ok());
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kInvalidArgument,
                       "replace mark");
  }
  {
    // The header records the base's node count (offset 44).
    std::string bytes = valid;
    Patch<uint32_t>(&bytes, 44, 7u);
    ASSERT_TRUE(taxonomy::ResealSnapshotHeader(&bytes).ok());
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kInvalidArgument,
                       "another base");
  }
  {
    // A flipped payload byte without a reseal fails its section CRC.
    std::string bytes = valid;
    bytes[sections[2].offset] ^= 0x20;
    ExpectDeltaRefused(world.base, bytes, util::StatusCode::kDataLoss,
                       "crc mismatch");
  }
  // A folded image is not a delta, and a delta does not load as a file.
  ExpectDeltaRefused(world.base, std::string(world.base->bytes()),
                     util::StatusCode::kInvalidArgument, "bad magic");
  ExpectRejectedWith("delta.snap", valid, util::StatusCode::kInvalidArgument);
  // Every truncation is refused without an out-of-bounds read.
  for (size_t cut = 0; cut < valid.size(); cut += 7) {
    auto layered = taxonomy::LayerDeltaImage(world.base, valid.substr(0, cut));
    EXPECT_FALSE(layered.ok()) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace cnpb
