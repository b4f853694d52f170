// Crash-safe persistence: CRC32, AtomicFileWriter, checksum footers, and
// the save/load recovery paths built on them (taxonomy snapshot .bak
// fallback, nn checkpoint trailer).
#include "util/atomic_file.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/serialize.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/tsv.h"

namespace cnpb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MustRead(const std::string& path) {
  auto content = util::ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << content.status().ToString();
  return content.ok() ? *content : std::string();
}

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard check values for the ISO-HDLC (zlib) CRC-32.
  EXPECT_EQ(util::Crc32(""), 0x00000000u);
  EXPECT_EQ(util::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string a = "hello ";
  const std::string b = "world";
  EXPECT_EQ(util::Crc32(b, util::Crc32(a)), util::Crc32(a + b));
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // Standard check values for CRC-32C (Castagnoli, iSCSI/ext4).
  EXPECT_EQ(util::Crc32c(""), 0x00000000u);
  EXPECT_EQ(util::Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string a = "hello ";
  const std::string b = "world";
  EXPECT_EQ(util::Crc32c(b, util::Crc32c(a)), util::Crc32c(a + b));
}

TEST(Crc32cTest, ChainingConsistentAcrossBlockBoundaries) {
  // The hardware path switches strategy at 8 KiB blocks (3-way interleave
  // with a GF(2) combine) and again for sub-8-byte tails; splitting the
  // buffer at awkward points must not change the value. This also pins the
  // hardware and software implementations to each other: whichever path
  // runs, the chained value over odd splits must match the one-shot value.
  std::string data(3 * 8192 + 8192 / 2 + 5, '\0');
  uint32_t x = 0x12345678u;
  for (auto& ch : data) {  // xorshift keeps the buffer incompressible
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    ch = static_cast<char>(x);
  }
  const uint32_t whole = util::Crc32c(data);
  for (const size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{4095},
                             size_t{8192}, size_t{3 * 8192},
                             data.size() - 3}) {
    const std::string_view head(data.data(), split);
    const std::string_view tail(data.data() + split, data.size() - split);
    EXPECT_EQ(util::Crc32c(tail, util::Crc32c(head)), whole)
        << "split at " << split;
  }
}

TEST(AtomicFileTest, WriteThenReadRoundTrips) {
  const std::string path = TempPath("atomic_roundtrip.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "payload\n").ok());
  EXPECT_EQ(MustRead(path), "payload\n");
  // Overwrite is atomic too.
  ASSERT_TRUE(util::WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(MustRead(path), "second\n");
}

TEST(AtomicFileTest, AbandonedWriterLeavesDestinationUntouched) {
  const std::string path = TempPath("atomic_abandoned.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "original").ok());
  {
    util::AtomicFileWriter writer(path);
    writer.Append("never committed");
    // Destructor without Commit() abandons the write.
  }
  EXPECT_EQ(MustRead(path), "original");
}

TEST(AtomicFileTest, FooterVerifiesAndStrips) {
  const std::string payload = "a\tb\nc\td\n";
  const std::string path = TempPath("atomic_footer.tsv");
  ASSERT_TRUE(
      util::WriteFileAtomic(path, payload, {.checksum_footer = true}).ok());
  const std::string on_disk = MustRead(path);
  ASSERT_GT(on_disk.size(), payload.size());
  auto verified = util::StripVerifyChecksumFooter(on_disk, path);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, payload);
}

TEST(AtomicFileTest, FooterlessContentPassesThroughUnchanged) {
  auto verified = util::StripVerifyChecksumFooter("legacy\tfile\n", "x.tsv");
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, "legacy\tfile\n");
}

TEST(AtomicFileTest, CorruptedPayloadIsDataLoss) {
  const std::string path = TempPath("atomic_corrupt.tsv");
  ASSERT_TRUE(
      util::WriteFileAtomic(path, "a\tb\n", {.checksum_footer = true}).ok());
  std::string on_disk = MustRead(path);
  on_disk[0] = 'z';  // flip a payload byte; footer now mismatches
  auto verified = util::StripVerifyChecksumFooter(on_disk, path);
  EXPECT_EQ(verified.status().code(), util::StatusCode::kDataLoss);
}

TEST(AtomicFileTest, InjectedRenameFaultLeavesOldFileIntact) {
  const std::string path = TempPath("atomic_faulted.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "old good bytes").ok());
  {
    util::ScopedFaultInjection scoped("file.rename=1", 17);
    const util::Status status = util::WriteFileAtomic(path, "new bytes");
    EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  }
  EXPECT_EQ(MustRead(path), "old good bytes");
  // And no temp litter: the very same path writes fine afterwards.
  ASSERT_TRUE(util::WriteFileAtomic(path, "new bytes").ok());
  EXPECT_EQ(MustRead(path), "new bytes");
}

TEST(AtomicFileTest, InjectedDirsyncFaultFailsCommitWithFileInstalled) {
  const std::string path = TempPath("atomic_dirsync.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "old good bytes").ok());
  {
    util::ScopedFaultInjection scoped("file.dirsync=1", 17);
    const util::Status status = util::WriteFileAtomic(path, "new bytes");
    EXPECT_EQ(status.code(), util::StatusCode::kIoError);
    // The rename already landed before the directory fsync failed: the new
    // bytes are visible, but the commit reported failure because the
    // *directory entry* may not survive a power cut — the caller must
    // treat the write as not durable and retry.
    EXPECT_EQ(MustRead(path), "new bytes");
  }
  ASSERT_TRUE(util::WriteFileAtomic(path, "new bytes").ok());
  EXPECT_EQ(MustRead(path), "new bytes");
}

TEST(AtomicFileTest, ParentDirSplitsLikeDirname) {
  EXPECT_EQ(util::ParentDir("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(util::ParentDir("/c.txt"), "/");
  EXPECT_EQ(util::ParentDir("c.txt"), ".");
}

TEST(AtomicFileTest, SyncDirAcceptsRealDirectories) {
  EXPECT_TRUE(util::SyncDir(::testing::TempDir()).ok());
  EXPECT_FALSE(util::SyncDir(::testing::TempDir() + "/no_such_dir").ok());
}

TEST(AtomicFileTest, TsvReadRejectsTamperedChecksummedFile) {
  const std::string path = TempPath("atomic_tamper.tsv");
  {
    util::TsvWriter writer(path);
    writer.WriteRow({"k", "v"});
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string on_disk = MustRead(path);
  on_disk.insert(0, "extra\trow\n");  // prepend without refreshing the footer
  ASSERT_TRUE(util::WriteFileAtomic(path, on_disk).ok());
  auto rows = util::ReadTsvFile(path);
  EXPECT_EQ(rows.status().code(), util::StatusCode::kDataLoss);
}

// A one-edge taxonomy encoded as a snapshot; `entity` tells versions apart.
std::shared_ptr<const taxonomy::ServingView> TinySnapshot(
    const std::string& entity) {
  taxonomy::Taxonomy t;
  const taxonomy::NodeId e = t.AddNode(entity, taxonomy::NodeKind::kEntity);
  const taxonomy::NodeId c = t.AddNode("概念", taxonomy::NodeKind::kConcept);
  t.AddIsa(e, c, taxonomy::Source::kInfobox, 0.9f);
  return taxonomy::ServingView::Encode(t, {{entity, {e}}});
}

TEST(DurableTaxonomyTest, FallbackRecoversFromCorruptPrimary) {
  const std::string path = TempPath("durable_taxonomy.snap");
  std::remove((path + ".bak").c_str());
  ASSERT_TRUE(
      taxonomy::WriteSnapshotWithBackup(*TinySnapshot("实体甲"), path).ok());
  // Second write preserves the first snapshot as .bak.
  ASSERT_TRUE(
      taxonomy::WriteSnapshotWithBackup(*TinySnapshot("实体乙"), path).ok());

  // Corrupt the primary in place: flip the first name byte, under its
  // section CRC.
  std::string on_disk = MustRead(path);
  auto sections = taxonomy::ReadSnapshotSections(on_disk);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  on_disk[(*sections)[2].offset] ^= 0x5a;
  ASSERT_TRUE(
      util::WriteFileAtomic(path, on_disk, {.checksum_footer = false}).ok());

  auto strict = taxonomy::ServingView::Load(path);
  EXPECT_EQ(strict.status().code(), util::StatusCode::kDataLoss);

  auto recovered = taxonomy::LoadSnapshotWithFallback(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_NE((*recovered)->Find("实体甲"), taxonomy::kInvalidNode);
  EXPECT_EQ((*recovered)->MentionCandidates("实体甲").size(), 1u);

  // With both copies corrupt, the primary's verdict is reported.
  ASSERT_TRUE(util::WriteFileAtomic(path + ".bak", on_disk,
                                    {.checksum_footer = false})
                  .ok());
  auto neither = taxonomy::LoadSnapshotWithFallback(path);
  EXPECT_EQ(neither.status().code(), util::StatusCode::kDataLoss);
}

TEST(DurableTaxonomyTest, MissingPrimaryIsNotCorruption) {
  const std::string path = TempPath("durable_missing.snap");
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  auto loaded = taxonomy::LoadSnapshotWithFallback(path);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);

  // A last-good copy does not stand in for a primary that is simply absent:
  // missing data is reported, never silently replaced by an older version.
  ASSERT_TRUE(taxonomy::WriteSnapshot(*TinySnapshot("实体甲"), path + ".bak")
                  .ok());
  auto absent = taxonomy::LoadSnapshotWithFallback(path);
  EXPECT_EQ(absent.status().code(), util::StatusCode::kNotFound);
  std::remove((path + ".bak").c_str());
}

TEST(DurableTaxonomyTest, InjectedSaveFaultPreservesPreviousFile) {
  const std::string path = TempPath("durable_faulted.snap");
  ASSERT_TRUE(
      taxonomy::WriteSnapshotWithBackup(*TinySnapshot("实体甲"), path).ok());
  {
    util::ScopedFaultInjection scoped("snapshot.rename=1", 23);
    EXPECT_FALSE(
        taxonomy::WriteSnapshotWithBackup(*TinySnapshot("实体乙"), path).ok());
  }
  auto loaded = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE((*loaded)->Find("实体甲"), taxonomy::kInvalidNode);
  EXPECT_EQ((*loaded)->Find("实体乙"), taxonomy::kInvalidNode);

  // A failed .bak refresh is not fatal: the primary still advances.
  {
    util::ScopedFaultInjection scoped("snapshot.backup.rename=1", 23);
    ASSERT_TRUE(
        taxonomy::WriteSnapshotWithBackup(*TinySnapshot("实体乙"), path).ok());
  }
  auto advanced = taxonomy::ServingView::Load(path);
  ASSERT_TRUE(advanced.ok()) << advanced.status().ToString();
  EXPECT_NE((*advanced)->Find("实体乙"), taxonomy::kInvalidNode);
}

TEST(CheckpointCrcTest, TruncatedCheckpointIsRejected) {
  const std::string path = TempPath("ckpt_truncated.bin");
  std::vector<nn::Var> params = {nn::MakeVar(nn::Tensor::Zeros(2, 3), true),
                                 nn::MakeVar(nn::Tensor::Zeros(1, 4), true)};
  ASSERT_TRUE(nn::SaveParameters(params, path).ok());

  // Clean round trip first.
  ASSERT_TRUE(nn::LoadParameters(params, path).ok());

  // Drop the last byte: the trailer magic no longer lines up, and the
  // payload itself is torn -> load must fail, not read garbage.
  std::string bytes = MustRead(path);
  bytes.pop_back();
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());
  EXPECT_FALSE(nn::LoadParameters(params, path).ok());
}

TEST(CheckpointCrcTest, BitFlippedCheckpointIsDataLoss) {
  const std::string path = TempPath("ckpt_flipped.bin");
  std::vector<nn::Var> params = {nn::MakeVar(nn::Tensor::Zeros(4, 4), true)};
  ASSERT_TRUE(nn::SaveParameters(params, path).ok());
  std::string bytes = MustRead(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one weight bit
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());
  const util::Status status = nn::LoadParameters(params, path);
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cnpb
