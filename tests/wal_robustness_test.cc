// Corruption corpus for WAL replay (DESIGN.md §13): every way a log can be
// damaged on disk — truncation at every byte boundary, flipped payload and
// CRC bytes, garbage tails, zero-byte files, oversized length prefixes,
// nonzero reserved fields, mismatched segment headers, corrupt cursors —
// must resolve to the documented contract and never to a crash, a silent
// skip, or an out-of-bounds read (the asan CI job holds the scanner to
// that). The contract under test:
//
//   last segment    invalid bytes are a torn tail: replay ends cleanly
//                   there with every record before the tear delivered;
//   sealed segment  invalid bytes are corruption: kDataLoss, because an
//                   fsync already covered them;
//   cursor          anything but a checksummed, well-formed file is
//                   kDataLoss — recovery must not guess a replay boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ingest/wal.h"
#include "util/status.h"

namespace cnpb {
namespace {

constexpr size_t kSegmentHeaderBytes = 16;
constexpr size_t kRecordHeaderBytes = 20;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A fresh WAL directory holding `records` delete-op records (fixed-size
// payloads so corpus offsets are predictable) in a single segment.
// Returns the directory; `*segment_path` names the one segment.
std::string BuildLog(const std::string& name, int records,
                     std::string* segment_path) {
  const std::string dir = ::testing::TempDir() + "/wal_corpus_" + name;
  auto old = ingest::ListWalSegments(dir);
  if (old.ok()) {
    for (const auto& segment : *old) std::remove(segment.path.c_str());
  }
  std::remove((dir + "/wal.cursor").c_str());
  auto writer = ingest::WalWriter::Open(dir);
  EXPECT_TRUE(writer.ok());
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(
        (*writer)
            ->Append(ingest::WalOp::kDelete, 1, "entity_" + std::to_string(i))
            .ok());
  }
  EXPECT_TRUE((*writer)->Sync().ok());
  auto segments = ingest::ListWalSegments(dir);
  EXPECT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 1u);
  *segment_path = (*segments)[0].path;
  return dir;
}

struct ReplayOutcome {
  util::Status status = util::Status::Ok();
  std::vector<uint64_t> lsns;
  ingest::WalReplayReport report;
};

ReplayOutcome Replay(const std::string& dir) {
  ReplayOutcome out;
  out.status = ingest::ReplayWal(dir, 0,
                                 [&](const ingest::WalRecord& r) {
                                   out.lsns.push_back(r.lsn);
                                   return util::Status::Ok();
                                 },
                                 &out.report);
  return out;
}

// Complete records representable in a prefix of `bytes` truncated at
// `cut`: record i (0-based) survives iff its full frame fits.
size_t CompleteRecords(size_t cut, const std::vector<size_t>& frame_ends) {
  size_t n = 0;
  for (size_t end : frame_ends) {
    if (end <= cut) ++n;
  }
  return n;
}

// Frame end offsets of each record in a segment image.
std::vector<size_t> FrameEnds(const std::string& bytes) {
  std::vector<size_t> ends;
  size_t offset = kSegmentHeaderBytes;
  while (offset + kRecordHeaderBytes <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + offset, sizeof(len));
    offset += kRecordHeaderBytes + len;
    if (offset > bytes.size()) break;
    ends.push_back(offset);
  }
  return ends;
}

TEST(WalTornTailTest, TruncationAtEveryByteIsACleanTear) {
  std::string segment_path;
  const std::string dir = BuildLog("truncate", 4, &segment_path);
  const std::string intact = ReadBytes(segment_path);
  const std::vector<size_t> ends = FrameEnds(intact);
  ASSERT_EQ(ends.size(), 4u);

  for (size_t cut = 0; cut < intact.size(); ++cut) {
    WriteBytes(segment_path, intact.substr(0, cut));
    const ReplayOutcome out = Replay(dir);
    ASSERT_TRUE(out.status.ok())
        << "cut at " << cut << ": " << out.status.ToString();
    const size_t expect = CompleteRecords(cut, ends);
    ASSERT_EQ(out.lsns.size(), expect) << "cut at " << cut;
    for (size_t i = 0; i < out.lsns.size(); ++i) {
      ASSERT_EQ(out.lsns[i], i + 1) << "cut at " << cut;
    }
    // A cut below the full segment either tears mid-record or lands on a
    // record boundary (clean EOF, incl. cut == last frame end with no
    // trailing bytes) — both end the scan with the surviving prefix.
    if (cut < kSegmentHeaderBytes ||
        (expect < ends.size() && cut != (expect ? ends[expect - 1] : 0) &&
         cut > kSegmentHeaderBytes)) {
      EXPECT_TRUE(out.report.torn_tail) << "cut at " << cut;
    }
  }
  WriteBytes(segment_path, intact);
  EXPECT_EQ(Replay(dir).lsns.size(), 4u);
}

TEST(WalTornTailTest, FlippedByteInLastSegmentTearsNeverSkips) {
  std::string segment_path;
  const std::string dir = BuildLog("flip_last", 3, &segment_path);
  const std::string intact = ReadBytes(segment_path);
  const std::vector<size_t> ends = FrameEnds(intact);

  // Flip every byte past the segment header, one at a time. Each flip must
  // produce either the full log (flip in a later record's frame cannot
  // resurrect earlier ones — impossible here) or a clean tear at the record
  // containing the flip: a contiguous LSN prefix, never a gap.
  for (size_t pos = kSegmentHeaderBytes; pos < intact.size(); ++pos) {
    std::string mutated = intact;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteBytes(segment_path, mutated);
    const ReplayOutcome out = Replay(dir);
    ASSERT_TRUE(out.status.ok())
        << "flip at " << pos << ": " << out.status.ToString();
    for (size_t i = 0; i < out.lsns.size(); ++i) {
      ASSERT_EQ(out.lsns[i], i + 1) << "flip at " << pos << " skipped a record";
    }
    // The record containing the flipped byte can never be delivered.
    size_t record_of_pos = 0;
    while (record_of_pos < ends.size() && ends[record_of_pos] <= pos) {
      ++record_of_pos;
    }
    EXPECT_LE(out.lsns.size(), record_of_pos) << "flip at " << pos;
  }
  WriteBytes(segment_path, intact);
}

TEST(WalSealedTest, FlippedByteInSealedSegmentIsDataLoss) {
  const std::string dir = ::testing::TempDir() + "/wal_corpus_sealed";
  auto old = ingest::ListWalSegments(dir);
  if (old.ok()) {
    for (const auto& segment : *old) std::remove(segment.path.c_str());
  }
  ingest::WalOptions options;
  options.segment_bytes = 64;  // every Sync rotates
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*writer)
            ->Append(ingest::WalOp::kDelete, 1, "entity_" + std::to_string(i))
            .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto segments = ingest::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_GE(segments->size(), 3u);
  const std::string sealed_path = (*segments)[0].path;
  const std::string intact = ReadBytes(sealed_path);

  // Corrupt record bytes in a sealed segment: an fsync covered these, so
  // damage is real data loss — every flavour must refuse, not tear.
  for (size_t pos = kSegmentHeaderBytes; pos < intact.size(); ++pos) {
    std::string mutated = intact;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteBytes(sealed_path, mutated);
    const ReplayOutcome out = Replay(dir);
    ASSERT_FALSE(out.status.ok()) << "flip at " << pos << " replayed";
    EXPECT_EQ(out.status.code(), util::StatusCode::kDataLoss)
        << "flip at " << pos;
  }
  // Truncation of a sealed segment likewise.
  for (size_t cut : {size_t{0}, kSegmentHeaderBytes - 1,
                     kSegmentHeaderBytes + 3, intact.size() - 1}) {
    WriteBytes(sealed_path, intact.substr(0, cut));
    EXPECT_EQ(Replay(dir).status.code(), util::StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  WriteBytes(sealed_path, intact);
  EXPECT_TRUE(Replay(dir).status.ok());
}

TEST(WalTornTailTest, GarbageTailIsDiscarded) {
  std::string segment_path;
  const std::string dir = BuildLog("garbage", 3, &segment_path);
  const std::string intact = ReadBytes(segment_path);

  for (const std::string& tail :
       {std::string(1, '\x7f'), std::string(7, '\0'), std::string(64, 'Z'),
        std::string("\xff\xff\xff\xff garbage")}) {
    WriteBytes(segment_path, intact + tail);
    const ReplayOutcome out = Replay(dir);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.lsns.size(), 3u);
    EXPECT_TRUE(out.report.torn_tail);
    EXPECT_EQ(out.report.torn_bytes, tail.size());
  }
}

TEST(WalTornTailTest, OversizedLengthPrefixIsBoundedNotAllocated) {
  std::string segment_path;
  const std::string dir = BuildLog("oversized", 2, &segment_path);
  std::string bytes = ReadBytes(segment_path);
  // Append a frame whose length prefix claims ~4 GiB: replay must treat it
  // as framing garbage (a torn length), not attempt the allocation.
  std::string frame(kRecordHeaderBytes, '\0');
  const uint32_t huge = 0xfffffff0u;
  std::memcpy(frame.data(), &huge, sizeof(huge));
  WriteBytes(segment_path, bytes + frame);

  const ReplayOutcome out = Replay(dir);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.lsns.size(), 2u);
  EXPECT_TRUE(out.report.torn_tail);
}

TEST(WalTornTailTest, NonzeroReservedFieldInvalidatesRecord) {
  std::string segment_path;
  const std::string dir = BuildLog("reserved", 2, &segment_path);
  std::string bytes = ReadBytes(segment_path);
  const std::vector<size_t> ends = FrameEnds(bytes);
  ASSERT_EQ(ends.size(), 2u);
  // Set the reserved u16 of the second record; the CRC covers it, so this
  // also exercises crc-validated-but-malformed handling if recomputed.
  const size_t second_start = ends[0];
  bytes[second_start + 18] = 1;
  WriteBytes(segment_path, bytes);

  const ReplayOutcome out = Replay(dir);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.lsns.size(), 1u);
  EXPECT_TRUE(out.report.torn_tail);
}

TEST(WalTornTailTest, ZeroByteAndHeaderOnlySegments) {
  std::string segment_path;
  const std::string dir = BuildLog("empty", 2, &segment_path);
  const std::string intact = ReadBytes(segment_path);

  // Zero-byte last segment: a crash between open and the header write.
  WriteBytes(segment_path, "");
  ReplayOutcome out = Replay(dir);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.lsns.size(), 0u);
  EXPECT_TRUE(out.report.torn_tail);

  // Header-only segment: a crash right after rotation. Valid and empty.
  WriteBytes(segment_path, intact.substr(0, kSegmentHeaderBytes));
  out = Replay(dir);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.lsns.size(), 0u);
  EXPECT_FALSE(out.report.torn_tail);
  WriteBytes(segment_path, intact);
}

TEST(WalTornTailTest, ReopenTruncatesTearBeforeSealingTheSegment) {
  std::string segment_path;
  const std::string dir = BuildLog("reseal", 3, &segment_path);
  const std::string intact = ReadBytes(segment_path);

  // A torn tail from a crash mid-append.
  WriteBytes(segment_path, intact + std::string(48, '\xbe'));

  // First recovery boot: Open must cut the tear off before creating the
  // fresh segment that demotes this one to sealed. Without the cut, a
  // second crash before compaction leaves the tear inside a sealed segment
  // and every later boot fails kDataLoss — a crash-loop bricks recovery.
  {
    auto writer = ingest::WalWriter::Open(dir);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->next_lsn(), 4u);
    auto lsn = (*writer)->Append(ingest::WalOp::kDelete, 1, "after_tear");
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 4u);
    ASSERT_TRUE((*writer)->Sync().ok());
    (*writer)->SimulateCrash();  // second crash, cursor never advanced
  }

  // Second recovery boot: the demoted segment now scans as sealed and must
  // be clean — all three pre-tear records plus the post-recovery one.
  const ReplayOutcome out = Replay(dir);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.lsns, (std::vector<uint64_t>{1, 2, 3, 4}));
  auto reopened = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_lsn(), 5u);
}

TEST(WalTornTailTest, CrashLoopOverTornHeaderNeverBricksRecovery) {
  std::string segment_path;
  const std::string dir = BuildLog("reseal_header", 2, &segment_path);
  const std::string intact = ReadBytes(segment_path);

  // Tear inside the segment header itself (crash between open and the
  // header fsync), then crash-loop through several boots: every boot must
  // recover, and no boot may strand an unscannable sealed segment.
  WriteBytes(segment_path, intact.substr(0, kSegmentHeaderBytes / 2));
  for (int boot = 0; boot < 3; ++boot) {
    const ReplayOutcome out = Replay(dir);
    ASSERT_TRUE(out.status.ok())
        << "boot " << boot << ": " << out.status.ToString();
    auto writer = ingest::WalWriter::Open(dir);
    ASSERT_TRUE(writer.ok()) << "boot " << boot << ": "
                             << writer.status().ToString();
    (*writer)->SimulateCrash();
  }
}

TEST(WalSealedTest, HeaderNameLsnMismatchIsAlwaysDataLoss) {
  std::string segment_path;
  const std::string dir = BuildLog("mismatch", 2, &segment_path);
  std::string bytes = ReadBytes(segment_path);
  // The header claims first_lsn 99 but the filename says 1: a renamed or
  // cross-wired file. Even in the last segment this is never a torn tail —
  // the bytes are internally consistent, just from the wrong place.
  const uint64_t wrong = 99;
  std::memcpy(bytes.data() + 8, &wrong, sizeof(wrong));
  WriteBytes(segment_path, bytes);

  const ReplayOutcome out = Replay(dir);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), util::StatusCode::kDataLoss);
}

TEST(WalCursorRobustnessTest, CorruptCursorIsDataLossNeverAGuess) {
  const std::string dir = ::testing::TempDir() + "/wal_corpus_cursor";
  ASSERT_TRUE(ingest::EnsureDir(dir).ok());
  const std::string cursor_path = dir + "/wal.cursor";

  ingest::IngestCursor cursor;
  cursor.applied_lsn = 17;
  cursor.checkpoint_file = "checkpoint-17.pages.tsv";
  ASSERT_TRUE(ingest::SaveCursor(dir, cursor).ok());
  const std::string intact = ReadBytes(cursor_path);
  ASSERT_FALSE(intact.empty());

  // Flip every byte.
  for (size_t pos = 0; pos < intact.size(); ++pos) {
    std::string mutated = intact;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteBytes(cursor_path, mutated);
    auto loaded = ingest::LoadCursor(dir);
    ASSERT_FALSE(loaded.ok()) << "flip at " << pos << " loaded";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
        << "flip at " << pos;
  }
  // Truncate at every byte.
  for (size_t cut = 0; cut < intact.size(); ++cut) {
    WriteBytes(cursor_path, intact.substr(0, cut));
    auto loaded = ingest::LoadCursor(dir);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " loaded";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  // Plausible-but-wrong shapes.
  for (const std::string& body :
       {std::string("17\t3\n"), std::string("not\ta\tcursor\tat all\n"),
        std::string("18446744073709551616\t0\tx\ty\n"),  // lsn overflow
        std::string(1024, 'A')}) {
    WriteBytes(cursor_path, body);
    auto loaded = ingest::LoadCursor(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  }

  WriteBytes(cursor_path, intact);
  auto restored = ingest::LoadCursor(dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->applied_lsn, 17u);
}

}  // namespace
}  // namespace cnpb
