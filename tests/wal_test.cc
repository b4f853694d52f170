// WAL layer unit tests (DESIGN.md §13): record codec round-trips (including
// CJK payloads), segment rotation and reopen, replay ordering and bounded
// replay past the commit cursor, cursor persistence, segment pruning, and
// the fault points wal.append / wal.fsync / wal.rotate. The crash-shaped
// behaviours (torn tails, corruption corpus) live in wal_robustness_test;
// the end-to-end daemon contract lives in ingest_chaos_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ingest/wal.h"
#include "kb/page.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/tsv.h"

namespace cnpb {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/wal_test_" + name;
  // Tests may rerun in the same temp dir: wipe any previous contents.
  auto segments = ingest::ListWalSegments(dir);
  if (segments.ok()) {
    for (const auto& segment : *segments) std::remove(segment.path.c_str());
  }
  std::remove((dir + "/wal.cursor").c_str());
  return dir;
}

kb::EncyclopediaPage MakePage(const std::string& name) {
  kb::EncyclopediaPage page;
  page.name = name;
  page.mention = name;
  page.bracket = "歌手";
  page.abstract = name + "是一位歌手。";
  kb::SpoTriple entry;
  entry.subject = name;
  entry.predicate = "职业";
  entry.object = "歌手";
  page.infobox.push_back(entry);
  page.tags = {"歌手", "人物"};
  page.aliases = {name + "别名"};
  return page;
}

TEST(WalCodecTest, PageUpsertRoundTripsCjk) {
  const kb::EncyclopediaPage page = MakePage("刘德华");
  const std::string payload = ingest::EncodePageUpsert(page);
  auto decoded = ingest::DecodePageUpsert(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->name, "刘德华");
  EXPECT_EQ(decoded->mention, "刘德华");
  EXPECT_EQ(decoded->bracket, "歌手");
  EXPECT_EQ(decoded->abstract, page.abstract);
  ASSERT_EQ(decoded->infobox.size(), 1u);
  EXPECT_EQ(decoded->infobox[0].subject, "刘德华");
  EXPECT_EQ(decoded->infobox[0].predicate, "职业");
  EXPECT_EQ(decoded->infobox[0].object, "歌手");
  EXPECT_EQ(decoded->tags, page.tags);
  EXPECT_EQ(decoded->aliases, page.aliases);
  // page_id is not part of the wire format: the updater assigns fresh ids.
  EXPECT_EQ(decoded->page_id, 0u);
}

TEST(WalCodecTest, EmptyFieldsRoundTrip) {
  kb::EncyclopediaPage page;
  page.name = "x";
  auto decoded = ingest::DecodePageUpsert(ingest::EncodePageUpsert(page));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "x");
  EXPECT_TRUE(decoded->infobox.empty());
  EXPECT_TRUE(decoded->tags.empty());
  EXPECT_TRUE(decoded->aliases.empty());
}

TEST(WalCodecTest, TrailingBytesRejected) {
  std::string payload = ingest::EncodePageUpsert(MakePage("a"));
  payload += "extra";
  EXPECT_FALSE(ingest::DecodePageUpsert(payload).ok());
}

TEST(WalWriterTest, AppendSyncReplayRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ingest::WalWriter& wal = **writer;

  std::vector<uint64_t> lsns;
  for (int i = 0; i < 5; ++i) {
    auto lsn = wal.Append(ingest::WalOp::kUpsert, 1,
                          ingest::EncodePageUpsert(
                              MakePage("实体" + std::to_string(i))));
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  auto del = wal.Append(ingest::WalOp::kDelete, 0, "实体3");
  ASSERT_TRUE(del.ok());
  lsns.push_back(*del);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.durable_lsn(), lsns.back());

  // LSNs are contiguous from 1.
  for (size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);

  std::vector<ingest::WalRecord> records;
  ingest::WalReplayReport report;
  ASSERT_TRUE(ingest::ReplayWal(dir, 0,
                                [&](const ingest::WalRecord& r) {
                                  records.push_back(r);
                                  return util::Status::Ok();
                                },
                                &report)
                  .ok());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(report.records_delivered, 6u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.max_lsn, 6u);
  EXPECT_EQ(records[5].op, ingest::WalOp::kDelete);
  EXPECT_EQ(records[5].priority, 0);
  EXPECT_EQ(records[5].payload, "实体3");
  auto page = ingest::DecodePageUpsert(records[2].payload);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->name, "实体2");
}

TEST(WalWriterTest, ReplayAfterLsnSkipsPrefix) {
  const std::string dir = FreshDir("after_lsn");
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1,
                                  "n" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());

  std::vector<uint64_t> seen;
  ingest::WalReplayReport report;
  ASSERT_TRUE(ingest::ReplayWal(dir, 2,
                                [&](const ingest::WalRecord& r) {
                                  seen.push_back(r.lsn);
                                  return util::Status::Ok();
                                },
                                &report)
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(report.records_delivered, 2u);
  EXPECT_EQ(report.records_skipped, 2u);
}

TEST(WalWriterTest, RotationSealsSegmentsAndReplayStaysOrdered) {
  const std::string dir = FreshDir("rotate");
  ingest::WalOptions options;
  options.segment_bytes = 256;  // a few records per segment
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(ingest::WalOp::kDelete, 1,
                             "entity_" + std::to_string(i))
                    .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  EXPECT_GT((*writer)->rotations(), 2u);

  auto segments = ingest::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 3u);
  // Sorted by first_lsn, strictly increasing.
  for (size_t i = 1; i < segments->size(); ++i) {
    EXPECT_GT((*segments)[i].first_lsn, (*segments)[i - 1].first_lsn);
  }

  uint64_t prev = 0;
  ingest::WalReplayReport report;
  ASSERT_TRUE(ingest::ReplayWal(dir, 0,
                                [&](const ingest::WalRecord& r) {
                                  EXPECT_EQ(r.lsn, prev + 1);
                                  prev = r.lsn;
                                  return util::Status::Ok();
                                },
                                &report)
                  .ok());
  EXPECT_EQ(prev, 30u);
  EXPECT_EQ(report.segments_total, segments->size());
  EXPECT_EQ(report.segments_scanned, segments->size());
}

TEST(WalWriterTest, ReopenContinuesLsnSequence) {
  const std::string dir = FreshDir("reopen");
  {
    auto writer = ingest::WalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1, "a").ok());
    ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1, "b").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->next_lsn(), 3u);
  auto lsn = (*writer)->Append(ingest::WalOp::kDelete, 1, "c");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE((*writer)->Sync().ok());

  uint64_t count = 0;
  ASSERT_TRUE(ingest::ReplayWal(dir, 0,
                                [&](const ingest::WalRecord& r) {
                                  ++count;
                                  EXPECT_EQ(r.lsn, count);
                                  return util::Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(count, 3u);
}

TEST(WalWriterTest, BoundedReplaySkipsCoveredSegments) {
  const std::string dir = FreshDir("bounded");
  ingest::WalOptions options;
  options.segment_bytes = 256;
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(ingest::WalOp::kDelete, 1,
                             "entity_" + std::to_string(i))
                    .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto segments = ingest::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 3u);

  // A cursor in the middle of the log: whole segments below it must not be
  // read at all (the bounded-replay acceptance criterion).
  const uint64_t cursor_lsn = 15;
  ingest::WalReplayReport report;
  uint64_t delivered_min = UINT64_MAX;
  ASSERT_TRUE(ingest::ReplayWal(dir, cursor_lsn,
                                [&](const ingest::WalRecord& r) {
                                  if (r.lsn < delivered_min)
                                    delivered_min = r.lsn;
                                  return util::Status::Ok();
                                },
                                &report)
                  .ok());
  EXPECT_EQ(delivered_min, cursor_lsn + 1);
  EXPECT_EQ(report.records_delivered, 30 - cursor_lsn);
  EXPECT_LT(report.segments_scanned, report.segments_total);
}

TEST(WalWriterTest, PruneRemovesCoveredSegmentsOnly) {
  const std::string dir = FreshDir("prune");
  ingest::WalOptions options;
  options.segment_bytes = 256;
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(ingest::WalOp::kDelete, 1,
                             "entity_" + std::to_string(i))
                    .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto before = ingest::ListWalSegments(dir);
  ASSERT_TRUE(before.ok());
  const size_t total = before->size();
  ASSERT_GT(total, 3u);

  auto pruned = ingest::PruneWalSegments(dir, 15);
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(*pruned, 0u);
  auto after = ingest::ListWalSegments(dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), total - *pruned);

  // Replay after pruning still yields every record past the cursor.
  uint64_t delivered = 0;
  ASSERT_TRUE(ingest::ReplayWal(dir, 15,
                                [&](const ingest::WalRecord&) {
                                  ++delivered;
                                  return util::Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(delivered, 15u);

  // Pruning everything never removes the active (last) segment.
  auto all = ingest::PruneWalSegments(dir, 1000);
  ASSERT_TRUE(all.ok());
  auto remaining = ingest::ListWalSegments(dir);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining->size(), 1u);
}

TEST(WalCursorTest, SaveLoadRoundTripAndNotFound) {
  const std::string dir = FreshDir("cursor");
  ASSERT_TRUE(ingest::EnsureDir(dir).ok());
  auto missing = ingest::LoadCursor(dir);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

  ingest::IngestCursor cursor;
  cursor.applied_lsn = 42;
  cursor.checkpoint_file = "checkpoint-42.pages.tsv";
  ASSERT_TRUE(ingest::SaveCursor(dir, cursor).ok());

  auto loaded = ingest::LoadCursor(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->applied_lsn, 42u);
  EXPECT_EQ(loaded->checkpoint_file, "checkpoint-42.pages.tsv");

  // Overwrite advances; the newer cursor wins.
  cursor.applied_lsn = 50;
  ASSERT_TRUE(ingest::SaveCursor(dir, cursor).ok());
  auto newer = ingest::LoadCursor(dir);
  ASSERT_TRUE(newer.ok());
  EXPECT_EQ(newer->applied_lsn, 50u);
}

// Earlier builds wrote a 4-field cursor row (lsn, taxonomy generation,
// checkpoint pages, compaction snapshot). A WAL directory they left behind
// must still recover: the lsn and checkpoint are read, the rest ignored.
TEST(WalCursorTest, LoadsTheFourFieldRowOfEarlierBuilds) {
  const std::string dir = FreshDir("cursor_legacy");
  ASSERT_TRUE(ingest::EnsureDir(dir).ok());
  {
    util::TsvWriter writer(dir + "/wal.cursor", {.checksum_footer = true});
    writer.WriteRow(
        {"42", "7", "checkpoint-42.pages.tsv", "checkpoint-42.snap"});
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = ingest::LoadCursor(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->applied_lsn, 42u);
  EXPECT_EQ(loaded->checkpoint_file, "checkpoint-42.pages.tsv");

  // Rows of any other width are not a cursor.
  {
    util::TsvWriter writer(dir + "/wal.cursor", {.checksum_footer = true});
    writer.WriteRow({"42", "7", "checkpoint-42.pages.tsv"});
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_EQ(ingest::LoadCursor(dir).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(WalFaultTest, AppendFaultFailsCleanlyAndRecovers) {
  const std::string dir = FreshDir("fault_append");
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok());
  {
    util::ScopedFaultInjection faults("wal.append=1.0:limit=1", 1);
    EXPECT_FALSE((*writer)->Append(ingest::WalOp::kDelete, 1, "a").ok());
  }
  auto lsn = (*writer)->Append(ingest::WalOp::kDelete, 1, "a");
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->durable_lsn(), *lsn);
}

TEST(WalFaultTest, FsyncFaultFailsCommitWithoutAdvancingDurable) {
  const std::string dir = FreshDir("fault_fsync");
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1, "a").ok());
  {
    util::ScopedFaultInjection faults("wal.fsync=1.0:limit=1", 1);
    EXPECT_FALSE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->durable_lsn(), 0u);
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->durable_lsn(), 1u);
}

TEST(WalFaultTest, RotateFaultDegradesAndRetriesNextSync) {
  const std::string dir = FreshDir("fault_rotate");
  ingest::WalOptions options;
  options.segment_bytes = 64;  // every record crosses the threshold
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)
                  ->Append(ingest::WalOp::kDelete, 1,
                           std::string(100, 'x'))
                  .ok());
  {
    util::ScopedFaultInjection faults("wal.rotate=1.0:limit=1", 1);
    // Rotation fails but the commit itself succeeds: durability first.
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->durable_lsn(), 1u);
    EXPECT_EQ((*writer)->rotations(), 0u);
  }
  // The oversized segment keeps absorbing appends; the next Sync rotates.
  ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1, "b").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->rotations(), 1u);
  EXPECT_EQ((*writer)->durable_lsn(), 2u);

  uint64_t count = 0;
  ASSERT_TRUE(ingest::ReplayWal(dir, 0,
                                [&](const ingest::WalRecord&) {
                                  ++count;
                                  return util::Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(count, 2u);
}

TEST(WalFaultTest, WriteFailurePoisonsSegmentAndRewritesStagedRecords) {
  const std::string dir = FreshDir("fault_write");
  auto writer = ingest::WalWriter::Open(dir);
  ASSERT_TRUE(writer.ok());
  ingest::WalWriter& wal = **writer;

  // Record 1 commits cleanly; record 2's physical write fails. The failure
  // must poison the active segment — truncate it back to record 1 — so the
  // retry lands record 2 (and 3) in a fresh segment instead of appending
  // after partial bytes from the failed write.
  ASSERT_TRUE(wal.Append(ingest::WalOp::kDelete, 1, "a").ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.durable_lsn(), 1u);
  ASSERT_TRUE(wal.Append(ingest::WalOp::kDelete, 1, "b").ok());
  {
    util::ScopedFaultInjection faults("wal.write=1.0:limit=1", 1);
    EXPECT_FALSE(wal.Sync().ok());
    EXPECT_EQ(wal.durable_lsn(), 1u);  // nothing new acked
  }
  ASSERT_TRUE(wal.Append(ingest::WalOp::kDelete, 1, "c").ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.durable_lsn(), 3u);

  // The poisoned segment was sealed mid-log: replay crosses it with the
  // sealed-segment (strict) contract and must deliver every acked record
  // exactly once, in order.
  std::vector<ingest::WalRecord> records;
  ingest::WalReplayReport report;
  ASSERT_TRUE(ingest::ReplayWal(dir, 0,
                                [&](const ingest::WalRecord& r) {
                                  records.push_back(r);
                                  return util::Status::Ok();
                                },
                                &report)
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload, "a");
  EXPECT_EQ(records[1].payload, "b");
  EXPECT_EQ(records[2].payload, "c");
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
  EXPECT_FALSE(report.torn_tail);
  // Poisoning retired the old segment: records 2 and 3 live in a new one.
  auto segments = ingest::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ((*segments)[0].first_lsn, 1u);
  EXPECT_EQ((*segments)[1].first_lsn, 2u);
}

TEST(WalWriterTest, OversizedRecordRejectedAtAppend) {
  const std::string dir = FreshDir("oversized");
  ingest::WalOptions options;
  options.max_record_bytes = 128;
  auto writer = ingest::WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE((*writer)
                   ->Append(ingest::WalOp::kDelete, 1,
                            std::string(256, 'x'))
                   .ok());
  // The log is still usable afterwards.
  ASSERT_TRUE((*writer)->Append(ingest::WalOp::kDelete, 1, "ok").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
}

}  // namespace
}  // namespace cnpb
