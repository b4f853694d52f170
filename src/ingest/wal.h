#ifndef CNPROBASE_INGEST_WAL_H_
#define CNPROBASE_INGEST_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kb/page.h"
#include "util/status.h"

namespace cnpb::ingest {

// Write-ahead log for continuous ingestion (DESIGN.md §13).
//
// The live-feed daemon must never lose an acknowledged page upsert and never
// apply one twice across a crash. The WAL is the durability half of that
// contract: every operation is appended as a length-prefixed, CRC-32C-sealed
// record to an append-only segment file and only acknowledged once an fsync
// covers it (group commit — one fsync amortises every record staged since
// the last). Segments rotate at a size threshold; sealed segments are
// immutable and become the unit of compaction and pruning.
//
// On-disk layout of a WAL directory:
//
//   wal-<first_lsn, %020u>.log      append-only record segments
//   wal.cursor                      durable commit cursor (atomic TSV + CRC)
//   checkpoint-<lsn>.pages.tsv      compaction checkpoint: applied pages
//
// Recovery rebuilds the taxonomy by re-applying the checkpoint pages and
// replaying the WAL suffix, so no taxonomy file is kept here.
//
// Segment format: a 16-byte header ("CNPBWAL1" magic + u64 first_lsn),
// then records. Record wire format (little-endian):
//
//   u32 payload_len
//   u32 crc32c          over [lsn, op, priority, reserved, payload]
//   u64 lsn             monotonically increasing, never reused
//   u8  op              1 = upsert, 2 = delete
//   u8  priority        0 = most urgent (scheduling hint, not ordering)
//   u16 reserved        must be zero
//   payload             op-specific bytes
//
// Recovery semantics: replay scans segments in LSN order, skipping whole
// segments fully covered by the commit cursor (bounded replay — the
// compaction acceptance criterion), and validates every record's CRC. An
// invalid record in a *sealed* segment is corruption (kDataLoss). An
// invalid record in the *last* segment is a torn tail: the crash interrupted
// an un-fsynced append, so replay ends cleanly there — acknowledged records
// always precede the tear, because acknowledgement requires the fsync that
// would have sealed those bytes. WalWriter::Open truncates the tear off the
// last segment before opening a fresh one, so demoting that segment to
// sealed never turns a tolerated tear into sealed-segment corruption on a
// later boot.

enum class WalOp : uint8_t {
  kUpsert = 1,  // payload = EncodePageUpsert(page)
  kDelete = 2,  // payload = disambiguated entity name (tombstone)
};

struct WalRecord {
  uint64_t lsn = 0;
  WalOp op = WalOp::kUpsert;
  uint8_t priority = 1;  // 0 = most urgent; scheduler key, not a guarantee
  std::string payload;
};

// Page payload codec: length-prefixed binary fields (page_id excluded — the
// updater assigns fresh ids at apply time). Decode is fully bounds-checked
// and fails with kDataLoss rather than reading past the payload; the record
// CRC makes that path unreachable short of an encoder bug.
std::string EncodePageUpsert(const kb::EncyclopediaPage& page);
util::Result<kb::EncyclopediaPage> DecodePageUpsert(std::string_view payload);

// One record in wire format (header + payload), ready to append.
std::string EncodeWalRecord(const WalRecord& record);

struct WalSegmentInfo {
  std::string path;
  uint64_t first_lsn = 0;
};

// Creates `dir` if it does not exist (one level; parents must exist).
util::Status EnsureDir(const std::string& dir);

// WAL segments under `dir`, sorted by first_lsn. Missing directory is an
// IoError; a directory with no segments is an empty (OK) result.
util::Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir);

struct WalOptions {
  // Rotate to a new segment once the active one reaches this size.
  size_t segment_bytes = 4u << 20;
  // Records larger than this are rejected at append and treated as framing
  // garbage at replay (a bound against interpreting a torn length prefix as
  // a multi-gigabyte allocation).
  size_t max_record_bytes = 16u << 20;
  // Fault points: <prefix>.append, <prefix>.write, <prefix>.fsync,
  // <prefix>.rotate.
  std::string fault_prefix = "wal";
};

// Appender. Not thread-safe — the IngestDaemon serialises access and layers
// group commit on top (many submitters, one fsync). Opening truncates any
// torn tail off the previous last segment (so demoting it to sealed never
// manufactures sealed-segment corruption) and then starts a fresh segment
// at next_lsn, so a recovered process never appends after a tear.
class WalWriter {
 public:
  static util::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, const WalOptions& options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Buffers one record in memory and returns its LSN. Nothing touches the
  // file until Sync(), so a failed physical write can never strand partial
  // bytes between records; durable only after Sync().
  util::Result<uint64_t> Append(WalOp op, uint8_t priority,
                                std::string_view payload);

  // Group-commit barrier: writes and fsyncs everything appended so far,
  // then rotates the segment if it is over size. A failed rotation degrades
  // (the oversized segment keeps absorbing appends, retried next Sync). A
  // failed write or fsync fails the commit — nothing staged since the last
  // successful Sync may be acknowledged — and poisons the active segment:
  // it is closed and truncated back to its synced prefix, and the
  // still-buffered records are rewritten into a fresh segment by the next
  // Sync, so an acked record never sits behind a torn one.
  util::Status Sync();

  uint64_t next_lsn() const { return next_lsn_; }
  // Highest LSN guaranteed durable (advanced by successful Sync()).
  uint64_t durable_lsn() const { return durable_lsn_; }
  size_t active_segment_bytes() const { return active_bytes_; }
  uint64_t rotations() const { return rotations_; }

  // Test hook: die the way SIGKILL does. Closes the underlying descriptor
  // out from under stdio so bytes appended since the last flush are
  // discarded instead of being flushed by the destructor — a graceful
  // fclose would make every append look durable and hide torn-tail states
  // from the chaos tests. The writer is unusable afterwards.
  void SimulateCrash();

 private:
  WalWriter(std::string dir, WalOptions options);

  util::Status OpenSegment(uint64_t first_lsn);
  util::Status CloseSegment();
  // Retires the active segment after a failed write/fsync: discards stdio
  // state, records the synced prefix to cut back to, and attempts the cut.
  void PoisonActiveSegment();
  // Truncates a poisoned segment to its synced prefix (retried by Sync
  // until it lands — no new segment may take writes while a tear remains).
  util::Status HealPoisonedSegment();

  std::string dir_;
  WalOptions options_;
  void* file_ = nullptr;    // FILE*
  std::string active_path_; // path of the active segment
  std::string pending_buf_; // encoded records appended since the last Sync
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t last_appended_lsn_ = 0;
  size_t active_bytes_ = 0;  // synced bytes in the active segment
  uint64_t rotations_ = 0;
  bool rotate_pending_ = false;
  bool poisoned_ = false;         // a failed write left a segment to heal
  std::string poisoned_path_;
  uint64_t poisoned_keep_bytes_ = 0;
};

struct WalReplayReport {
  uint64_t records_delivered = 0;
  // Records read but suppressed because lsn <= after_lsn (redelivery across
  // a segment that also holds newer records).
  uint64_t records_skipped = 0;
  size_t segments_total = 0;
  // Segments actually read. Bounded replay shows up here: after compaction
  // this stays the post-cursor suffix, not the whole log.
  size_t segments_scanned = 0;
  bool torn_tail = false;
  uint64_t torn_bytes = 0;  // bytes discarded at the tear
  uint64_t max_lsn = 0;     // highest LSN delivered or skipped
};

// Replays records with lsn > after_lsn in LSN order. `fn` returning an
// error aborts the replay with that status. See the header comment for the
// sealed-vs-last-segment corruption contract.
util::Status ReplayWal(
    const std::string& dir, uint64_t after_lsn,
    const std::function<util::Status(const WalRecord&)>& fn,
    WalReplayReport* report = nullptr,
    size_t max_record_bytes = WalOptions{}.max_record_bytes);

// Durable commit cursor. `applied_lsn` is the exactly-once boundary: every
// record with lsn <= applied_lsn has its effect captured by the referenced
// checkpoint file, so recovery must never re-deliver them; everything
// above is replayed. The cursor only ever advances together with the
// checkpoint that covers it (written checkpoint -> cursor, in that order),
// so a crash at any point leaves a coherent older pair.
struct IngestCursor {
  uint64_t applied_lsn = 0;
  std::string checkpoint_file;  // pages TSV, relative to the WAL dir
};

// Atomic checksummed write (+ directory fsync) of `dir`/wal.cursor.
// Fault points: wal.cursor.{write,fsync,rename,dirsync}.
// The row is `applied_lsn <TAB> checkpoint_file`. LoadCursor also accepts
// the 4-field row earlier builds wrote (applied_lsn, generation,
// checkpoint, compaction snapshot name) and reads fields 0 and 2 of it, so
// a WAL directory written by one of them still recovers.
util::Status SaveCursor(const std::string& dir, const IngestCursor& cursor);

// kNotFound when no cursor exists (a fresh log — replay everything, which
// is correct because pruning only ever happens after a cursor commit);
// kDataLoss when the file exists but fails verification — recovery must
// refuse to guess a replay boundary from a corrupt cursor.
util::Result<IngestCursor> LoadCursor(const std::string& dir);

// Deletes sealed segments whose every record is covered by `cursor_lsn`
// (the active/last segment always survives), then fsyncs the directory.
// Fires compact.prune once per pruned segment. Returns segments removed.
util::Result<size_t> PruneWalSegments(const std::string& dir,
                                      uint64_t cursor_lsn);

// Deletes every checkpoint-<lsn>.* file but checkpoint-<keep_lsn>.pages.tsv
// (failed compaction attempts leave orphans, and earlier builds also wrote
// a checkpoint-<lsn>.snap; the next success sweeps them). Returns files
// removed.
size_t PruneStaleCheckpoints(const std::string& dir, uint64_t keep_lsn);

}  // namespace cnpb::ingest

#endif  // CNPROBASE_INGEST_WAL_H_
