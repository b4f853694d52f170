#include "ingest/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/strings.h"
#include "util/tsv.h"

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace cnpb::ingest {

namespace {

constexpr char kSegmentMagic[8] = {'C', 'N', 'P', 'B', 'W', 'A', 'L', '1'};
constexpr size_t kSegmentHeaderBytes = 16;
constexpr size_t kRecordHeaderBytes = 20;
constexpr char kCursorName[] = "wal.cursor";

// Explicit little-endian serialisation (the documented wire format): a
// memcpy of the native representation would silently write a different,
// non-portable format on a big-endian host.
void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

// Appends one length-prefixed string field.
void PutField(std::string* out, std::string_view field) {
  PutU32(out, static_cast<uint32_t>(field.size()));
  out->append(field);
}

// Bounds-checked cursor over a payload being decoded.
struct PayloadReader {
  std::string_view data;
  size_t pos = 0;

  bool ReadU32(uint32_t* v) {
    if (data.size() - pos < 4) return false;
    *v = GetU32(data.data() + pos);
    pos += 4;
    return true;
  }
  bool ReadField(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (data.size() - pos < len) return false;
    out->assign(data.data() + pos, len);
    pos += len;
    return true;
  }
};

std::string SegmentName(uint64_t first_lsn) {
  return util::StrFormat("wal-%020llu.log",
                         static_cast<unsigned long long>(first_lsn));
}

// Parses "wal-<20 digits>.log" -> first_lsn; false for anything else.
bool ParseSegmentName(std::string_view name, uint64_t* first_lsn) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() != kPrefix.size() + 20 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 20; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *first_lsn = value;
  return true;
}

// Shrinks `path` to `new_size` bytes and fsyncs it. Used to cut a torn
// tail (or a poisoned write) back to the last fully-valid record so the
// segment stays scannable once it is no longer the last one.
util::Status TruncateFile(const std::string& path, uint64_t new_size) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return util::IoError("cannot open wal segment for truncate: " + path);
  }
  const bool ok = ::ftruncate(fd, static_cast<off_t>(new_size)) == 0 &&
                  ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return util::IoError("cannot truncate wal segment: " + path);
#else
  (void)path;
  (void)new_size;
#endif
  return util::Status::Ok();
}

// Scans one segment file, delivering records with lsn > after_lsn to `fn`
// (null fn = count only). `is_last` selects the torn-tail contract: an
// invalid record in the last segment ends the scan cleanly; in a sealed
// segment it is kDataLoss.
util::Status ScanSegment(const WalSegmentInfo& segment, bool is_last,
                         size_t max_record_bytes, uint64_t after_lsn,
                         const std::function<util::Status(const WalRecord&)>* fn,
                         WalReplayReport* report) {
  auto content = util::ReadFileToString(segment.path);
  if (!content.ok()) return content.status();
  const std::string& buf = *content;

  auto invalid = [&](size_t offset, const char* what) -> util::Status {
    if (is_last) {
      // Torn tail: a crash interrupted an un-fsynced append. Everything
      // before the tear was delivered; the rest is discarded.
      report->torn_tail = true;
      report->torn_bytes = buf.size() - offset;
      return util::Status::Ok();
    }
    return util::DataLossError(util::StrFormat(
        "wal segment corrupt (%s at offset %zu): %s", what, offset,
        segment.path.c_str()));
  };

  if (buf.size() < kSegmentHeaderBytes ||
      std::memcmp(buf.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return invalid(0, "bad segment header");
  }
  const uint64_t header_first_lsn = GetU64(buf.data() + 8);
  if (header_first_lsn != segment.first_lsn) {
    // The name is part of the ordering contract; a mismatch means the file
    // was tampered with or mis-copied, which is corruption in any segment.
    return util::DataLossError("wal segment header/name lsn mismatch: " +
                               segment.path);
  }

  size_t offset = kSegmentHeaderBytes;
  uint64_t prev_lsn = segment.first_lsn == 0 ? 0 : segment.first_lsn - 1;
  while (offset < buf.size()) {
    if (buf.size() - offset < kRecordHeaderBytes) {
      return invalid(offset, "truncated record header");
    }
    const char* header = buf.data() + offset;
    const uint32_t payload_len = GetU32(header);
    if (payload_len > max_record_bytes) {
      return invalid(offset, "oversized payload length");
    }
    if (buf.size() - offset - kRecordHeaderBytes < payload_len) {
      return invalid(offset, "truncated record payload");
    }
    const uint32_t stored_crc = GetU32(header + 4);
    const uint32_t actual_crc = util::Crc32c(
        std::string_view(header + 8, kRecordHeaderBytes - 8 + payload_len));
    if (stored_crc != actual_crc) {
      return invalid(offset, "record crc mismatch");
    }
    const uint64_t lsn = GetU64(header + 8);
    const uint8_t op = static_cast<uint8_t>(header[16]);
    const uint8_t priority = static_cast<uint8_t>(header[17]);
    const uint16_t reserved = static_cast<uint16_t>(
        static_cast<uint8_t>(header[18]) |
        (static_cast<uint16_t>(static_cast<uint8_t>(header[19])) << 8));
    if (reserved != 0 ||
        (op != static_cast<uint8_t>(WalOp::kUpsert) &&
         op != static_cast<uint8_t>(WalOp::kDelete)) ||
        lsn <= prev_lsn) {
      return invalid(offset, "malformed record");
    }
    prev_lsn = lsn;
    report->max_lsn = std::max(report->max_lsn, lsn);
    if (lsn <= after_lsn) {
      ++report->records_skipped;
    } else {
      ++report->records_delivered;
      if (fn != nullptr) {
        WalRecord record;
        record.lsn = lsn;
        record.op = static_cast<WalOp>(op);
        record.priority = priority;
        record.payload.assign(header + kRecordHeaderBytes, payload_len);
        CNPB_RETURN_IF_ERROR((*fn)(record));
      }
    }
    offset += kRecordHeaderBytes + payload_len;
  }
  return util::Status::Ok();
}

}  // namespace

std::string EncodePageUpsert(const kb::EncyclopediaPage& page) {
  std::string out;
  PutField(&out, page.name);
  PutField(&out, page.mention);
  PutField(&out, page.bracket);
  PutField(&out, page.abstract);
  PutU32(&out, static_cast<uint32_t>(page.infobox.size()));
  for (const kb::SpoTriple& triple : page.infobox) {
    PutField(&out, triple.predicate);
    PutField(&out, triple.object);
  }
  PutU32(&out, static_cast<uint32_t>(page.tags.size()));
  for (const std::string& tag : page.tags) PutField(&out, tag);
  PutU32(&out, static_cast<uint32_t>(page.aliases.size()));
  for (const std::string& alias : page.aliases) PutField(&out, alias);
  return out;
}

util::Result<kb::EncyclopediaPage> DecodePageUpsert(std::string_view payload) {
  PayloadReader reader{payload};
  kb::EncyclopediaPage page;
  auto fail = [] {
    return util::DataLossError("wal upsert payload truncated");
  };
  if (!reader.ReadField(&page.name) || !reader.ReadField(&page.mention) ||
      !reader.ReadField(&page.bracket) || !reader.ReadField(&page.abstract)) {
    return fail();
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return fail();
  page.infobox.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kb::SpoTriple triple;
    triple.subject = page.name;
    if (!reader.ReadField(&triple.predicate) ||
        !reader.ReadField(&triple.object)) {
      return fail();
    }
    page.infobox.push_back(std::move(triple));
  }
  if (!reader.ReadU32(&count)) return fail();
  page.tags.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string tag;
    if (!reader.ReadField(&tag)) return fail();
    page.tags.push_back(std::move(tag));
  }
  if (!reader.ReadU32(&count)) return fail();
  page.aliases.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string alias;
    if (!reader.ReadField(&alias)) return fail();
    page.aliases.push_back(std::move(alias));
  }
  if (reader.pos != payload.size()) {
    return util::DataLossError("wal upsert payload has trailing bytes");
  }
  return page;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string body;  // the CRC-covered bytes: lsn, op, priority, reserved,
                     // payload
  PutU64(&body, record.lsn);
  body.push_back(static_cast<char>(record.op));
  body.push_back(static_cast<char>(record.priority));
  body.push_back('\0');
  body.push_back('\0');
  body.append(record.payload);

  std::string out;
  out.reserve(kRecordHeaderBytes + record.payload.size());
  PutU32(&out, static_cast<uint32_t>(record.payload.size()));
  PutU32(&out, util::Crc32c(body));
  out.append(body);
  return out;
}

util::Status EnsureDir(const std::string& dir) {
#ifndef _WIN32
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return util::IoError("cannot create directory: " + dir);
  }
#endif
  return util::Status::Ok();
}

util::Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir) {
  std::vector<WalSegmentInfo> segments;
#ifndef _WIN32
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return util::IoError("cannot open wal directory: " + dir);
  }
  while (struct dirent* entry = ::readdir(d)) {
    uint64_t first_lsn = 0;
    if (!ParseSegmentName(entry->d_name, &first_lsn)) continue;
    segments.push_back({dir + "/" + entry->d_name, first_lsn});
  }
  ::closedir(d);
#endif
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(static_cast<FILE*>(file_));
}

util::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, const WalOptions& options) {
  CNPB_RETURN_IF_ERROR(EnsureDir(dir));
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();

  // The highest durable LSN lives in the last segment; earlier segments are
  // bounded above by their successor's first_lsn. Tolerate a torn tail —
  // those bytes were never acknowledged and the fresh segment strands them.
  uint64_t next_lsn = 1;
  if (!segments->empty()) {
    const WalSegmentInfo& last = segments->back();
    next_lsn = std::max<uint64_t>(1, last.first_lsn);
    WalReplayReport scan;
    const util::Status status = ScanSegment(
        last, /*is_last=*/true, options.max_record_bytes,
        /*after_lsn=*/UINT64_MAX, /*fn=*/nullptr, &scan);
    if (!status.ok()) return status;
    next_lsn = std::max(next_lsn, scan.max_lsn + 1);
    if (scan.torn_tail && scan.torn_bytes > 0) {
      // Cut the tear before the fresh segment below demotes this one to
      // sealed: a tear holds no acknowledged record, but sealed-segment
      // scans treat the same bytes as corruption, so leaving it in place
      // turns a second crash before compaction into a permanent kDataLoss
      // boot loop. After the cut the segment is all-valid records.
#ifndef _WIN32
      struct stat st;
      if (::stat(last.path.c_str(), &st) != 0) {
        return util::IoError("cannot stat torn wal segment: " + last.path);
      }
      const uint64_t size = static_cast<uint64_t>(st.st_size);
      const uint64_t keep = size >= scan.torn_bytes ? size - scan.torn_bytes : 0;
      CNPB_RETURN_IF_ERROR(TruncateFile(last.path, keep));
#endif
    }
  }

  std::unique_ptr<WalWriter> writer(new WalWriter(dir, options));
  writer->next_lsn_ = next_lsn;
  writer->durable_lsn_ = next_lsn - 1;
  writer->last_appended_lsn_ = next_lsn - 1;
  CNPB_RETURN_IF_ERROR(writer->OpenSegment(next_lsn));
  return writer;
}

util::Status WalWriter::OpenSegment(uint64_t first_lsn) {
  // A fresh segment per process start: never append after a (possibly torn)
  // tail. Reopening the same first_lsn truncates a record-free leftover
  // from a crashed start — it cannot hold acknowledged records, else
  // next_lsn would be past it.
  const std::string path = dir_ + "/" + SegmentName(first_lsn);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return util::IoError("cannot open wal segment: " + path);
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU64(&header, first_lsn);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  ok = ok && std::fflush(f) == 0;
#ifndef _WIN32
  ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  if (!ok) {
    std::fclose(f);
    std::remove(path.c_str());
    return util::IoError("cannot initialise wal segment: " + path);
  }
  // The segment must exist durably before any record in it is acked.
  if (const util::Status dirsync = util::SyncDir(dir_); !dirsync.ok()) {
    std::fclose(f);
    return dirsync;
  }
  file_ = f;
  active_path_ = path;
  active_bytes_ = header.size();
  rotate_pending_ = false;
  return util::Status::Ok();
}

void WalWriter::PoisonActiveSegment() {
  if (file_ == nullptr) return;
  FILE* f = static_cast<FILE*>(file_);
  file_ = nullptr;
#ifndef _WIN32
  // Discard whatever stdio still buffers (the same /dev/null trick as
  // SimulateCrash): after a short write nothing past the synced prefix can
  // be trusted, and flushing more garbage behind the tear is exactly the
  // failure mode being contained.
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, ::fileno(f));
    ::close(null_fd);
  }
#endif
  std::fclose(f);
  poisoned_ = true;
  poisoned_path_ = active_path_;
  poisoned_keep_bytes_ = active_bytes_;
  obs::MetricsRegistry::Global()
      .counter("ingest.wal.segments_poisoned")
      ->Increment();
  (void)HealPoisonedSegment();  // best effort now; retried at the next Sync
}

util::Status WalWriter::HealPoisonedSegment() {
  if (!poisoned_) return util::Status::Ok();
  // Every byte at or below the keep mark was covered by a successful fsync;
  // everything past it is a (possibly partial) record from the failed
  // write. Cutting back to the mark restores the invariant that a segment
  // holds only whole, valid records — so it can be sealed safely while the
  // still-buffered records move to a fresh segment.
  CNPB_RETURN_IF_ERROR(TruncateFile(poisoned_path_, poisoned_keep_bytes_));
  poisoned_ = false;
  return util::Status::Ok();
}

util::Status WalWriter::CloseSegment() {
  if (file_ == nullptr) return util::Status::Ok();
  FILE* f = static_cast<FILE*>(file_);
  file_ = nullptr;
  if (std::fclose(f) != 0) {
    return util::IoError("wal segment close failed");
  }
  return util::Status::Ok();
}

util::Result<uint64_t> WalWriter::Append(WalOp op, uint8_t priority,
                                         std::string_view payload) {
  CNPB_RETURN_IF_ERROR(util::CheckFault(options_.fault_prefix + ".append"));
  if (payload.size() > options_.max_record_bytes) {
    return util::InvalidArgumentError("wal record payload too large");
  }
  // Records stage in memory and reach the file only inside Sync(): writing
  // eagerly here would mean a short write (ENOSPC/EIO) leaves partial
  // record bytes mid-segment while later appends keep landing after the
  // tear — and a later successful fsync would then ack records that replay
  // can never reach past the CRC-invalid gap.
  WalRecord record;
  record.lsn = next_lsn_;
  record.op = op;
  record.priority = priority;
  record.payload.assign(payload);
  const std::string wire = EncodeWalRecord(record);
  pending_buf_.append(wire);
  last_appended_lsn_ = next_lsn_;
  ++next_lsn_;
  obs::MetricsRegistry::Global().counter("ingest.wal.records")->Increment();
  obs::MetricsRegistry::Global()
      .counter("ingest.wal.bytes")
      ->Increment(wire.size());
  return record.lsn;
}

util::Status WalWriter::Sync() {
  // A poisoned segment must be healed (cut back to its synced prefix)
  // before any new segment takes writes: sealing a tear behind fresh acked
  // records is the one state recovery cannot repair.
  CNPB_RETURN_IF_ERROR(HealPoisonedSegment());
  if (pending_buf_.empty() && file_ == nullptr && !rotate_pending_) {
    return util::Status::Ok();  // nothing staged, nothing open
  }
  if (file_ == nullptr) {
    // A poisoned or failed-rotation state left no active segment. The
    // fresh segment starts at the first unsynced LSN so the still-buffered
    // records land in a segment whose header names them.
    CNPB_RETURN_IF_ERROR(OpenSegment(durable_lsn_ + 1));
  }
  FILE* f = static_cast<FILE*>(file_);
  if (!pending_buf_.empty()) {
    const util::Status write_fault =
        util::CheckFault(options_.fault_prefix + ".write");
    if (!write_fault.ok()) {
      PoisonActiveSegment();
      return write_fault;
    }
    if (std::fwrite(pending_buf_.data(), 1, pending_buf_.size(), f) !=
            pending_buf_.size() ||
        std::fflush(f) != 0) {
      PoisonActiveSegment();
      return util::IoError("wal write failed");
    }
  } else if (std::fflush(f) != 0) {
    return util::IoError("wal flush failed");
  }
  const util::Status fsync_fault =
      util::CheckFault(options_.fault_prefix + ".fsync");
  if (!fsync_fault.ok()) {
    // Bytes from this commit reached the fd but are not durable; their
    // state after a real EIO is unknowable, so retire the segment and let
    // the retry rewrite them cleanly.
    if (!pending_buf_.empty()) PoisonActiveSegment();
    return fsync_fault;
  }
#ifndef _WIN32
  if (::fsync(::fileno(f)) != 0) {
    if (!pending_buf_.empty()) PoisonActiveSegment();
    return util::IoError("wal fsync failed");
  }
#endif
  active_bytes_ += pending_buf_.size();
  pending_buf_.clear();
  durable_lsn_ = last_appended_lsn_;
  obs::MetricsRegistry::Global().counter("ingest.wal.fsyncs")->Increment();

  if (active_bytes_ >= options_.segment_bytes || rotate_pending_) {
    // Rotation failure degrades: the oversized segment keeps absorbing
    // appends (correctness does not depend on segment size) and the next
    // Sync retries. Only act once the fault check passes, so a failed
    // rotation never leaves the writer without an active segment while
    // records are staged.
    const util::Status rotate_fault =
        util::CheckFault(options_.fault_prefix + ".rotate");
    if (!rotate_fault.ok()) {
      rotate_pending_ = true;
      obs::MetricsRegistry::Global()
          .counter("ingest.wal.rotate_failures")
          ->Increment();
      return util::Status::Ok();
    }
    CNPB_RETURN_IF_ERROR(CloseSegment());
    CNPB_RETURN_IF_ERROR(OpenSegment(next_lsn_));
    ++rotations_;
    obs::MetricsRegistry::Global().counter("ingest.wal.rotations")->Increment();
  }
  return util::Status::Ok();
}

void WalWriter::SimulateCrash() {
  pending_buf_.clear();  // un-synced records die with the process
  if (file_ == nullptr) return;
  FILE* f = static_cast<FILE*>(file_);
  file_ = nullptr;
#ifndef _WIN32
  // Point the fd at /dev/null before fclose: the flush stdio insists on
  // lands in the bit bucket, so un-synced appends vanish exactly as they
  // would under SIGKILL (closing the fd outright would race fd reuse).
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, ::fileno(f));
    ::close(null_fd);
  }
#endif
  std::fclose(f);
}

util::Status ReplayWal(const std::string& dir, uint64_t after_lsn,
                       const std::function<util::Status(const WalRecord&)>& fn,
                       WalReplayReport* report, size_t max_record_bytes) {
  WalReplayReport local;
  WalReplayReport* out = report != nullptr ? report : &local;
  *out = WalReplayReport{};
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  out->segments_total = segments->size();
  for (size_t i = 0; i < segments->size(); ++i) {
    const bool is_last = i + 1 == segments->size();
    if (!is_last && (*segments)[i + 1].first_lsn <= after_lsn + 1) {
      // Every record in this segment is < the successor's first_lsn, hence
      // <= after_lsn: fully covered by the cursor. Skipping the read is
      // what keeps recovery bounded by compaction.
      continue;
    }
    ++out->segments_scanned;
    CNPB_RETURN_IF_ERROR(ScanSegment((*segments)[i], is_last,
                                     max_record_bytes, after_lsn, &fn, out));
  }
  return util::Status::Ok();
}

util::Status SaveCursor(const std::string& dir, const IngestCursor& cursor) {
  util::TsvWriter writer(dir + "/" + kCursorName,
                         {.checksum_footer = true,
                          .fault_prefix = "wal.cursor"});
  CNPB_RETURN_IF_ERROR(writer.status());
  writer.WriteRow({std::to_string(cursor.applied_lsn), cursor.checkpoint_file});
  return writer.Close();
}

util::Result<IngestCursor> LoadCursor(const std::string& dir) {
  const std::string path = dir + "/" + kCursorName;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return util::NotFoundError("no wal cursor: " + path);
    std::fclose(f);
  }
  auto data = util::ReadTsvFileData(path);
  if (!data.ok()) return data.status();
  // A cursor is always written with a footer; one without is not "legacy",
  // it is a file we cannot trust to bound the replay.
  if (!data->checksummed) {
    return util::DataLossError("wal cursor missing checksum footer: " + path);
  }
  // Two fields as written now; four (lsn, generation, checkpoint, snapshot)
  // as earlier builds wrote, of which only the lsn and checkpoint count.
  if (data->rows.size() != 1 ||
      (data->rows[0].size() != 2 && data->rows[0].size() != 4)) {
    return util::DataLossError("wal cursor malformed: " + path);
  }
  const std::vector<std::string>& row = data->rows[0];
  IngestCursor cursor;
  if (!util::ParseUint64(row[0], &cursor.applied_lsn)) {
    return util::DataLossError("wal cursor malformed: " + path);
  }
  cursor.checkpoint_file = row.size() == 2 ? row[1] : row[2];
  return cursor;
}

util::Result<size_t> PruneWalSegments(const std::string& dir,
                                      uint64_t cursor_lsn) {
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  size_t removed = 0;
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    // Segment i is fully covered iff its successor starts at or below
    // cursor_lsn + 1 (records in i are all < that first_lsn).
    if ((*segments)[i + 1].first_lsn > cursor_lsn + 1) break;
    CNPB_RETURN_IF_ERROR(util::CheckFault("compact.prune"));
    if (std::remove((*segments)[i].path.c_str()) != 0) {
      return util::IoError("cannot prune wal segment: " + (*segments)[i].path);
    }
    ++removed;
  }
  if (removed > 0) {
    CNPB_RETURN_IF_ERROR(util::SyncDir(dir));
    obs::MetricsRegistry::Global()
        .counter("ingest.wal.segments_pruned")
        ->Increment(removed);
  }
  return removed;
}

size_t PruneStaleCheckpoints(const std::string& dir, uint64_t keep_lsn) {
  size_t removed = 0;
#ifndef _WIN32
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::vector<std::string> stale;
  constexpr std::string_view kPrefix = "checkpoint-";
  while (struct dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    const size_t dot = name.find('.', kPrefix.size());
    if (dot == std::string_view::npos) continue;
    uint64_t lsn = 0;
    if (!util::ParseUint64(name.substr(kPrefix.size(), dot - kPrefix.size()),
                           &lsn)) {
      continue;
    }
    if (lsn != keep_lsn || name.substr(dot) != ".pages.tsv") {
      stale.push_back(dir + "/" + std::string(name));
    }
  }
  ::closedir(d);
  for (const std::string& path : stale) {
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  if (removed > 0) (void)util::SyncDir(dir);
#else
  (void)dir;
  (void)keep_lsn;
#endif
  return removed;
}

}  // namespace cnpb::ingest
