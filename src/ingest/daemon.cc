#include "ingest/daemon.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "kb/dump.h"
#include "util/fault_injection.h"

namespace cnpb::ingest {

namespace {

using Clock = std::chrono::steady_clock;

std::string CheckpointPagesName(uint64_t lsn) {
  return "checkpoint-" + std::to_string(lsn) + ".pages.tsv";
}

obs::MetricsRegistry& Registry() { return obs::MetricsRegistry::Global(); }

}  // namespace

IngestDaemon::IngestDaemon(core::IncrementalUpdater* updater,
                           taxonomy::ApiService* service, Options options)
    : updater_(updater),
      service_(service),
      options_(std::move(options)),
      submitted_ctr_(Registry().counter("ingest.submitted")),
      acked_ctr_(Registry().counter("ingest.acked")),
      applied_ctr_(Registry().counter("ingest.applied")),
      batches_ctr_(Registry().counter("ingest.batches")),
      publishes_ctr_(Registry().counter("ingest.publishes")),
      compactions_ctr_(Registry().counter("ingest.compactions")),
      tombstoned_ctr_(Registry().counter("ingest.tombstoned")),
      apply_retries_ctr_(Registry().counter("ingest.apply.retries")),
      publish_retries_ctr_(Registry().counter("ingest.publish.retries")),
      publish_lag_(Registry().histogram("ingest.publish.lag_seconds")),
      commit_seconds_(Registry().histogram("ingest.commit_seconds")) {
  // The page count of the pristine base build: everything past this index
  // was applied through the daemon (checkpoint restore, replay, or live)
  // and belongs in the next checkpoint.
  base_pages_ = updater_->dump().size();
}

IngestDaemon::~IngestDaemon() {
  if (running_) (void)Stop(StopMode::kDrain);
}

util::Status IngestDaemon::Start() {
  if (running_) return util::FailedPreconditionError("ingest daemon running");
  CNPB_RETURN_IF_ERROR(EnsureDir(options_.wal_dir));

  // 1. Durable cursor: the exactly-once boundary. Absent = fresh log.
  auto cursor = LoadCursor(options_.wal_dir);
  if (cursor.ok()) {
    cursor_ = *cursor;
  } else if (cursor.status().code() == util::StatusCode::kNotFound) {
    cursor_ = IngestCursor{};
  } else {
    return cursor.status();  // corrupt cursor: refuse to guess the boundary
  }

  // 2. Checkpoint pages: every page applied at or below the cursor,
  // re-applied as one batch. Name dedup makes this idempotent against the
  // base dump; fresh page ids are reassigned, which no downstream state
  // depends on across restarts.
  if (!cursor_.checkpoint_file.empty()) {
    auto checkpoint =
        kb::EncyclopediaDump::Load(options_.wal_dir + "/" +
                                   cursor_.checkpoint_file);
    if (!checkpoint.ok()) {
      return util::DataLossError(
          "ingest checkpoint unreadable (" + cursor_.checkpoint_file +
          "): " + checkpoint.status().message());
    }
    if (checkpoint->size() > 0) updater_->ApplyBatch(checkpoint->pages());
  }

  // 3. Collect the WAL suffix BEFORE opening the writer: Open() creates a
  // fresh segment, which would demote the current last segment to "sealed"
  // and turn its (legitimate) torn tail into kDataLoss.
  std::vector<WalRecord> suffix;
  CNPB_RETURN_IF_ERROR(ReplayWal(
      options_.wal_dir, cursor_.applied_lsn,
      [&suffix](const WalRecord& record) {
        suffix.push_back(record);
        return util::Status::Ok();
      },
      &recovery_, options_.wal.max_record_bytes));

  auto wal = WalWriter::Open(options_.wal_dir, options_.wal);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);

  // 4. Apply the suffix. Two-pass tombstones: a delete suppresses every
  // same-name upsert ordered before it. This is deliberately stronger than
  // the live rule (which only cancels upserts still queued when the delete
  // arrives — an applied page is untouchable): whether a given suffix
  // upsert beat its delete to the scheduler pre-crash is not recorded
  // anywhere durable, so replay resolves the race in the delete's favour.
  // A page served pre-crash may therefore be absent after recovery — the
  // documented divergence window (see the class comment / DESIGN.md §13).
  std::unordered_map<std::string, uint64_t> deletes;  // name -> max lsn
  for (const WalRecord& record : suffix) {
    if (record.op == WalOp::kDelete) {
      uint64_t& lsn = deletes[record.payload];
      lsn = std::max(lsn, record.lsn);
    }
  }
  std::vector<kb::EncyclopediaPage> batch;
  batch.reserve(options_.batch_max_pages);
  auto flush_batch = [&] {
    if (batch.empty()) return;
    updater_->ApplyBatch(batch);
    ++batches_;
    batches_ctr_->Increment();
    batch.clear();
  };
  for (const WalRecord& record : suffix) {
    if (record.op == WalOp::kUpsert) {
      auto page = DecodePageUpsert(record.payload);
      if (!page.ok()) return page.status();
      const auto tombstone = deletes.find(page->name);
      if (tombstone != deletes.end() && record.lsn < tombstone->second) {
        ++tombstoned_;
        tombstoned_ctr_->Increment();
        continue;
      }
      batch.push_back(std::move(*page));
      if (batch.size() >= options_.batch_max_pages) flush_batch();
    }
  }
  flush_batch();
  applied_ += suffix.size();
  applied_ctr_->Increment(suffix.size());
  applied_since_compact_ = suffix.size();

  // Every durable record is now folded in: the fresh writer's next_lsn sits
  // exactly one past the highest surviving record.
  enqueued_floor_ = wal_->next_lsn() - 1;
  inflight_min_lsn_ = UINT64_MAX;
  generation_cache_ = updater_->generation();

  // 5. Serve the recovered state before accepting traffic, so readers never
  // see a pre-recovery generation after a restart.
  if (service_ != nullptr) (void)updater_->Publish(service_);

  Registry().gauge("ingest.recovery.records_replayed")
      ->Set(static_cast<double>(recovery_.records_delivered));
  Registry().gauge("ingest.recovery.segments_scanned")
      ->Set(static_cast<double>(recovery_.segments_scanned));

  running_ = true;
  draining_ = false;
  abort_ = false;
  worker_ = std::thread([this] { WorkerLoop(); });
  return util::Status::Ok();
}

util::Result<uint64_t> IngestDaemon::AppendLocked(WalOp op, uint8_t priority,
                                                  std::string_view payload,
                                                  PendingOp staged) {
  auto lsn = wal_->Append(op, priority, payload);
  if (!lsn.ok()) return lsn.status();
  staged.lsn = *lsn;
  staged.priority = priority;
  staged.op = op;
  staged_.push_back(std::move(staged));
  ++submitted_;
  submitted_ctr_->Increment();
  return *lsn;
}

void IngestDaemon::PromoteStagedLocked() {
  const uint64_t durable = wal_->durable_lsn();
  const auto now = Clock::now();
  bool promoted = false;
  while (!staged_.empty() && staged_.front().lsn <= durable) {
    PendingOp op = std::move(staged_.front());
    staged_.pop_front();
    op.acked_at = now;
    enqueued_floor_ = op.lsn;
    ++acked_;
    acked_ctr_->Increment();
    pending_.emplace(std::make_pair(op.priority, op.lsn), std::move(op));
    promoted = true;
  }
  if (promoted) {
    work_cv_.notify_all();
    ack_cv_.notify_all();
  }
}

util::Status IngestDaemon::CommitThrough(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (wal_ == nullptr) return util::FailedPreconditionError("daemon stopped");
  if (wal_->durable_lsn() >= lsn) return util::Status::Ok();
  // Leaderless group commit: whichever submitter gets the lock first fsyncs
  // everything appended so far; later waiters find durable_lsn already past
  // their record and skip the fsync entirely.
  obs::ScopedTimer timer(commit_seconds_);
  const util::Status status = wal_->Sync();
  if (status.ok()) PromoteStagedLocked();
  return status;
}

util::Result<uint64_t> IngestDaemon::Submit(const kb::EncyclopediaPage& page,
                                            uint8_t priority) {
  util::Result<uint64_t> lsn = [&]() -> util::Result<uint64_t> {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_ || draining_) {
      return util::FailedPreconditionError("ingest daemon not accepting");
    }
    PendingOp op;
    op.page = page;
    return AppendLocked(WalOp::kUpsert, priority, EncodePageUpsert(page),
                        std::move(op));
  }();
  if (!lsn.ok()) return lsn;
  CNPB_RETURN_IF_ERROR(CommitThrough(*lsn));
  return lsn;
}

util::Result<uint64_t> IngestDaemon::SubmitDelete(const std::string& name,
                                                  uint8_t priority) {
  util::Result<uint64_t> lsn = [&]() -> util::Result<uint64_t> {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_ || draining_) {
      return util::FailedPreconditionError("ingest daemon not accepting");
    }
    PendingOp op;
    op.name = name;
    return AppendLocked(WalOp::kDelete, priority, name, std::move(op));
  }();
  if (!lsn.ok()) return lsn;
  CNPB_RETURN_IF_ERROR(CommitThrough(*lsn));
  return lsn;
}

util::Result<uint64_t> IngestDaemon::SubmitBatch(
    const std::vector<kb::EncyclopediaPage>& pages, uint8_t priority) {
  if (pages.empty()) return util::InvalidArgumentError("empty ingest batch");
  uint64_t last = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_ || draining_) {
      return util::FailedPreconditionError("ingest daemon not accepting");
    }
    for (const kb::EncyclopediaPage& page : pages) {
      PendingOp op;
      op.page = page;
      auto lsn = AppendLocked(WalOp::kUpsert, priority,
                              EncodePageUpsert(page), std::move(op));
      // Earlier appends stay staged: they were never acked, so they may or
      // may not survive — and if they do, replay applies them, which is the
      // same at-least-once contract a failed Submit has.
      if (!lsn.ok()) return lsn.status();
      last = *lsn;
    }
  }
  CNPB_RETURN_IF_ERROR(CommitThrough(last));
  return last;
}

uint64_t IngestDaemon::ResolvedLsnLocked() const {
  // The contiguous applied boundary: every LSN at or below it has been
  // resolved (applied, tombstoned, or was never durable). Pending and
  // in-flight operations pin it down; priority scheduling may apply higher
  // LSNs early, which is safe because re-delivery of an applied page
  // no-ops through name dedup.
  uint64_t floor = enqueued_floor_;
  for (const auto& [key, op] : pending_) {
    floor = std::min(floor, op.lsn - 1);
  }
  if (inflight_min_lsn_ != UINT64_MAX) {
    floor = std::min(floor, inflight_min_lsn_ - 1);
  }
  return floor;
}

void IngestDaemon::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!abort_) {
    if (WorkerStepLocked(lk)) continue;  // did work; look again immediately
    // Nothing actionable: sleep until new work or the publish deadline.
    if (unpublished_pages_ > 0) {
      work_cv_.wait_until(lk, oldest_unpublished_ + options_.publish_max_delay);
    } else {
      work_cv_.wait(lk);
    }
  }
}

bool IngestDaemon::WorkerStepLocked(std::unique_lock<std::mutex>& lk) {
  // --- apply ---------------------------------------------------------------
  if (!pending_.empty()) {
    std::vector<PendingOp> batch;
    uint64_t min_lsn = UINT64_MAX;
    size_t cancelled = 0;
    auto it = pending_.begin();
    while (it != pending_.end() && batch.size() < options_.batch_max_pages) {
      PendingOp op = std::move(it->second);
      it = pending_.erase(it);
      min_lsn = std::min(min_lsn, op.lsn);
      if (op.op == WalOp::kDelete) {
        // Tombstone: cancel not-yet-applied same-name upserts ordered
        // before the delete — both still queued and already in this batch.
        for (auto jt = pending_.begin(); jt != pending_.end();) {
          if (jt->second.op == WalOp::kUpsert && jt->second.lsn < op.lsn &&
              jt->second.page.name == op.name) {
            min_lsn = std::min(min_lsn, jt->second.lsn);
            jt = pending_.erase(jt);
            ++cancelled;
          } else {
            ++jt;
          }
        }
        const auto new_end = std::remove_if(
            batch.begin(), batch.end(), [&op](const PendingOp& b) {
              return b.op == WalOp::kUpsert && b.lsn < op.lsn &&
                     b.page.name == op.name;
            });
        cancelled += static_cast<size_t>(batch.end() - new_end);
        batch.erase(new_end, batch.end());
        it = pending_.begin();  // erasures invalidated the cursor position
      }
      batch.push_back(std::move(op));
    }
    inflight_min_lsn_ = min_lsn;
    tombstoned_ += cancelled;
    tombstoned_ctr_->Increment(cancelled);

    std::vector<kb::EncyclopediaPage> pages;
    pages.reserve(batch.size());
    for (PendingOp& op : batch) {
      if (op.op == WalOp::kUpsert) pages.push_back(op.page);
    }

    lk.unlock();
    util::Status applied = util::CheckFault("ingest.apply");
    if (applied.ok() && !pages.empty()) {
      std::lock_guard<std::mutex> ulk(updater_mu_);
      updater_->ApplyBatch(pages);
    }
    lk.lock();

    if (!applied.ok()) {
      // Put the batch back (tombstone cancellations stay cancelled — the
      // delete that caused them is in the batch and will be retried after
      // them, re-deriving nothing) and retry after a beat.
      for (PendingOp& op : batch) {
        pending_.emplace(std::make_pair(op.priority, op.lsn), std::move(op));
      }
      inflight_min_lsn_ = UINT64_MAX;
      apply_retries_ctr_->Increment();
      work_cv_.wait_for(lk, options_.retry_delay);
      return true;
    }

    const auto now = Clock::now();
    if (unpublished_pages_ == 0) oldest_unpublished_ = now;
    for (const PendingOp& op : batch) {
      if (op.op == WalOp::kUpsert) {
        ++unpublished_pages_;
        unpublished_acks_.push_back(op.acked_at);
      }
    }
    applied_ += batch.size() + cancelled;
    applied_ctr_->Increment(batch.size() + cancelled);
    applied_since_compact_ += batch.size() + cancelled;
    ++batches_;
    batches_ctr_->Increment();
    inflight_min_lsn_ = UINT64_MAX;
    // Only this thread mutates the updater while running, so the read does
    // not race; caching it lets stats() avoid updater_mu_ entirely.
    generation_cache_ = updater_->generation();
    ack_cv_.notify_all();
    return true;
  }

  // --- publish -------------------------------------------------------------
  const bool publish_due =
      unpublished_pages_ > 0 &&
      (unpublished_pages_ >= options_.publish_min_pages || draining_ ||
       Clock::now() - oldest_unpublished_ >= options_.publish_max_delay);
  if (publish_due) {
    lk.unlock();
    util::Status published = util::CheckFault("ingest.publish");
    if (published.ok() && service_ != nullptr) {
      std::lock_guard<std::mutex> ulk(updater_mu_);
      (void)updater_->Publish(service_);
    }
    lk.lock();
    if (!published.ok()) {
      publish_retries_ctr_->Increment();
      work_cv_.wait_for(lk, options_.retry_delay);
      return true;
    }
    const auto now = Clock::now();
    for (const auto& acked_at : unpublished_acks_) {
      publish_lag_->Observe(
          std::chrono::duration<double>(now - acked_at).count());
    }
    unpublished_acks_.clear();
    unpublished_pages_ = 0;
    ++publishes_;
    publishes_ctr_->Increment();
    ack_cv_.notify_all();
    return true;
  }

  // --- compact -------------------------------------------------------------
  if (options_.compact_every_records > 0 &&
      applied_since_compact_ >= options_.compact_every_records) {
    const uint64_t floor = ResolvedLsnLocked();
    lk.unlock();
    util::Status compacted;
    {
      std::lock_guard<std::mutex> ulk(updater_mu_);
      compacted = CompactAt(floor);
    }
    lk.lock();
    if (!compacted.ok()) {
      Registry().counter("ingest.compact.failures")->Increment();
      work_cv_.wait_for(lk, options_.retry_delay);
      return true;
    }
    cursor_.applied_lsn = floor;
    ++compactions_;
    compactions_ctr_->Increment();
    applied_since_compact_ = 0;
    return true;
  }

  return false;
}

util::Status IngestDaemon::CompactAt(uint64_t floor_lsn) {
  // Ordering is the crash-safety argument: pages -> cursor -> prune. The
  // cursor names a versioned file, so a crash after any step leaves the
  // previous (cursor, checkpoint) pair fully intact; orphaned
  // checkpoint-<lsn>.* from a failed attempt are swept by the next success.
  const std::string pages_name = CheckpointPagesName(floor_lsn);

  CNPB_RETURN_IF_ERROR(util::CheckFault("compact.pages"));
  kb::EncyclopediaDump delta;
  const kb::EncyclopediaDump& dump = updater_->dump();
  for (size_t i = base_pages_; i < dump.size(); ++i) {
    delta.AddPage(dump.page(i));
  }
  CNPB_RETURN_IF_ERROR(delta.Save(options_.wal_dir + "/" + pages_name));

  CNPB_RETURN_IF_ERROR(util::CheckFault("compact.cursor"));
  CNPB_RETURN_IF_ERROR(SaveCursor(
      options_.wal_dir,
      IngestCursor{.applied_lsn = floor_lsn, .checkpoint_file = pages_name}));

  // Pruning is best-effort: a failure (compact.prune) leaves extra sealed
  // segments that the cursor already covers — replay skips them without
  // reading, so only disk space is at stake until the next compaction.
  auto pruned = PruneWalSegments(options_.wal_dir, floor_lsn);
  if (!pruned.ok()) {
    Registry().counter("ingest.compact.prune_failures")->Increment();
  }
  PruneStaleCheckpoints(options_.wal_dir, floor_lsn);
  return util::Status::Ok();
}

util::Status IngestDaemon::CompactNow() {
  uint64_t floor = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (wal_ == nullptr) {
      return util::FailedPreconditionError("daemon stopped");
    }
    floor = ResolvedLsnLocked();
  }
  util::Status status;
  {
    std::lock_guard<std::mutex> ulk(updater_mu_);
    status = CompactAt(floor);
  }
  if (status.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    cursor_.applied_lsn = floor;
    ++compactions_;
    compactions_ctr_->Increment();
    applied_since_compact_ = 0;
  }
  return status;
}

util::Status IngestDaemon::Flush(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (wal_ == nullptr) {
      return util::FailedPreconditionError("daemon stopped");
    }
    // Force-sync stragglers staged by failed/abandoned submissions.
    while (!staged_.empty()) {
      const util::Status status = wal_->Sync();
      if (status.ok()) {
        PromoteStagedLocked();
        break;
      }
      if (Clock::now() >= deadline) {
        return util::DeadlineExceededError("ingest flush: wal sync");
      }
      lk.unlock();
      std::this_thread::sleep_for(options_.retry_delay);
      lk.lock();
    }
    work_cv_.notify_all();
    const bool drained = ack_cv_.wait_until(lk, deadline, [this] {
      return pending_.empty() && inflight_min_lsn_ == UINT64_MAX &&
             unpublished_pages_ == 0;
    });
    if (!drained) return util::DeadlineExceededError("ingest flush");
  }
  return util::Status::Ok();
}

util::Status IngestDaemon::Stop(StopMode mode) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return util::Status::Ok();
    draining_ = true;
    if (mode == StopMode::kAbort) abort_ = true;
    work_cv_.notify_all();
  }

  if (mode == StopMode::kAbort) {
    if (worker_.joinable()) worker_.join();
    std::lock_guard<std::mutex> lk(mu_);
    // Die hard: un-synced WAL bytes are dropped, no cursor write, queues
    // discarded. Recovery must reconstruct everything from disk.
    if (wal_ != nullptr) {
      wal_->SimulateCrash();
      wal_.reset();
    }
    staged_.clear();
    pending_.clear();
    running_ = false;
    return util::Status::Ok();
  }

  // Drain: everything acked must be applied and published before exit.
  util::Status drain_status = Flush();
  {
    std::lock_guard<std::mutex> lk(mu_);
    abort_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();

  // Final checkpoint so the next start replays (near) nothing. Best-effort:
  // a failure here loses no data, only replay time.
  if (drain_status.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    const uint64_t floor = ResolvedLsnLocked();
    std::lock_guard<std::mutex> ulk(updater_mu_);
    const util::Status compacted = CompactAt(floor);
    if (compacted.ok()) {
      cursor_.applied_lsn = floor;
      ++compactions_;
      compactions_ctr_->Increment();
      applied_since_compact_ = 0;
    } else {
      Registry().counter("ingest.compact.failures")->Increment();
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  wal_.reset();  // graceful close
  running_ = false;
  return drain_status;
}

IngestDaemon::Stats IngestDaemon::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.submitted = submitted_;
  s.acked = acked_;
  s.applied = applied_;
  s.batches = batches_;
  s.publishes = publishes_;
  s.compactions = compactions_;
  s.tombstoned = tombstoned_;
  if (wal_ != nullptr) {
    s.next_lsn = wal_->next_lsn();
    s.durable_lsn = wal_->durable_lsn();
  }
  s.cursor_lsn = cursor_.applied_lsn;
  s.resolved_lsn = ResolvedLsnLocked();
  s.generation = generation_cache_;
  s.served_version = service_ != nullptr ? service_->version() : 0;
  s.pending = pending_.size();
  s.unpublished_pages = unpublished_pages_;
  s.draining = draining_;
  return s;
}

void IngestDaemon::ExportMetrics(obs::MetricsRegistry* registry) const {
  const Stats s = stats();
  registry->gauge("ingest.pending")->Set(static_cast<double>(s.pending));
  registry->gauge("ingest.unpublished_pages")
      ->Set(static_cast<double>(s.unpublished_pages));
  registry->gauge("ingest.durable_lsn")
      ->Set(static_cast<double>(s.durable_lsn));
  registry->gauge("ingest.resolved_lsn")
      ->Set(static_cast<double>(s.resolved_lsn));
  registry->gauge("ingest.cursor_lsn")
      ->Set(static_cast<double>(s.cursor_lsn));
  registry->gauge("ingest.generation")
      ->Set(static_cast<double>(s.generation));
}

}  // namespace cnpb::ingest
