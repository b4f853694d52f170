#ifndef CNPROBASE_INGEST_DAEMON_H_
#define CNPROBASE_INGEST_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "ingest/wal.h"
#include "kb/page.h"
#include "obs/metrics.h"
#include "taxonomy/api_service.h"
#include "util/status.h"

namespace cnpb::ingest {

// Crash-safe continuous ingestion (DESIGN.md §13).
//
// The daemon turns the one-shot IncrementalUpdater into a long-running
// streaming service with a durability contract:
//
//   ack      A Submit* call returning OK means the operation is fsynced in
//            the WAL. Group commit: concurrent submitters share one fsync.
//   apply    A worker thread drains acknowledged operations into
//            IncrementalUpdater batches, most-urgent priority first (FIFO
//            by LSN within a priority).
//   publish  Applied batches reach the ApiService on a bounded-lag cadence:
//            as soon as >= publish_min_pages are applied-but-unpublished,
//            or the oldest unpublished page is >= publish_max_delay old.
//            Readers keep serving pinned versions throughout.
//   compact  Periodically the applied pages are checkpointed (a pages TSV
//            in the WAL directory) and the commit cursor advanced, so
//            recovery replays only the WAL suffix past the cursor and old
//            segments can be pruned.
//
// Exactly-once across crashes: the cursor only advances together with a
// checkpoint that captures every effect at or below it, and recovery
// re-applies the checkpoint pages then replays the suffix. Replayed
// operations that were already applied (the window between apply and the
// next checkpoint) no-op through the updater's name dedup, so a crash at
// any fault point (wal.*, ingest.*, compact.*, or a hard kill) loses no
// acknowledged operation and double-applies none.
//
// Delete semantics are best-effort tombstones: a delete cancels same-name
// upserts that are still queued behind it (lower LSN, not yet applied) and
// is recorded durably, but it cannot retract a page already materialised
// into the taxonomy — the updater has no page-removal operation. Recovery
// replays the same suppression rule over the whole post-checkpoint suffix,
// which is deliberately *stronger* than what the live run may have done:
// whether a live upsert escaped its delete depends on scheduler timing
// that is not recorded anywhere durable, so replay cannot reconstruct it
// and instead resolves every such race in the delete's favour. The one
// documented divergence window: a page upserted then deleted inside the
// uncheckpointed suffix may have been served before the crash (the upsert
// won the live race) yet be absent after recovery — recovery retroactively
// honors the delete. The reverse never happens: a page without a
// higher-LSN same-name delete is never suppressed, and acked upserts are
// otherwise never lost.
class IngestDaemon {
 public:
  struct Options {
    // Directory holding WAL segments, the cursor, and checkpoints.
    std::string wal_dir;
    // Publish cadence: whichever bound trips first.
    size_t publish_min_pages = 32;
    std::chrono::milliseconds publish_max_delay{200};
    // Max pages the worker folds into one ApplyBatch call.
    size_t batch_max_pages = 64;
    // Checkpoint + prune after this many operations applied since the last
    // successful compaction. 0 disables automatic compaction (CompactNow()
    // still works).
    uint64_t compact_every_records = 512;
    // Delay between worker retries after a failed apply/publish (fault or
    // real IO error) — exponential growth is overkill here because the
    // worker also wakes for every new submission.
    std::chrono::milliseconds retry_delay{10};
    WalOptions wal;
  };

  enum class StopMode {
    // Finish everything: sync staged records, apply and publish every
    // pending operation, write a final checkpoint, then join the worker.
    kDrain,
    // Simulated crash for chaos tests: join the worker wherever it is and
    // drop un-synced WAL bytes (WalWriter::SimulateCrash). No cursor write,
    // no drain — recovery must reconstruct from disk alone.
    kAbort,
  };

  struct Stats {
    uint64_t submitted = 0;      // Submit* calls accepted into the WAL
    uint64_t acked = 0;          // submissions covered by an fsync (OK acks)
    uint64_t applied = 0;        // operations folded into the taxonomy
    uint64_t batches = 0;        // ApplyBatch calls
    uint64_t publishes = 0;      // versions pushed to the ApiService
    uint64_t compactions = 0;    // successful checkpoints
    uint64_t tombstoned = 0;     // pending upserts cancelled by deletes
    uint64_t next_lsn = 0;
    uint64_t durable_lsn = 0;
    uint64_t cursor_lsn = 0;     // durable commit cursor (last compaction)
    uint64_t resolved_lsn = 0;   // contiguous applied boundary (cursor bound)
    uint64_t generation = 0;     // updater generation
    uint64_t served_version = 0; // ApiService version (0 when no service)
    size_t pending = 0;          // acked, not yet applied
    size_t unpublished_pages = 0;
    bool draining = false;
  };

  // `updater` must be positioned at the checkpoint base state (typically
  // freshly built over the base dump); Start() layers checkpoint and WAL
  // recovery on top. `service` may be null (no serving — apply only).
  // Neither is owned; both must outlive the daemon.
  IngestDaemon(core::IncrementalUpdater* updater,
               taxonomy::ApiService* service, Options options);
  ~IngestDaemon();  // Stop(kDrain) if still running

  IngestDaemon(const IngestDaemon&) = delete;
  IngestDaemon& operator=(const IngestDaemon&) = delete;

  // Recovers (cursor -> checkpoint pages -> WAL suffix replay), opens a
  // fresh WAL segment, publishes the recovered state, and starts the
  // worker. Returns kDataLoss for corrupt sealed segments / cursor — the
  // operator must intervene rather than serve silently incomplete data.
  util::Status Start();

  // What recovery did (valid after a successful Start()).
  const WalReplayReport& recovery_report() const { return recovery_; }

  // Durably enqueues one page upsert / one delete-by-name. Returns the
  // record's LSN once it is fsynced (the ack); an error means the caller
  // must retry — the operation may or may not survive a crash, and a retry
  // is safe because apply dedups by name. Thread-safe; concurrent callers
  // share fsyncs. priority 0 is most urgent.
  util::Result<uint64_t> Submit(const kb::EncyclopediaPage& page,
                                uint8_t priority = 1);
  util::Result<uint64_t> SubmitDelete(const std::string& name,
                                      uint8_t priority = 1);
  // Appends every page, then acks them under a single fsync. Returns the
  // last LSN.
  util::Result<uint64_t> SubmitBatch(
      const std::vector<kb::EncyclopediaPage>& pages, uint8_t priority = 1);

  // Blocks until everything acked so far is applied and published (or
  // `timeout` elapses — kDeadlineExceeded). Testing / drain aid.
  util::Status Flush(std::chrono::milliseconds timeout =
                         std::chrono::milliseconds(60000));

  // Runs a checkpoint + prune on the caller's thread at the current
  // resolved boundary. Also what the worker calls on cadence.
  util::Status CompactNow();

  util::Status Stop(StopMode mode);
  bool running() const { return running_; }

  Stats stats() const;
  // Folds daemon state into gauges (ingest.pending, ingest.resolved_lsn,
  // ...) right before a registry export.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct PendingOp {
    uint64_t lsn = 0;
    uint8_t priority = 1;
    WalOp op = WalOp::kUpsert;
    kb::EncyclopediaPage page;  // upserts
    std::string name;           // deletes
    std::chrono::steady_clock::time_point acked_at;
  };

  // Appends one record under mu_ and stages it (no fsync).
  util::Result<uint64_t> AppendLocked(WalOp op, uint8_t priority,
                                      std::string_view payload,
                                      PendingOp staged);
  // Group-commit barrier: returns once durable_lsn >= lsn (possibly via a
  // concurrent caller's fsync). Moves newly durable staged ops to pending.
  util::Status CommitThrough(uint64_t lsn);
  void PromoteStagedLocked();  // staged (lsn <= durable) -> pending

  void WorkerLoop();
  // One worker step under `lk` (mu_): apply a batch, publish, or compact.
  // Returns true if it did (or retried) work, false if there was nothing
  // actionable. Drops the lock around updater calls.
  bool WorkerStepLocked(std::unique_lock<std::mutex>& lk);
  // Checkpoint + cursor + prune at `floor_lsn`. Caller holds updater_mu_
  // and must NOT hold mu_ (except during the single-threaded drain path).
  util::Status CompactAt(uint64_t floor_lsn);

  uint64_t ResolvedLsnLocked() const;

  core::IncrementalUpdater* const updater_;
  taxonomy::ApiService* const service_;
  const Options options_;

  // mu_ guards the WAL writer, staged/pending queues, and all cursor
  // bookkeeping. updater_mu_ serialises every IncrementalUpdater call
  // (worker apply/publish vs. external CompactNow). Lock order: mu_ may be
  // taken before updater_mu_, never the reverse; the worker holds neither
  // across the other.
  mutable std::mutex mu_;
  std::mutex updater_mu_;
  std::condition_variable work_cv_;   // worker wakeups
  std::condition_variable ack_cv_;    // CommitThrough / Flush waiters
  std::unique_ptr<WalWriter> wal_;
  std::deque<PendingOp> staged_;      // appended, not yet durable
  // Durable, not yet applied; keyed for the scheduler. The map is the
  // priority queue: iteration order == (priority, lsn).
  std::map<std::pair<uint8_t, uint64_t>, PendingOp> pending_;

  IngestCursor cursor_;               // last durable checkpoint
  uint64_t enqueued_floor_ = 0;       // every lsn <= this left staged_
  // Smallest LSN popped into the batch currently being applied (UINT64_MAX
  // when none): pins the resolved boundary while apply runs outside mu_.
  uint64_t inflight_min_lsn_ = UINT64_MAX;
  size_t base_pages_ = 0;             // dump size before any daemon apply
  uint64_t generation_cache_ = 0;     // updater generation, readable under mu_
  uint64_t applied_since_compact_ = 0;
  size_t unpublished_pages_ = 0;
  std::chrono::steady_clock::time_point oldest_unpublished_;
  std::vector<std::chrono::steady_clock::time_point> unpublished_acks_;

  std::thread worker_;
  bool running_ = false;
  bool draining_ = false;
  bool abort_ = false;

  WalReplayReport recovery_;

  // Counters (registry handles cached once; see obs/metrics.h).
  obs::Counter* const submitted_ctr_;
  obs::Counter* const acked_ctr_;
  obs::Counter* const applied_ctr_;
  obs::Counter* const batches_ctr_;
  obs::Counter* const publishes_ctr_;
  obs::Counter* const compactions_ctr_;
  obs::Counter* const tombstoned_ctr_;
  obs::Counter* const apply_retries_ctr_;
  obs::Counter* const publish_retries_ctr_;
  obs::BucketHistogram* const publish_lag_;
  obs::BucketHistogram* const commit_seconds_;

  uint64_t submitted_ = 0, acked_ = 0, applied_ = 0, batches_ = 0,
           publishes_ = 0, compactions_ = 0, tombstoned_ = 0;
};

}  // namespace cnpb::ingest

#endif  // CNPROBASE_INGEST_DAEMON_H_
