// The ingestion durability contract end to end (DESIGN.md §13), plus a
// 20-seed kill-and-restart chaos schedule. Per seed: a daemon with faults
// armed over every wal.*, ingest.*, and compact.* point takes a stream of
// upserts (callers retry failed acks, as the API contract instructs), is
// crash-stopped mid-stream (worker killed wherever it is, un-synced WAL
// bytes dropped), and recovered by a fresh daemon on the same directory.
// Invariants at every verification point:
//
//   - zero acked-op loss: every Submit that returned OK survives into the
//     recovered dump;
//   - zero double-apply: no name appears twice, including ops acked twice
//     through a retry;
//   - served versions are monotonic while readers run throughout;
//   - after a drained shutdown, recovery replays a bounded suffix (the
//     cursor covers the log) — the compaction acceptance criterion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "ingest/daemon.h"
#include "ingest/wal.h"
#include "kb/dump.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "taxonomy/api_service.h"
#include "text/segmenter.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace cnpb {
namespace {

// Every durability and scheduling fault point the daemon owns. Limits keep
// each seed's schedule finite so retries eventually land.
constexpr char kChaosSpec[] =
    "wal.append=0.15:limit=4;wal.write=0.15:limit=3;wal.fsync=0.2:limit=4;"
    "wal.rotate=0.4:limit=2;"
    "ingest.apply=0.25:limit=4;ingest.publish=0.3:limit=3;"
    "compact.pages=0.4:limit=2;"
    "compact.cursor=0.4:limit=2;compact.prune=0.5:limit=2;"
    "wal.cursor.write=0.3:limit=2;wal.cursor.rename=0.3:limit=2";

// One synthetic world shared by every test in this binary: base taxonomy
// from the first 70% of pages, the rest arriving through the daemon.
struct SharedWorld {
  synth::WorldModel world;
  std::vector<std::vector<std::string>> corpus_words;
  kb::EncyclopediaDump base;
  std::vector<kb::EncyclopediaPage> stream;

  SharedWorld() : world([] {
      synth::WorldModel::Config wc;
      wc.num_entities = 220;
      return synth::WorldModel::Generate(wc);
    }()) {
    const auto output = synth::EncyclopediaGenerator::Generate(world, {});
    text::Segmenter segmenter(&world.lexicon());
    const auto corpus =
        synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});
    for (const auto& sentence : corpus.sentences) {
      std::vector<std::string> words;
      for (const auto& token : sentence) words.push_back(token.word);
      corpus_words.push_back(std::move(words));
    }
    const size_t n = output.dump.size();
    for (size_t i = 0; i < n; ++i) {
      kb::EncyclopediaPage page = output.dump.page(i);
      page.page_id = 0;
      if (i < n * 7 / 10) {
        base.AddPage(std::move(page));
      } else {
        stream.push_back(std::move(page));
      }
    }
  }
};

const SharedWorld& World() {
  static const SharedWorld* world = new SharedWorld();
  return *world;
}

// Streamed pages carry explicit relations; live traffic ships no corpus
// evidence, so the daemon applies without the statistical verifier — same
// trade `cnprobase_serve --ingest` makes.
core::CnProbaseBuilder::Config Config() {
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  config.neural.max_train_samples = 300;
  config.enable_verification = false;
  return config;
}

std::unique_ptr<core::IncrementalUpdater> MakeUpdater() {
  const SharedWorld& w = World();
  return std::make_unique<core::IncrementalUpdater>(
      w.base, &w.world.lexicon(), w.corpus_words, Config());
}

ingest::IngestDaemon::Options Tight(const std::string& wal_dir) {
  ingest::IngestDaemon::Options options;
  options.wal_dir = wal_dir;
  options.publish_min_pages = 4;
  options.publish_max_delay = std::chrono::milliseconds(20);
  options.batch_max_pages = 8;
  options.compact_every_records = 6;
  options.retry_delay = std::chrono::milliseconds(2);
  options.wal.segment_bytes = 4096;  // force rotations under chaos
  return options;
}

// An emptied WAL directory for `tag`. ctest runs every case in its own
// process, several at once, so no two cases may share a tag.
std::string FreshWalDir(int tag) {
  const std::string dir =
      ::testing::TempDir() + "/ingest_chaos_" + std::to_string(tag);
  auto segments = ingest::ListWalSegments(dir);
  if (segments.ok()) {
    for (const auto& segment : *segments) std::remove(segment.path.c_str());
  }
  std::remove((dir + "/wal.cursor").c_str());
  ingest::PruneStaleCheckpoints(dir, 0);
  return dir;
}

// Each name's occurrence count in the updater's dump — the double-apply
// oracle (stream names are unique and disjoint from the base).
std::map<std::string, int> NameCounts(
    const core::IncrementalUpdater& updater) {
  std::map<std::string, int> counts;
  for (size_t i = 0; i < updater.dump().size(); ++i) {
    ++counts[updater.dump().page(i).name];
  }
  return counts;
}

// Submits with the retry loop the ack contract prescribes; returns true if
// an attempt was acked. Duplicate acks from retries are fine — apply
// dedups by name — which is exactly what the oracle verifies.
bool SubmitWithRetries(ingest::IngestDaemon* daemon,
                       const kb::EncyclopediaPage& page, uint8_t priority) {
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (daemon->Submit(page, priority).ok()) return true;
  }
  return false;
}

// Reader that pins the service's published versions and requires them to
// never go backwards — crash-recovery must not un-publish.
class VersionMonotonyReader {
 public:
  explicit VersionMonotonyReader(taxonomy::ApiService* service)
      : service_(service), thread_([this] { Loop(); }) {}
  ~VersionMonotonyReader() { Stop(); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  bool ok() const { return ok_.load(); }

 private:
  void Loop() {
    uint64_t last = 0;
    while (!stop_.load()) {
      // TryGetConceptResolved stamps the version the answer was resolved
      // against — the coherent read, unlike version() after the fact.
      auto resolved = service_->TryGetConceptResolved("无此实体");
      const uint64_t version =
          resolved.ok() ? resolved->version : service_->version();
      if (version < last) ok_.store(false);
      last = version;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  taxonomy::ApiService* service_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> ok_{true};
  std::thread thread_;
};

class IngestChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(IngestChaosTest, KillAndRestartLosesNothingDoublesNothing) {
  const int seed = GetParam();
  const std::string wal_dir = FreshWalDir(seed);
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 1);

  // A seed-specific slice and order of the stream.
  std::vector<kb::EncyclopediaPage> feed = World().stream;
  ASSERT_GE(feed.size(), 24u);
  std::shuffle(feed.begin(), feed.end(), rng);
  if (feed.size() > 28) feed.resize(28);
  const size_t before_crash = 8 + rng() % (feed.size() - 12);

  std::vector<std::string> acked;

  // --- Phase A: ingest under chaos, then crash mid-stream. ---
  {
    auto updater = MakeUpdater();
    taxonomy::ApiService service(updater->snapshot());
    ingest::IngestDaemon daemon(updater.get(), &service, Tight(wal_dir));
    ASSERT_TRUE(daemon.Start().ok());
    VersionMonotonyReader reader(&service);
    {
      util::ScopedFaultInjection faults(kChaosSpec,
                                        static_cast<uint64_t>(seed));
      for (size_t i = 0; i < before_crash; ++i) {
        const uint8_t priority = static_cast<uint8_t>(rng() % 3);
        if (SubmitWithRetries(&daemon, feed[i], priority)) {
          acked.push_back(feed[i].name);
        }
      }
      // Crash wherever the worker happens to be: un-synced bytes are gone,
      // no drain, no cursor write. Faults are still armed — the crash path
      // itself must not depend on healthy IO.
      ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kAbort).ok());
    }
    reader.Stop();
    EXPECT_TRUE(reader.ok()) << "served versions went backwards (seed "
                             << seed << ")";
  }
  ASSERT_GE(acked.size(), 1u) << "chaos schedule acked nothing (seed "
                              << seed << ")";

  // --- Phase B: recover on the same directory, finish the stream. ---
  {
    auto updater = MakeUpdater();
    taxonomy::ApiService service(updater->snapshot());
    ingest::IngestDaemon daemon(updater.get(), &service, Tight(wal_dir));
    const util::Status started = daemon.Start();
    ASSERT_TRUE(started.ok()) << "recovery failed (seed " << seed
                              << "): " << started.ToString();
    VersionMonotonyReader reader(&service);

    // Every ack from before the crash is already in the dump: recovery
    // replayed checkpoint + suffix before the daemon went live.
    {
      const auto counts = NameCounts(*updater);
      for (const std::string& name : acked) {
        const auto it = counts.find(name);
        ASSERT_NE(it, counts.end())
            << "acked page lost across crash (seed " << seed << "): " << name;
        EXPECT_EQ(it->second, 1)
            << "page double-applied (seed " << seed << "): " << name;
      }
    }

    // Re-submit an already-recovered page and finish the stream under a
    // fresh fault schedule. The scope ends before the drain: limits may be
    // exhausted mid-drain otherwise, and a drain is allowed to require
    // eventually-healthy IO (a real operator would retry it).
    {
      util::ScopedFaultInjection faults(kChaosSpec,
                                        static_cast<uint64_t>(seed) + 1000);
      if (SubmitWithRetries(&daemon, feed[0], 0)) {
        acked.push_back(feed[0].name);
      }
      for (size_t i = before_crash; i < feed.size(); ++i) {
        const uint8_t priority = static_cast<uint8_t>(rng() % 3);
        if (SubmitWithRetries(&daemon, feed[i], priority)) {
          acked.push_back(feed[i].name);
        }
      }
    }
    ASSERT_TRUE(daemon.Flush().ok());

    const auto counts = NameCounts(*updater);
    for (const std::string& name : acked) {
      const auto it = counts.find(name);
      ASSERT_NE(it, counts.end())
          << "acked page lost (seed " << seed << "): " << name;
      EXPECT_EQ(it->second, 1)
          << "page double-applied (seed " << seed << "): " << name;
    }
    const auto stats = daemon.stats();
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_GE(stats.publishes, 1u);
    EXPECT_EQ(service.version(), stats.served_version);

    // Drain: final checkpoint + cursor, worker joined, exit clean.
    ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
    reader.Stop();
    EXPECT_TRUE(reader.ok()) << "served versions went backwards (seed "
                             << seed << ")";
  }

  // --- Phase C: a third boot must recover from the checkpoint with a
  // bounded replay — the drained cursor covers the whole log. ---
  {
    auto updater = MakeUpdater();
    ingest::IngestDaemon daemon(updater.get(), nullptr, Tight(wal_dir));
    ASSERT_TRUE(daemon.Start().ok());
    const ingest::WalReplayReport& recovery = daemon.recovery_report();
    EXPECT_EQ(recovery.records_delivered, 0u)
        << "drained shutdown left uncheckpointed records (seed " << seed
        << ")";
    const auto counts = NameCounts(*updater);
    for (const std::string& name : acked) {
      const auto it = counts.find(name);
      ASSERT_NE(it, counts.end())
          << "acked page lost from checkpoint (seed " << seed
          << "): " << name;
      EXPECT_EQ(it->second, 1);
    }
    ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, IngestChaosTest,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Deterministic daemon behaviours (no fault schedule).

TEST(IngestDaemonTest, SubmitFlushServesAndDeleteTombstonesQueuedUpserts) {
  const std::string wal_dir = FreshWalDir(900);
  const auto& stream = World().stream;

  auto updater = MakeUpdater();
  taxonomy::ApiService service(updater->snapshot());
  auto options = Tight(wal_dir);
  options.compact_every_records = 0;  // manual compaction only
  ingest::IngestDaemon daemon(updater.get(), &service, options);
  ASSERT_TRUE(daemon.Start().ok());
  const uint64_t version_before = service.version();

  // Batch ack: one fsync covers every page.
  std::vector<kb::EncyclopediaPage> batch(stream.begin(), stream.begin() + 6);
  auto last = daemon.SubmitBatch(batch);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 6u);
  ASSERT_TRUE(daemon.Flush().ok());

  for (const auto& page : batch) {
    ASSERT_TRUE(NameCounts(*updater).count(page.name)) << page.name;
  }
  EXPECT_GT(service.version(), version_before);

  // Duplicate submission dedups at apply.
  ASSERT_TRUE(daemon.Submit(batch[0]).ok());
  ASSERT_TRUE(daemon.Flush().ok());
  EXPECT_EQ(NameCounts(*updater)[batch[0].name], 1);

  // A delete behind a queued same-name upsert tombstones it: the delete
  // has the higher LSN, so whenever the worker wakes it cancels the
  // not-yet-applied upsert — or, if the upsert already applied, the
  // tombstone is a documented no-op. Accept either; require no dup.
  const kb::EncyclopediaPage& victim = stream[7];
  ASSERT_TRUE(daemon.Submit(victim, 2).ok());
  ASSERT_TRUE(daemon.SubmitDelete(victim.name, 0).ok());
  ASSERT_TRUE(daemon.Flush().ok());
  EXPECT_LE(NameCounts(*updater)[victim.name], 1);

  // Manual compaction advances the cursor to the resolved boundary.
  const auto before = daemon.stats();
  ASSERT_TRUE(daemon.CompactNow().ok());
  const auto after = daemon.stats();
  EXPECT_GT(after.compactions, before.compactions);
  EXPECT_GE(after.cursor_lsn, before.resolved_lsn);

  ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
  EXPECT_FALSE(daemon.running());

  // Recovery from the compacted state delivers nothing new.
  auto updater2 = MakeUpdater();
  ingest::IngestDaemon daemon2(updater2.get(), nullptr, Tight(wal_dir));
  ASSERT_TRUE(daemon2.Start().ok());
  EXPECT_EQ(daemon2.recovery_report().records_delivered, 0u);
  for (const auto& page : batch) {
    EXPECT_TRUE(NameCounts(*updater2).count(page.name));
  }
  ASSERT_TRUE(daemon2.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
}

// A compaction writes the checkpoint pages and the cursor and nothing
// else; it also sweeps the checkpoint-<lsn>.snap files earlier builds
// wrote, even one at the lsn it compacts to.
TEST(IngestDaemonTest, CompactionKeepsOnlyThePagesCheckpoint) {
  const std::string wal_dir = FreshWalDir(901);
  const auto& stream = World().stream;
  auto updater = MakeUpdater();
  auto options = Tight(wal_dir);
  options.compact_every_records = 0;  // manual compaction only
  ingest::IngestDaemon daemon(updater.get(), nullptr, options);
  ASSERT_TRUE(daemon.Start().ok());
  std::vector<kb::EncyclopediaPage> batch(stream.begin(), stream.begin() + 6);
  ASSERT_TRUE(daemon.SubmitBatch(batch).ok());
  ASSERT_TRUE(daemon.Flush().ok());

  const uint64_t floor = daemon.stats().resolved_lsn;
  for (const uint64_t lsn : {uint64_t{1}, floor}) {
    FILE* legacy = std::fopen(
        (wal_dir + "/checkpoint-" + std::to_string(lsn) + ".snap").c_str(),
        "w");
    ASSERT_NE(legacy, nullptr);
    std::fclose(legacy);
  }
  ASSERT_TRUE(daemon.CompactNow().ok());

  auto cursor = ingest::LoadCursor(wal_dir);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->applied_lsn, floor);
  const std::string pages =
      "checkpoint-" + std::to_string(floor) + ".pages.tsv";
  EXPECT_EQ(cursor->checkpoint_file, pages);
  std::vector<std::string> checkpoints;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0) checkpoints.push_back(name);
  }
  EXPECT_EQ(checkpoints, std::vector<std::string>{pages});
  ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
}

TEST(IngestDaemonTest, PriorityOrdersApplyWithinABacklog) {
  const std::string wal_dir = FreshWalDir(902);
  const auto& stream = World().stream;

  auto updater = MakeUpdater();
  auto options = Tight(wal_dir);
  options.batch_max_pages = 2;
  ingest::IngestDaemon daemon(updater.get(), nullptr, options);
  ASSERT_TRUE(daemon.Start().ok());

  // Build a backlog while the worker is pinned behind an injected apply
  // fault, then observe that the first successful batch drained the
  // most-urgent op first: the scheduler is (priority, lsn), and ApplyBatch
  // assigns fresh page ids in batch order, so the urgent page must end up
  // with a smaller id than the earlier-submitted lazy one.
  {
    util::ScopedFaultInjection faults("ingest.apply=1.0:limit=100000", 7);
    ASSERT_TRUE(daemon.Submit(stream[10], 2).ok());
    ASSERT_TRUE(daemon.Submit(stream[11], 2).ok());
    ASSERT_TRUE(daemon.Submit(stream[12], 0).ok());
    // Hold the fault until all three are back in the queue together — a
    // batch the worker popped before the urgent op arrived must not be the
    // one that lands once faults clear.
    for (int i = 0; i < 5000 && daemon.stats().pending < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(daemon.stats().pending, 3u);
  }
  ASSERT_TRUE(daemon.Flush().ok());
  const auto* urgent = updater->dump().FindByName(stream[12].name);
  const auto* lazy = updater->dump().FindByName(stream[10].name);
  ASSERT_NE(urgent, nullptr);
  ASSERT_NE(lazy, nullptr);
  EXPECT_LT(urgent->page_id, lazy->page_id);
  ASSERT_TRUE(daemon.Stop(ingest::IngestDaemon::StopMode::kDrain).ok());
}

}  // namespace
}  // namespace cnpb
