// Seeded chaos soak (the capstone of DESIGN.md §8): with faults armed over
// the persistence and serving fault points, run build -> save -> load ->
// serve-while-update rounds and assert the system degrades, never breaks:
//   - no crash, no CHECK failure;
//   - no checksum-invalid (kDataLoss) or structurally torn load — atomic
//     writes mean every on-disk file is some complete generation;
//   - served versions are coherent: every query answers from exactly one
//     published generation, and generations observed by a reader never go
//     backwards.
// Each seed replays a distinct deterministic fault schedule.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kb/dump.h"
#include "taxonomy/api_service.h"
#include "taxonomy/snapshot.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/view.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "util/status.h"

namespace cnpb {
namespace {

constexpr int kRounds = 6;

// Fault schedule over the whole surface: dump persistence, taxonomy
// snapshot persistence (the writer, including the .bak copy of a backed-up
// write), snapshot load reads, publish contention, and query-path errors +
// latency.
constexpr char kChaosSpec[] =
    "kb.dump.save.write=0.1;kb.dump.save.rename=0.15;kb.dump.read=0.15;"
    "snapshot.backup.rename=0.2;snapshot.write=0.1;snapshot.fsync=0.1;"
    "snapshot.rename=0.15;snapshot.load.read=0.15;"
    "api.publish=0.3:limit=8;api.query=0.03";

// Generation `gen` of the evolving taxonomy: a marker entity whose single
// hypernym names the generation, plus a small entity population.
taxonomy::Taxonomy MakeGeneration(int gen) {
  taxonomy::Taxonomy t;
  t.AddIsa("marker", "gen" + std::to_string(gen), taxonomy::Source::kTag,
           0.9f);
  for (int i = 0; i < 4; ++i) {
    t.AddIsa("e" + std::to_string(i), "concept", taxonomy::Source::kInfobox,
             0.8f);
  }
  return t;
}

kb::EncyclopediaDump MakeDump(int gen) {
  kb::EncyclopediaDump dump;
  for (uint64_t i = 1; i <= 4; ++i) {
    kb::EncyclopediaPage page;
    page.page_id = i;
    page.name = "实体" + std::to_string(i) + "代" + std::to_string(gen);
    page.mention = page.name;
    page.abstract = page.name + "的摘要。";
    page.tags = {"概念"};
    dump.AddPage(std::move(page));
  }
  return dump;
}

// Parses "gen<k>" -> k; -1 when it is not a generation name.
int ParseGeneration(const std::string& name) {
  if (name.rfind("gen", 0) != 0) return -1;
  return std::atoi(name.c_str() + 3);
}

// A load outcome is acceptable iff it is a complete generation or a clean
// transient error. kDataLoss means a torn/corrupt file reached disk;
// kInvalidArgument means a structurally half-written one. Both break the
// atomic-write contract.
void ExpectCleanLoadStatus(const util::Status& status, const char* what) {
  EXPECT_NE(status.code(), util::StatusCode::kDataLoss)
      << what << " load saw a checksum-invalid file: " << status.ToString();
  EXPECT_NE(status.code(), util::StatusCode::kInvalidArgument)
      << what << " load saw a torn file: " << status.ToString();
}

class ChaosSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoakTest, SurvivesFaultScheduleCoherently) {
  const int seed = GetParam();
  const std::string dir = ::testing::TempDir();
  const std::string taxonomy_path =
      dir + "/chaos_taxonomy_" + std::to_string(seed) + ".snap";
  const std::string dump_path =
      dir + "/chaos_dump_" + std::to_string(seed) + ".tsv";
  const std::string snapshot_path =
      dir + "/chaos_snapshot_" + std::to_string(seed) + ".snap";
  std::remove(taxonomy_path.c_str());
  std::remove((taxonomy_path + ".bak").c_str());
  std::remove(dump_path.c_str());
  std::remove(snapshot_path.c_str());

  util::ScopedFaultInjection scoped(kChaosSpec,
                                    static_cast<uint64_t>(seed));

  // Serve generation 1 from the start; construction publishes it.
  // (ApiService::Publish retries through injected api.publish contention.)
  taxonomy::ApiService api(
      taxonomy::Taxonomy::Freeze(MakeGeneration(1)));
  taxonomy::ApiService::ServingLimits limits;
  limits.max_in_flight = 8;
  limits.deadline = std::chrono::microseconds(200000);
  api.SetServingLimits(limits);

  std::atomic<int> published_gen{1};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_ok{0};

  // Reader threads: every successful answer must name exactly one published
  // generation, and generations never go backwards within a reader.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto concepts = api.TryGetConceptResolved("marker");
        if (concepts.ok()) {
          ASSERT_EQ(concepts->names.size(), 1u)
              << "marker must resolve inside exactly one generation";
          const int gen = ParseGeneration(concepts->names[0]);
          ASSERT_GE(gen, 1);
          ASSERT_LE(gen, published_gen.load(std::memory_order_acquire));
          ASSERT_GE(gen, last_seen) << "served generation went backwards";
          last_seen = gen;
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          const util::StatusCode code = concepts.status().code();
          ASSERT_TRUE(code == util::StatusCode::kIoError ||
                      code == util::StatusCode::kResourceExhausted ||
                      code == util::StatusCode::kDeadlineExceeded)
              << "unexpected query failure: "
              << concepts.status().ToString();
        }
        (void)api.TryGetEntityResolved("concept", 10);
      }
    });
  }

  int last_loadable_gen = 0;
  for (int gen = 1; gen <= kRounds; ++gen) {
    // Build + persist this generation. The backed-up write may exhaust its
    // retries under the fault schedule — that loses THIS generation's
    // write, never the previous file (checked by the load below).
    const auto generation =
        taxonomy::ServingView::Encode(MakeGeneration(gen), {});
    const util::Status saved = util::Retry(util::RetryOptions{}, [&] {
      return taxonomy::WriteSnapshotWithBackup(*generation, taxonomy_path);
    });
    if (saved.ok()) last_loadable_gen = gen;

    auto loaded = util::RetryWithBackoff(util::RetryOptions{}, [&] {
      return taxonomy::LoadSnapshotWithFallback(taxonomy_path).status();
    });
    if (last_loadable_gen > 0) {
      // Something complete is on disk (primary or .bak); the only excuse
      // for not loading it is injected read faults outlasting the retries.
      ExpectCleanLoadStatus(loaded.status, "taxonomy");
    }
    auto recovered = taxonomy::LoadSnapshotWithFallback(taxonomy_path);
    if (recovered.ok()) {
      const taxonomy::ServingView& view = **recovered;
      const taxonomy::NodeId marker = view.Find("marker");
      ASSERT_NE(marker, taxonomy::kInvalidNode);
      ASSERT_EQ(view.NumHypernyms(marker), 1u);
      std::string hyper;
      view.VisitHypernyms(marker, [&](const taxonomy::HalfEdge& edge) {
        hyper = view.Name(edge.node);
        return true;
      });
      const int on_disk_gen = ParseGeneration(hyper);
      // Some complete generation 1..gen — current, a save-skipped round's
      // predecessor, or the .bak one behind it.
      ASSERT_GE(on_disk_gen, 1);
      ASSERT_LE(on_disk_gen, gen);
    }

    // Dump persistence under the same schedule.
    const kb::EncyclopediaDump dump = MakeDump(gen);
    const util::Status dump_saved = util::Retry(
        util::RetryOptions{}, [&] { return dump.Save(dump_path); });
    auto dump_loaded = kb::EncyclopediaDump::Load(dump_path);
    if (dump_loaded.ok()) {
      EXPECT_EQ(dump_loaded->size(), 4u);
    } else if (dump_saved.ok()) {
      ExpectCleanLoadStatus(dump_loaded.status(), "dump");
    }

    // Binary-snapshot persistence under the same schedule: the same
    // atomic-write contract holds for the mmap format. A round's write may
    // lose to injected faults, but whatever Load finds must be a complete
    // earlier snapshot (kNotFound when none exists, kIoError when reads are
    // faulted) —
    // never a torn or checksum-invalid one.
    const auto snap_gen =
        taxonomy::ServingView::Encode(MakeGeneration(gen), {});
    const util::Status snap_saved = util::Retry(util::RetryOptions{}, [&] {
      return taxonomy::WriteSnapshot(*snap_gen, snapshot_path);
    });
    int snap_loadable_gen = 0;
    std::shared_ptr<const taxonomy::ServingView> snap_view;
    {
      auto snap_loaded = taxonomy::ServingView::Load(snapshot_path);
      if (snap_loaded.ok()) {
        snap_view = *snap_loaded;
        const taxonomy::NodeId marker = snap_view->Find("marker");
        ASSERT_NE(marker, taxonomy::kInvalidNode);
        std::vector<std::string> hypers;
        snap_view->VisitHypernyms(
            marker, [&](const taxonomy::HalfEdge& edge) {
              hypers.emplace_back(snap_view->Name(edge.node));
              return true;
            });
        ASSERT_EQ(hypers.size(), 1u);
        snap_loadable_gen = ParseGeneration(hypers[0]);
        ASSERT_GE(snap_loadable_gen, 1);
        ASSERT_LE(snap_loadable_gen, gen);
      } else {
        ExpectCleanLoadStatus(snap_loaded.status(), "snapshot");
        if (snap_saved.ok()) {
          // A completed write is on disk; only faulted reads excuse a miss.
          EXPECT_EQ(snap_loaded.status().code(), util::StatusCode::kIoError)
              << snap_loaded.status().ToString();
        }
      }
    }

    // Publish the new generation while the readers run, alternating how
    // its bytes arrive: odd rounds publish the Taxonomy (encoded in
    // memory), even rounds the mmap snapshot just loaded (when its
    // generation is current — a stale or missing snapshot must not roll
    // the served generation back). The
    // ceiling is advanced first: a reader must never observe a generation
    // above it, and raising it a moment early is safe while raising it
    // late is not.
    if (gen > 1) {
      published_gen.store(gen, std::memory_order_release);
      if (gen % 2 == 0 && snap_view && snap_loadable_gen == gen) {
        api.Publish(snap_view);
      } else {
        api.Publish(taxonomy::Taxonomy::Freeze(MakeGeneration(gen)), {});
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  // The soak must have actually served: shedding and faults degrade some
  // queries, never all of them.
  EXPECT_GT(reads_ok.load(), 0u);
  // And the schedule must have actually injected something, else the soak
  // proved nothing (probability of zero fires across all points over all
  // rounds is negligible for every seed).
  uint64_t total_fires = 0;
  for (const auto& [point, fires] : util::FaultInjector::Global().FireCounts()) {
    total_fires += fires;
  }
  EXPECT_GT(total_fires, 0u) << "fault schedule never fired for seed "
                             << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace cnpb
