// Serve-while-updating contract (ISSUE 2 tentpole): ApiService queries are
// answered against one coherent published taxonomy version even while
// IncrementalUpdater applies and publishes batches concurrently. Readers
// never block on a publish and never observe a half-applied update. Run
// under -fsanitize=thread (the tsan CMake preset / CI job) to prove the
// absence of data races.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "taxonomy/api_service.h"
#include "taxonomy/taxonomy.h"
#include "util/parallel.h"

namespace cnpb {
namespace {

kb::EncyclopediaPage MakePage(const std::string& name,
                              std::vector<std::string> tags) {
  kb::EncyclopediaPage page;
  page.name = name;
  page.mention = name;
  page.tags = std::move(tags);
  return page;
}

// A tiny tag-only world: `base` pages under the "anchor" concept, plus
// `num_batches` batches whose pages also carry a per-batch "wave<k>" tag.
// Cheap enough for TSan, rich enough that every published version answers
// differently.
struct TinyWorld {
  kb::EncyclopediaDump base;
  std::vector<std::vector<kb::EncyclopediaPage>> batches;
  text::Lexicon lexicon;
};

std::unique_ptr<TinyWorld> MakeTinyWorld(size_t base_pages = 20,
                                         size_t num_batches = 3,
                                         size_t batch_pages = 10) {
  auto world = std::make_unique<TinyWorld>();
  for (size_t i = 0; i < base_pages; ++i) {
    world->base.AddPage(MakePage("base" + std::to_string(i), {"anchor"}));
  }
  world->batches.resize(num_batches);
  for (size_t k = 0; k < num_batches; ++k) {
    for (size_t i = 0; i < batch_pages; ++i) {
      world->batches[k].push_back(
          MakePage("b" + std::to_string(k) + "_" + std::to_string(i),
                   {"anchor", "wave" + std::to_string(k)}));
    }
  }
  return world;
}

core::CnProbaseBuilder::Config TinyConfig() {
  core::CnProbaseBuilder::Config config;
  config.neural.epochs = 1;
  // Tag extraction drives this world; syntax/incompatible have nothing to
  // judge on tag-only pages and are off to keep the expected sets obvious.
  config.verification.use_syntax = false;
  config.verification.use_incompatible = false;
  return config;
}

std::string Fingerprint(const taxonomy::Taxonomy& taxonomy) {
  std::ostringstream out;
  taxonomy.ForEachEdge([&](const taxonomy::IsaEdge& edge) {
    out << taxonomy.Name(edge.hypo) << '\t' << taxonomy.Name(edge.hyper)
        << '\t' << static_cast<int>(edge.source) << '\n';
  });
  return out.str();
}

// Hand-published versions: version k carries entity "probe" under concepts
// {c0 .. c(k-1)}, so a coherent GetConcept result is exactly one of those
// prefix sets. A torn read (a blend of two versions) would produce anything
// else.
TEST(ServeWhileUpdateTest, QueriesObserveExactlyOneCoherentVersion) {
  constexpr size_t kVersions = 6;
  constexpr int kReaders = 4;

  taxonomy::Taxonomy empty;
  taxonomy::ApiService api(taxonomy::Taxonomy::Freeze(std::move(empty)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> incoherent{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<std::string> out =
            api.TryGetConceptResolved("probe")->names;
        // Coherent iff out == {c0 .. c(n-1)} in insertion order for some n.
        bool ok = true;
        for (size_t i = 0; i < out.size(); ++i) {
          if (out[i] != "c" + std::to_string(i)) ok = false;
        }
        if (!ok) incoherent.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t version = 1; version <= kVersions; ++version) {
    // Materialise the next version off to the side, then swap it in.
    taxonomy::Taxonomy next;
    taxonomy::ApiService::MentionIndex mentions;
    for (size_t c = 0; c < version; ++c) {
      next.AddIsa("probe", "c" + std::to_string(c), taxonomy::Source::kTag,
                  0.9f);
    }
    mentions["probe"].push_back(next.Find("probe"));
    api.Publish(taxonomy::Taxonomy::Freeze(std::move(next)),
                std::move(mentions));
    // Let the readers interleave with this version before the next swap.
    const uint64_t reads_before = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < reads_before + 50) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(api.version(), kVersions + 1);  // ctor published version 1
}

TEST(ServeWhileUpdateTest, ReadersObserveCoherentVersionsWhileUpdaterPublishes) {
  auto world = MakeTinyWorld();

  // Reference pass: the pipeline is deterministic, so a serial run of the
  // identical update schedule yields each version's expected answers.
  std::map<uint64_t, std::vector<std::string>> expected_entities;
  std::map<uint64_t, std::vector<std::string>> expected_probe_concepts;
  {
    core::IncrementalUpdater updater(world->base, &world->lexicon, {},
                                     TinyConfig());
    taxonomy::ApiService api(updater.snapshot());
    uint64_t version = updater.Publish(&api);
    expected_entities[version] =
        api.TryGetEntityResolved("anchor", 1000)->names;
    expected_probe_concepts[version] =
        api.TryGetConceptResolved("b0_0")->names;
    for (const auto& batch : world->batches) {
      updater.ApplyBatch(batch);
      version = updater.Publish(&api);
      expected_entities[version] =
          api.TryGetEntityResolved("anchor", 1000)->names;
      expected_probe_concepts[version] =
          api.TryGetConceptResolved("b0_0")->names;
    }
    ASSERT_GE(expected_entities.size(), 4u);  // base + 3 batches
    // Every batch grows the anchor concept, so versions are distinguishable.
    ASSERT_LT(expected_entities[version - 1].size(),
              expected_entities[version].size());
  }

  // Concurrent pass: N readers hammer the service while the updater applies
  // and publishes the same batches.
  core::IncrementalUpdater updater(world->base, &world->lexicon, {},
                                   TinyConfig());
  taxonomy::ApiService api(updater.snapshot());
  const uint64_t first_version = updater.Publish(&api);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        // If no publish interleaved (version stable across the call), the
        // result must match that version's expected answer exactly.
        const uint64_t v1 = api.version();
        const std::vector<std::string> entities =
            api.TryGetEntityResolved("anchor", 1000)->names;
        const std::vector<std::string> concepts =
            api.TryGetConceptResolved("b0_0")->names;
        const uint64_t v2 = api.version();
        (void)api.TryMen2EntResolved("base0");  // load the mention path too
        if (v1 == v2) {
          const auto want_entities = expected_entities.find(v1);
          const auto want_concepts = expected_probe_concepts.find(v1);
          if (want_entities == expected_entities.end() ||
              want_entities->second != entities ||
              want_concepts == expected_probe_concepts.end() ||
              want_concepts->second != concepts) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  uint64_t last_version = first_version;
  for (const auto& batch : world->batches) {
    updater.ApplyBatch(batch);
    last_version = updater.Publish(&api);
    // Make sure readers actually sample this version before the next swap.
    const uint64_t checked_before = checked.load(std::memory_order_relaxed);
    while (checked.load(std::memory_order_relaxed) < checked_before + 20) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(last_version, first_version + world->batches.size());

  // Every query pinned exactly one version: per-version counts partition
  // the global totals.
  uint64_t attributed = 0;
  for (const auto& stats : api.AllVersionStats()) attributed += stats.queries;
  EXPECT_EQ(attributed, api.usage().total());
}

TEST(ServeWhileUpdateTest, OldSnapshotStaysQueryableAfterPublish) {
  auto world = MakeTinyWorld(10, 1, 5);
  core::IncrementalUpdater updater(world->base, &world->lexicon, {},
                                   TinyConfig());
  const std::shared_ptr<const taxonomy::Taxonomy> pinned = updater.snapshot();
  const size_t pinned_edges = pinned->num_edges();

  updater.ApplyBatch(world->batches[0]);
  // The updater swapped in a new generation; the pinned snapshot is
  // unchanged and still answers, exactly as an in-flight query would see it.
  EXPECT_EQ(pinned->num_edges(), pinned_edges);
  EXPECT_GT(updater.taxonomy().num_edges(), pinned_edges);
  EXPECT_EQ(pinned->Find("b0_0"), taxonomy::kInvalidNode);
  EXPECT_NE(updater.taxonomy().Find("b0_0"), taxonomy::kInvalidNode);
}

TEST(ServeWhileUpdateTest, PublishedSnapshotsByteIdenticalAcrossThreadCounts) {
  // The determinism contract (DESIGN.md §6) extends to published snapshots:
  // every version's serialized form is independent of CNPB_THREADS.
  auto world = MakeTinyWorld();
  std::vector<std::vector<std::string>> per_thread_fingerprints;
  for (const int threads : {1, 3}) {
    util::ScopedThreadsOverride override_threads(threads);
    core::IncrementalUpdater updater(world->base, &world->lexicon, {},
                                     TinyConfig());
    std::vector<std::string> fingerprints;
    fingerprints.push_back(Fingerprint(updater.taxonomy()));
    for (const auto& batch : world->batches) {
      updater.ApplyBatch(batch);
      fingerprints.push_back(Fingerprint(updater.taxonomy()));
    }
    per_thread_fingerprints.push_back(std::move(fingerprints));
  }
  ASSERT_EQ(per_thread_fingerprints[0].size(),
            per_thread_fingerprints[1].size());
  for (size_t v = 0; v < per_thread_fingerprints[0].size(); ++v) {
    EXPECT_EQ(per_thread_fingerprints[0][v], per_thread_fingerprints[1][v])
        << "version " << v << " diverged across thread counts";
  }
}

}  // namespace
}  // namespace cnpb
